import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockscan import (
    Theorem1Constants,
    approximant_H_with_flag,
    error_factor_F,
    solve_t2,
    theorem1_constants,
)
from blockscan import haiman
from blockscan.errors import HypothesisError, OrderingError, ParameterError, ValidityError

mp.mp.dps = 60


def theorem1_bound(constants: Theorem1Constants, m: int, q1: float) -> float:
    """Theorem 1's bound on ``|q_m - H|``: ``m * F * (1 - q1)^2``."""
    return m * error_factor_F(constants, m, q1) * (1.0 - q1) ** 2


def lipschitz_gap(x1: float, y1: float, x2: float, y2: float, m: int) -> float:
    """Right-hand side of the H difference bound: ``m * (|x1-x2| + |y1-y2|)``."""
    return m * (abs(x1 - x2) + abs(y1 - y2))


ALPHA_GRID = (0.001, 0.01, 0.05, 0.1)


def _reference_constants(alpha: float, l: float):
    """High-precision re-derivation of K, L, E used as the dual evaluator."""
    a, ll = mp.mpf(alpha), mp.mpf(l)
    eta = 1 + ll * a
    inner = 1 - a * eta**2
    K = (
        (11 - 3 * a) / (1 - a) ** 2
        + 2 * ll * (1 + 3 * a) * (2 + 3 * ll * a - a * (2 - ll * a) * eta**2) / inner**3
    ) / (1 - 2 * a * eta / inner**2)
    L = (
        3 * K * (1 + a + 3 * a**2) * (1 + a + 3 * a**2 + K * a**3)
        + a**6 * K**3
        + 9 * a * (4 + 3 * a + 3 * a**2)
        + mp.mpf(55.1)
    )
    E = (
        eta**5
        * (1 + (1 - 2 * a) * eta) ** 4
        * (1 + a * (eta - 2))
        * (1 + eta + (1 - 3 * a) * eta**2)
    ) / (2 * inner**4 * (inner**2 - a * eta**2 * (1 + eta - 2 * a * eta) ** 2))
    return K, L, E


def _rel(x: float, ref) -> float:
    return abs((mp.mpf(x) - ref) / ref)


# --- cubic root -------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_cubic_residual(alpha):
    t2 = solve_t2(alpha)
    assert abs(alpha * t2**3 - t2 + 1.0) <= 1e-10


@pytest.mark.parametrize("alpha", ALPHA_GRID + (0.003, 0.07, 0.099))
def test_cubic_root_matches_polynomial_solver(alpha):
    roots = np.roots([alpha, 0.0, -1.0, 1.0])
    real = roots[np.abs(roots.imag) < 1e-9].real
    assert abs(solve_t2(alpha) - real[np.argmin(np.abs(real))]) < 1e-9


def test_cubic_root_frozen_value_and_limit():
    assert solve_t2(0.1) == pytest.approx(1.153467, abs=1e-5)
    assert solve_t2(1e-6) == pytest.approx(1.0, abs=1e-4)


def test_cubic_root_domain():
    with pytest.raises(ParameterError):
        solve_t2(0.0)
    with pytest.raises(ParameterError):
        solve_t2(0.2)
    # the bound's constants take alpha in [0, ALPHA_MAX] only
    for alpha in (0.2, -0.1):
        with pytest.raises(ParameterError, match="alpha must be in"):
            theorem1_constants(alpha)


# --- constants --------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_constants_dual_evaluation(alpha):
    c = theorem1_constants(alpha)
    K, L, E = _reference_constants(alpha, c.l)
    assert _rel(c.K, K) < 1e-12
    assert _rel(c.L, L) < 1e-12
    assert _rel(c.E, E) < 1e-12
    assert c.Gamma == c.L + c.E


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_error_factor_dual_evaluation(alpha):
    m = 10
    c = theorem1_constants(alpha)
    K, L, E = _reference_constants(alpha, c.l)
    ref = 1 + mp.mpf(3) / m + ((L + E) / m + K) * mp.mpf(alpha)
    assert _rel(error_factor_F(c, m, 1.0 - alpha), ref) < 1e-12


def test_constants_positive_on_admissible_range():
    for alpha in np.linspace(0.001, 0.1, 25):
        c = theorem1_constants(float(alpha))
        assert c.K > 0 and c.L > 0 and c.E > 0
        assert error_factor_F(c, 50, 1.0 - float(alpha)) > 0


def test_degenerate_limit():
    """alpha -> 0 with l -> 1: K -> 15, L -> 100.1, E -> 24."""
    c = theorem1_constants(1e-9)
    assert c.K == pytest.approx(15.0, abs=1e-4)
    assert c.L == pytest.approx(100.1, abs=1e-4)
    assert c.E == pytest.approx(24.0, abs=1e-4)
    exact = theorem1_constants(0.0)
    assert (exact.K, exact.L, exact.E) == pytest.approx((15.0, 100.1, 24.0), rel=1e-5)


@pytest.mark.parametrize("alpha", (1e-6,) + ALPHA_GRID)
def test_error_factor_rises_with_l(alpha):
    """F rises with l over (t2^3, 4 t2^3], so the bound takes l just above t2^3.

    An l where a constant is not valid counts as F = +inf.  Below alpha of
    about 1e-6 the rise is lost in float rounding.
    """
    t2 = solve_t2(alpha)
    grid = t2**3 * (1.0 + np.geomspace(1e-9, 3.0, 200))
    for m in (1, 2, 14, 47, 10**4):
        values = []
        for l in grid:
            try:
                constants = haiman._constants_at(alpha, t2, float(l))
            except ValidityError:
                values.append(math.inf)
            else:
                values.append(error_factor_F(constants, m, 1.0 - alpha))
        assert math.isfinite(values[0])
        assert all(a < b or a == b == math.inf for a, b in zip(values, values[1:])), m
    assert theorem1_constants(alpha).l == t2**3 * (1.0 + 1e-6)


def test_error_factor_hypothesis_check():
    c = theorem1_constants(0.05)
    with pytest.raises(HypothesisError):
        error_factor_F(c, 10, 0.9)  # q1 < 1 - alpha
    with pytest.raises(ParameterError):
        error_factor_F(c, 0, 0.99)


def test_bound_shape():
    c = theorem1_constants(0.05)
    m, q1 = 20, 0.96
    assert theorem1_bound(c, m, q1) == m * error_factor_F(c, m, q1) * (1 - q1) ** 2


# --- approximant ------------------------------------------------------------


def test_H_fixed_point_identity():
    for q in np.linspace(0.0, 1.0, 100):
        assert abs(approximant_H_with_flag(float(q), float(q), 17)[0] - q) <= 1e-15


def test_H_matches_high_precision_evaluation():
    cases = [(0.95, 0.90, 5), (0.999, 0.998, 100), (0.93, 0.90, 12)]
    for q1, q2, m in cases:
        a, b = mp.mpf(q1), mp.mpf(q2)
        ref = (2 * a - b) / (1 + a - b + 2 * (a - b) ** 2) ** m
        assert _rel(approximant_H_with_flag(q1, q2, m)[0], ref) < 1e-13


def test_H_input_checks():
    with pytest.raises(OrderingError):
        approximant_H_with_flag(0.5, 0.6, 3)
    with pytest.raises(OrderingError):
        approximant_H_with_flag(1.2, 0.5, 3)
    with pytest.raises(ParameterError):
        approximant_H_with_flag(0.9, 0.8, 0)


def test_H_stays_in_unit_interval():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        q1 = float(rng.uniform(0.0, 1.0))
        q2 = float(rng.uniform(0.0, q1))
        m = int(rng.integers(1, 200))
        value, clamped = approximant_H_with_flag(q1, q2, m)
        assert 0.0 <= value <= 1.0
        assert not clamped  # the rational form is already a probability here
    assert approximant_H_with_flag(0.9, 0.0, 1)[0] == pytest.approx(1.8 / (1 + 0.9 + 2 * 0.81))


def test_H_is_zero_once_its_denominator_passes_the_float_range():
    # (1 + d + 2 d**2) ** m is about 1e6023 here, past the float range
    assert approximant_H_with_flag(0.9974, 0.9945, 4_761_904) == (0.0, False)
    # at about 1e126 the rational form is untouched
    q1, q2, m = 0.9974, 0.9945, 100_000
    diff = q1 - q2
    raw = (2.0 * q1 - q2) / (1.0 + diff + 2.0 * diff**2) ** m
    assert approximant_H_with_flag(q1, q2, m) == (raw, False) and raw > 0.0


def test_H_lipschitz_gap_bound():
    rng = np.random.default_rng(314)
    for _ in range(500):
        m = int(rng.integers(1, 60))
        x1 = float(rng.uniform(0.9, 1.0))
        x2 = float(rng.uniform(0.9, 1.0))
        y1 = float(rng.uniform(max(0.0, x1 - 0.05), x1))
        y2 = float(rng.uniform(max(0.0, x2 - 0.05), x2))
        (h1, _), (h2, _) = approximant_H_with_flag(x1, y1, m), approximant_H_with_flag(x2, y2, m)
        gap = abs(h1 - h2)
        assert gap <= lipschitz_gap(x1, y1, x2, y2, m) + 1e-12


@given(
    q1=st.floats(min_value=0.0, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    m=st.integers(min_value=1, max_value=150),
)
@settings(max_examples=200, deadline=None)
def test_H_property_probability_and_fixed_point(q1, frac, m):
    q2 = q1 * frac
    value = approximant_H_with_flag(q1, q2, m)[0]
    assert 0.0 <= value <= 1.0
    if frac == 1.0:
        assert abs(value - q1) <= 1e-15


def test_lipschitz_gap_values():
    assert lipschitz_gap(0.9, 0.8, 0.9, 0.8, 5) == 0.0
    assert lipschitz_gap(0.99, 0.98, 0.97, 0.99, 7) == pytest.approx(7 * 0.03)
