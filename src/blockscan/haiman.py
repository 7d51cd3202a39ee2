"""Extreme-value approximant for maxima of 1-dependent stationary sequences.

Implements the rational approximant H, the error factor F and its constants
K, L, E, Gamma.  All constants are driven by one parameter ``l > t2^3``, taken
just above ``t2^3``, where ``t2`` is a root of the cubic
``alpha*t^3 - t + 1 = 0``; the root used is the one that
tends to 1 as ``alpha`` tends to 0, the only choice keeping every denominator
positive on the admissible range ``alpha <= 0.1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HypothesisError, OrderingError, ParameterError, ValidityError

ALPHA_MAX = 0.1
_BOUNDARY_MARGIN = 1e-6


def solve_t2(alpha: float) -> float:
    """Root of ``alpha*t^3 - t + 1 = 0`` continuous to 1 as alpha -> 0+.

    The cubic has three real roots on the admissible range; this returns the
    one of smallest magnitude (the middle root by signed value), computed by
    the closed-form trigonometric solution and polished by Newton steps to
    1e-12 relative accuracy.
    """
    if not 0.0 < alpha <= ALPHA_MAX:
        raise ParameterError(f"alpha must be in (0, {ALPHA_MAX}], got {alpha}")
    # depressed form t^3 + p t + q with p = -1/alpha, q = 1/alpha
    p = -1.0 / alpha
    q = 1.0 / alpha
    rho = 2.0 * math.sqrt(-p / 3.0)
    arg = (3.0 * q) / (2.0 * p) * math.sqrt(-3.0 / p)
    phi = math.acos(max(-1.0, min(1.0, arg)))
    roots = [rho * math.cos(phi / 3.0 - 2.0 * math.pi * k / 3.0) for k in range(3)]
    t = min(roots, key=abs)
    for _ in range(4):
        f = alpha * t**3 - t + 1.0
        df = 3.0 * alpha * t**2 - 1.0
        t -= f / df
    residual = abs(alpha * t**3 - t + 1.0)
    if residual > 1e-10:
        raise ValidityError("cubic residual", f"|residual| = {residual} at alpha={alpha}")
    return t


@dataclass(frozen=True)
class Theorem1Constants:
    """All scalars of one invocation of the 1-dependent maxima bound."""

    alpha: float
    t2: float
    l: float
    eta: float
    K: float
    L: float
    E: float

    @property
    def Gamma(self) -> float:
        return self.L + self.E


def _constants_at(alpha: float, t2: float, l: float) -> Theorem1Constants:
    eta = 1.0 + l * alpha
    one_minus = 1.0 - alpha
    d_inner = 1.0 - alpha * (1.0 + l * alpha) ** 2
    if d_inner <= 0.0:
        raise ValidityError("1 - alpha*(1 + l*alpha)^2", f"non-positive at l={l}")
    k_den = 1.0 - 2.0 * alpha * (1.0 + l * alpha) / d_inner**2
    if k_den <= 0.0:
        raise ValidityError("K denominator", f"non-positive at l={l}")
    k_num = (11.0 - 3.0 * alpha) / one_minus**2 + (
        2.0
        * l
        * (1.0 + 3.0 * alpha)
        * (2.0 + 3.0 * l * alpha - alpha * (2.0 - l * alpha) * (1.0 + l * alpha) ** 2)
        / d_inner**3
    )
    K = k_num / k_den
    L = (
        3.0 * K * (1.0 + alpha + 3.0 * alpha**2) * (1.0 + alpha + 3.0 * alpha**2 + K * alpha**3)
        + alpha**6 * K**3
        + 9.0 * alpha * (4.0 + 3.0 * alpha + 3.0 * alpha**2)
        + 55.1
    )
    e_d1 = 1.0 - alpha * eta**2
    if e_d1 <= 0.0:
        raise ValidityError("1 - alpha*eta^2", f"non-positive at l={l}")
    e_inner = e_d1**2 - alpha * eta**2 * (1.0 + eta - 2.0 * alpha * eta) ** 2
    if e_inner <= 0.0:
        raise ValidityError("E denominator", f"non-positive at l={l}")
    e_num = (
        eta**5
        * (1.0 + (1.0 - 2.0 * alpha) * eta) ** 4
        * (1.0 + alpha * (eta - 2.0))
        * (1.0 + eta + (1.0 - 3.0 * alpha) * eta**2)
    )
    E = e_num / (2.0 * e_d1**4 * e_inner)
    return Theorem1Constants(alpha=alpha, t2=t2, l=l, eta=eta, K=K, L=L, E=E)


def error_factor_F(constants: Theorem1Constants, m: int, q1: float) -> float:
    """The scalar F; the full bound on |q_m - H| is ``m * F * (1 - q1)^2``."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if q1 < 1.0 - constants.alpha - 1e-12:
        raise HypothesisError(
            f"q1={q1} violates q1 >= 1 - alpha = {1.0 - constants.alpha}"
        )
    return 1.0 + 3.0 / m + (constants.Gamma / m + constants.K) * (1.0 - q1)


def theorem1_constants(alpha: float) -> Theorem1Constants:
    """Constants for one bound invocation, at ``l`` just above the cubic-root cube.

    Theorem 1 holds for any ``l > t2^3``, and F rises with ``l`` over
    ``(t2^3, 4 t2^3]`` (checked on a grid of ``alpha`` and ``m`` in the
    tests), so the lowest ``l`` the strict inequality leaves room for gives
    the smallest F.
    ``alpha=0`` is the exact degenerate limit (all window exceedances vanish).
    """
    if not 0.0 <= alpha <= ALPHA_MAX:
        raise ParameterError(f"alpha must be in [0, {ALPHA_MAX}], got {alpha}")
    t2 = 1.0 if alpha == 0.0 else solve_t2(alpha)
    return _constants_at(alpha, t2, t2**3 * (1.0 + _BOUNDARY_MARGIN))


def approximant_H_with_flag(q1: float, q2: float, m: int) -> tuple[float, bool]:
    """H(q1, q2, m) clamped into [0, 1]; the flag reports whether clamping hit."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if not (0.0 <= q2 and q1 <= 1.0):
        raise OrderingError(f"probabilities out of range: q1={q1}, q2={q2}")
    if q2 > q1:
        raise OrderingError(f"q2={q2} exceeds q1={q1}; inconsistent inputs")
    diff = q1 - q2
    try:
        raw = (2.0 * q1 - q2) / (1.0 + diff + 2.0 * diff**2) ** m
    except OverflowError:
        raw = 0.0  # a finite numerator over a denominator past the float range
    clamped = min(1.0, max(0.0, raw))
    return clamped, clamped != raw
