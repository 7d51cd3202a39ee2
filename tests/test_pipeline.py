import concurrent.futures
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from blockscan import (
    EstimateRecord,
    ExperimentSpec,
    MarginalDistribution,
    SeedSpec,
    approximant_H_with_flag,
    approximate,
    catalog_transform,
    estimate_quv,
    identity_transform,
    ma_transform,
    minesweeper_transform,
    one_step_approximation,
    quv_field_dims,
    simulate_distribution,
    two_step_approximation,
)
from blockscan import blockfactor, pipeline
from blockscan.errors import GeometryError, HypothesisError, OrderingError, ParameterError
from oracles import group_tallies, grouped_replicas, view_orders, view_replicas


def _bernoulli_spec(cols=12, rows=12, thresholds=(6, 7, 8), iterations=4000, seed=11, p=0.3):
    return ExperimentSpec(
        source_cols=cols,
        source_rows=rows,
        m1=3,
        m2=3,
        distribution=MarginalDistribution.bernoulli(p),
        transform=identity_transform(),
        thresholds=tuple(float(n) for n in thresholds),
        iterations=iterations,
        seed=seed,
    )


def _minesweeper_spec(cols=20, rows=20, thresholds=(30, 32), iterations=4000, seed=5):
    return ExperimentSpec(
        source_cols=cols,
        source_rows=rows,
        m1=3,
        m2=3,
        distribution=MarginalDistribution.bernoulli(0.5),
        transform=catalog_transform("minesweeper"),
        thresholds=tuple(float(n) for n in thresholds),
        iterations=iterations,
        seed=seed,
    )


# --- geometry of the estimation fields -------------------------------------


def test_quv_field_dims():
    minesweeper = _minesweeper_spec()
    assert quv_field_dims(2, 2, minesweeper) == (8, 8)
    assert quv_field_dims(3, 2, minesweeper) == (12, 8)
    assert quv_field_dims(3, 3, minesweeper) == (12, 12)
    identity = _bernoulli_spec()
    assert quv_field_dims(2, 2, identity) == (4, 4)
    assert quv_field_dims(3, 3, _ma_spec()) == (63, 1)
    with pytest.raises(ParameterError):
        quv_field_dims(1, 2, identity)


def test_spec_validation():
    with pytest.raises(GeometryError):
        _minesweeper_spec(cols=8, rows=20)  # fewer than three block units wide
    with pytest.raises(GeometryError):
        _bernoulli_spec(cols=2, rows=12)
    with pytest.raises(ParameterError):
        _bernoulli_spec(iterations=0)


@pytest.mark.parametrize(
    "cols, rows, transform, m2, field",
    [
        (2, 12, minesweeper_transform(), 3, "source_cols"),
        (12, 2, minesweeper_transform(), 3, "source_rows"),
        (2, 1, ma_transform((0.3, 0.1, 0.5)), 1, "source_cols"),
    ],
    ids=["minesweeper-wider", "minesweeper-taller", "ma-wider"],
)
def test_spec_rejects_a_window_larger_than_the_source(cols, rows, transform, m2, field):
    """The source side the transform's window passes is named before m1 and m2 are fitted."""
    with pytest.raises(GeometryError) as err:
        ExperimentSpec(
            source_cols=cols,
            source_rows=rows,
            m1=3,
            m2=m2,
            distribution=MarginalDistribution.gaussian(0.0, 1.0),
            transform=transform,
            thresholds=(5.0,),
        )
    assert err.value.field == field


def test_row_scan_needs_one_source_row():
    """A row scan samples one row, so a taller source would be answered for one row."""
    spec = dict(
        m1=3,
        m2=1,
        distribution=MarginalDistribution.bernoulli(0.2),
        transform=identity_transform(),
        thresholds=(2.0,),
    )
    assert ExperimentSpec(source_cols=30, source_rows=1, **spec).one_dimensional
    with pytest.raises(GeometryError) as err:
        ExperimentSpec(source_cols=30, source_rows=20, **spec)
    assert err.value.field == "source_rows"


@pytest.mark.parametrize(
    "distribution, transform, m, field",
    [
        # largest cell bound 1e18 + 9.5e9 times 8 * 2 * 2: past int64
        (MarginalDistribution.poisson(1e18), "minesweeper", 2, "mean"),
        (MarginalDistribution.binomial(2**62, 0.5), "identity", 2, "trials"),
        (MarginalDistribution.binomial(2**61, 0.5), "identity", 3, "trials"),
    ],
    ids=["poisson-minesweeper-2x2", "binomial-identity-2x2", "binomial-identity-3x3"],
)
def test_integer_window_sums_must_fit_int64(distribution, transform, m, field):
    with pytest.raises(ParameterError) as err:
        ExperimentSpec(
            source_cols=12,
            source_rows=12,
            m1=m,
            m2=m,
            distribution=distribution,
            transform=catalog_transform(transform),
            thresholds=(5.0,),
        )
    assert err.value.field == field


def test_integer_window_sums_at_the_int64_edge_are_exact():
    """The largest accepted trials give window sums that reach int64 max without wrapping."""
    trials = (2**63 - 1) // 4
    spec = ExperimentSpec(
        source_cols=12,
        source_rows=12,
        m1=2,
        m2=2,
        distribution=MarginalDistribution.binomial(trials, 1.0),
        transform=identity_transform(),
        thresholds=(2.0 * trials, 4.0 * trials),
    )
    with pytest.raises(ParameterError):
        dataclasses.replace(spec, distribution=MarginalDistribution.binomial(trials + 1, 1.0))
    # every window sums to 4 * trials; a wrapped sum would be negative
    assert [row.prob for row in simulate_distribution(spec, replicas=50)] == [0.0, 1.0]


@pytest.mark.parametrize(
    "field, value",
    [("confidence_z", 0.0), ("confidence_z", -1.0),
     ("confidence_z", math.nan), ("confidence_z", math.inf), ("confidence_z", "2"),
     # past the float range or not finite, whatever the type; a bool is no number
     pytest.param("confidence_z", -math.inf, id="confidence_z-minus-inf"),
     pytest.param("confidence_z", 10**400, id="confidence_z-huge-int"),
     pytest.param("confidence_z", Fraction(10**400), id="confidence_z-huge-fraction"),
     pytest.param("confidence_z", np.float32("inf"), id="confidence_z-float32-inf"),
     pytest.param("confidence_z", True, id="confidence_z-bool")],
)
def test_spec_rejects_bad_l_mode_and_confidence_z(field, value):
    with pytest.raises(ParameterError, match=field) as err:
        dataclasses.replace(_bernoulli_spec(), **{field: value})
    assert err.value.field == field


@pytest.mark.parametrize(
    "field, value",
    # a repeated threshold would pair the rows of two tables ambiguously
    [("thresholds", (6.0, 7.0, 6.0)), ("thresholds", (7, 7.0)), ("thresholds", (6.0, math.nan)),
     ("thresholds", (math.inf,)), ("thresholds", (-math.inf,)), ("thresholds", (10**400,)),
     ("thresholds", 5),
     pytest.param("thresholds", (Fraction(10**400),), id="thresholds-huge-fraction"),
     pytest.param("thresholds", (np.float32("inf"),), id="thresholds-float32-inf")],
)
def test_spec_rejects_bad_threads_and_thresholds(field, value):
    with pytest.raises(ParameterError, match=field) as err:
        dataclasses.replace(_bernoulli_spec(), **{field: value})
    assert err.value.field == field


@pytest.mark.parametrize(
    "value", [("7",), (None,), (True,), (6.0, False), (np.True_,), (b"7",), ([7],)],
    ids=["str", "none", "true", "false", "numpy-bool", "bytes", "list"],
)
def test_spec_rejects_thresholds_that_are_not_numbers(value):
    with pytest.raises(ParameterError, match="thresholds") as err:
        dataclasses.replace(_bernoulli_spec(), thresholds=value)
    assert err.value.field == "thresholds"


def test_spec_takes_numpy_and_fraction_thresholds():
    thresholds = (
        np.float64(6.5), np.int64(7), np.int8(8), Fraction(17, 2), np.float32(9.5), np.float16(10.5)
    )
    spec = dataclasses.replace(_bernoulli_spec(), thresholds=thresholds)
    # stored as the floats they were checked as
    assert all(type(n) is float for n in spec.thresholds)
    rows = simulate_distribution(spec, replicas=50)
    assert [row.n for row in rows] == list(spec.thresholds) == [6.5, 7.0, 8.0, 8.5, 9.5, 10.5]


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_spec_takes_numpy_floats_as_floats(dtype):
    """A float32 or float16 value is checked as the float it converts to, with no overflow warning."""
    spec = dataclasses.replace(
        _ma_spec(),
        distribution=MarginalDistribution.gaussian(dtype(0.5), dtype(2.0)),
        transform=ma_transform([dtype(0.25), dtype(0.5)]),
        thresholds=(dtype(9.0), dtype(11.5)),
        confidence_z=dtype(2.0),
    )
    values = (spec.distribution.mean, spec.distribution.variance, *spec.thresholds)
    assert [type(v) for v in (*values, spec.confidence_z)] == [float] * 5
    assert values == (0.5, 2.0, 9.0, 11.5) and spec.confidence_z == 2.0
    assert spec.transform.weights.tolist() == [[0.25, 0.5]]
    assert MarginalDistribution.bernoulli(dtype(0.25)).p == 0.25
    plain = dataclasses.replace(
        _ma_spec(),
        distribution=MarginalDistribution.gaussian(0.5, 2.0),
        transform=ma_transform([0.25, 0.5]),
        thresholds=(9.0, 11.5),
        confidence_z=2.0,
    )
    assert estimate_quv(spec) == estimate_quv(plain)


@pytest.mark.parametrize("field", ["source_cols", "source_rows", "m1", "m2", "iterations", "seed"])
@pytest.mark.parametrize(
    "value", [12.0, 2000.5, True, "12"], ids=["float", "fraction", "bool", "str"]
)
def test_spec_rejects_sizes_and_seeds_that_are_not_integers(field, value):
    """Checked before any size arithmetic, so NumPy never sees a float or bool size."""
    with pytest.raises(ParameterError, match=field) as err:
        dataclasses.replace(_bernoulli_spec(), **{field: value})
    assert err.value.field == field


def test_spec_takes_numpy_integer_sizes_as_ints():
    spec = _bernoulli_spec(cols=np.int64(12), iterations=np.int32(50), seed=np.int64(-1))
    assert type(spec.source_cols) is type(spec.iterations) is type(spec.seed) is int
    assert estimate_quv(spec) == estimate_quv(_bernoulli_spec(iterations=50, seed=-1))
    # a uint64 seed past int64 is the int it holds
    spec = _bernoulli_spec(iterations=50, seed=np.uint64(2**63))
    assert type(spec.seed) is int and spec.seed == 2**63
    assert estimate_quv(spec) == estimate_quv(_bernoulli_spec(iterations=50, seed=2**63))


@pytest.mark.parametrize("field", ["replicas", "threads"])
@pytest.mark.parametrize("value", [2.0, 2.5, True], ids=["float", "fraction", "bool"])
def test_simulate_rejects_counts_that_are_not_integers(field, value):
    with pytest.raises(ParameterError, match=field) as err:
        simulate_distribution(_bernoulli_spec(), **{"replicas": 50, field: value})
    assert err.value.field == field


@pytest.mark.parametrize("count", [np.int64(2**62), np.uint64(2**63)], ids=["int64", "uint64"])
@pytest.mark.parametrize("task, field", [("quv", "iterations"), ("sim", "replicas")])
def test_a_numpy_integer_count_past_the_cell_limit_is_rejected(task, field, count):
    """The count is made an int first: in int64 the cell count would wrap below the limit."""
    spec = _bernoulli_spec()
    # the layout first: if it let the count by, the run below would not end
    with pytest.raises(ParameterError, match=f"^{field} = {int(count)} draws ") as err:
        pipeline.chunk_layout(spec, task, count)
    assert err.value.field == field
    with pytest.raises(ParameterError, match=f"^{field} = {int(count)} draws ") as err:
        if task == "sim":
            simulate_distribution(spec, replicas=count)
        else:
            dataclasses.replace(spec, iterations=count)  # the spec lays out its quv call
    assert err.value.field == field


def test_spec_rejects_a_window_side_below_one():
    for side in ("m1", "m2"):
        for value in (0, -3):
            with pytest.raises(GeometryError) as err:
                dataclasses.replace(_bernoulli_spec(), **{side: value})
            assert err.value.field == side


def test_a_threads_argument_below_one_is_rejected():
    spec = _bernoulli_spec(iterations=50)
    for threads in (0, -1):
        with pytest.raises(ParameterError, match="threads"):
            approximate(spec, threads=threads)
        with pytest.raises(ParameterError, match="threads"):
            simulate_distribution(spec, replicas=50, threads=threads)


# --- Monte Carlo estimates --------------------------------------------------


def test_estimates_are_probabilities_and_nested():
    records = estimate_quv(_minesweeper_spec())
    assert len(records) == 2
    for rec in records:
        for q in (rec.q22, rec.q23, rec.q32, rec.q33):
            assert 0.0 <= q <= 1.0
        # larger rectangles can only lower the CDF; maxima are truly nested here
        assert rec.q33 <= rec.q23 + 1e-12 and rec.q33 <= rec.q32 + 1e-12
        assert rec.q23 <= rec.q22 + 1e-12 and rec.q32 <= rec.q22 + 1e-12


def test_trivial_thresholds():
    # identity Bernoulli windows sum to at most 9, and to at least 0
    spec = _bernoulli_spec(thresholds=(9, -1), iterations=500)
    records = estimate_quv(spec)
    top = records[0]
    assert (top.q22, top.q33) == (1.0, 1.0) and top.b22 == 0.0
    row = two_step_approximation(top, 5, 5)
    assert row.approx == 1.0 and row.e_total == 0.0 and row.valid
    bottom = two_step_approximation(records[1], 5, 5)
    assert bottom.approx == 0.0 and not bottom.valid
    assert math.isnan(bottom.e_total)


def test_empty_thresholds_give_empty_tables():
    spec = _bernoulli_spec(thresholds=())
    assert estimate_quv(spec) == []
    assert approximate(spec) == []
    assert simulate_distribution(spec, replicas=10) == []


def test_estimation_deterministic_across_thread_counts():
    spec = _minesweeper_spec()
    assert estimate_quv(spec, threads=1) == estimate_quv(spec, threads=4)
    assert simulate_distribution(spec, replicas=3000, threads=1) == simulate_distribution(
        spec, replicas=3000, threads=4
    )


def test_tallies_pin_the_stream_partition():
    # Exact replica counts at a fixed seed: they move only if the chunk
    # partition, the per-chunk streams (SFC64 whose words are the BLAKE2b
    # digest of (seed, stream)), the way a chunk's Bernoulli cells are drawn
    # from its stream (one byte per cell, then extra successes at gaps from
    # NumPy's geometric draw), which field each drawn cell belongs to (cells
    # in (row, col, field) order), the cell order of each view of a field
    # (the stable argsort of the raw words of its own stream), or the
    # per-replica sample -> block factor -> window sums -> maxima pipeline
    # changes.
    spec = ExperimentSpec(
        source_cols=12,
        source_rows=12,
        m1=3,
        m2=3,
        distribution=MarginalDistribution.bernoulli(0.3),
        transform=catalog_transform("minesweeper"),
        thresholds=(22.0, 26.0, 30.0),
        # 5000 drawn fields of four views: two chunks of a 12 x 12 bool field, the last one partial
        iterations=20_000,
        seed=2014,
    )
    counts = [
        [round(getattr(rec, q) * rec.iterations) for q in ("q22", "q23", "q32", "q33")]
        for rec in estimate_quv(spec)
    ]
    assert counts == [[2138, 448, 422, 32], [5559, 2227, 2125, 416], [10327, 6336, 6198, 2637]]
    sims = simulate_distribution(spec, replicas=10_000)
    assert [round(row.prob * row.replicas) for row in sims] == [18, 241, 1325]


# --- assembly and the error ledger -----------------------------------------


def _record(**kwargs):
    base = dict(
        n=5.0, q22=0.99, q23=0.985, q32=0.989, q33=0.984,
        b22=1e-4, b23=1e-4, b32=1e-4, b33=1e-4, iterations=100_000,
    )
    base.update(kwargs)
    return EstimateRecord(**base)


def test_two_step_ledger_identity():
    row = two_step_approximation(_record(), 10, 10)
    assert row.valid and not row.clamped
    assert row.e_total == row.e_app + row.e_sf + row.e_sapp
    assert row.e_sapp >= row.e_app  # simulation-through-bound dominates the plain bound
    # alpha1 = 1 - H(q23, q33, L1)
    assert row.alpha1 == 1.0 - approximant_H_with_flag(0.985, 0.984, 10)[0]
    assert row.alpha2 == pytest.approx(1.0 - 0.985)
    assert row.t2_1 is not None and row.t2_2 is not None


def test_two_step_invalid_when_alpha_large():
    row = two_step_approximation(
        _record(q22=0.9, q23=0.8, q32=0.85, q33=0.75), 10, 10
    )
    assert not row.valid
    assert math.isnan(row.e_app) and math.isnan(row.e_total)
    assert 0.0 <= row.approx <= 1.0  # point value still reported


def test_two_step_rejects_gross_nesting_violation():
    with pytest.raises(OrderingError):
        two_step_approximation(_record(q33=0.999, q23=0.5), 10, 10)


def test_one_step_ledger():
    rec = _record(q22=0.99, q32=0.985)
    row = one_step_approximation(rec, 46)
    assert row.valid
    assert row.e_app > 0 and row.e_sapp >= row.e_app
    assert row.e_sf == 46 * (rec.b22 + rec.b32)
    assert row.e_total == row.e_app + row.e_sf + row.e_sapp
    with pytest.raises(OrderingError):
        one_step_approximation(_record(q22=0.9, q32=0.99), 46)


def test_slack_errors_name_the_nested_pair():
    with pytest.raises(OrderingError, match="q32 <= q22"):
        one_step_approximation(_record(q22=0.9, q32=0.99), 46)
    with pytest.raises(OrderingError, match="q33 <= q23"):
        two_step_approximation(_record(q33=0.999, q23=0.5), 10, 10)


def test_a_ledger_term_past_the_float_range_is_inf():
    """``**`` raises past the float range where ``*`` gives inf: the ledger reads inf instead."""
    rec = _record(q22=0.999, q23=0.95, q32=0.95, q33=0.95)
    for side in (10**110, 10**170):
        row = two_step_approximation(rec, side, side)
        assert row.valid and row.e_app == row.e_total == math.inf
    row = one_step_approximation(_record(b22=1e200), 10)
    assert row.valid and row.e_sapp == row.e_total == math.inf
    # half-widths of z = 1e150 through the whole 2-D path
    spec = dataclasses.replace(
        _minesweeper_spec(cols=44, rows=44, thresholds=(31, 32, 33), iterations=4000),
        distribution=MarginalDistribution.bernoulli(0.1),
        confidence_z=1e150,
    )
    rows = approximate(spec)
    assert any(row.valid and row.e_sapp == row.e_total == math.inf for row in rows)


def test_monte_carlo_noise_clamps_to_consistency():
    # q32 a hair above q22 is within slack: clamped, not an error
    row = one_step_approximation(_record(q22=0.99, q32=0.9901), 10)
    assert row.clamped and row.alpha1 == 1.0 - 0.99


def test_a_zero_half_width_flags_the_row():
    # b33 = 0 is a q33 estimate of exactly 0 or 1: e_sf takes no error for it
    assert not two_step_approximation(_record(), 10, 10).beta0
    row = two_step_approximation(_record(b33=0.0), 10, 10)
    assert row.valid and row.beta0
    assert one_step_approximation(_record(b32=0.0), 10).beta0
    # the one-step e_sf reads b22 and b32 only; an invalid row has no e_sf to flag
    assert not one_step_approximation(_record(b33=0.0), 10).beta0
    invalid = two_step_approximation(_record(q22=0.9, q23=0.8, q32=0.85, q33=0.75, b33=0.0), 10, 10)
    assert not invalid.valid and not invalid.beta0


def test_a_bracket_flags_a_zero_half_width_of_any_level(monkeypatch):
    rec = _record(n=7.0, b33=0.0)
    monkeypatch.setattr(pipeline, "estimate_quv", lambda spec, threads=None: [rec])
    [row] = approximate(_bernoulli_spec(cols=13, thresholds=(7,)))
    assert row.bracket_low is not None and row.valid and row.beta0


# --- full pipeline ----------------------------------------------------------


def test_exact_multiple_uses_direct_assembly():
    spec = _bernoulli_spec()
    records = estimate_quv(spec)
    rows = approximate(spec)
    expected = [two_step_approximation(rec, 5, 5) for rec in records]
    assert [r.approx for r in rows] == [e.approx for e in expected]
    assert all(r.bracket_low is None for r in rows)


def test_interpolated_rows_are_convex_combinations():
    spec = _bernoulli_spec(cols=13, thresholds=(7, 8), iterations=6000)
    rows = approximate(spec)
    for row in rows:
        assert row.bracket_low is not None
        assert row.bracket_low - 1e-12 <= row.approx <= row.bracket_high + 1e-12
        if row.valid:
            assert row.e_total == row.e_app + row.e_sf + row.e_sapp
            assert row.e_app >= row.bracket_high - row.bracket_low


def test_bracket_straddling_validity_has_a_nan_ledger(monkeypatch):
    # 13 columns of block width 2 lie between 5 and 6 block columns; this
    # record is valid at 5 and invalid at 6, so the bracketed row is invalid
    # and must not carry the ledger of its valid level
    rec = _record(n=7.0, q22=0.99, q23=0.95, q32=0.985, q33=0.938)
    low, high = two_step_approximation(rec, 5, 5), two_step_approximation(rec, 6, 5)
    assert low.valid and not high.valid
    monkeypatch.setattr(pipeline, "estimate_quv", lambda spec, threads=None: [rec])
    [row] = approximate(_bernoulli_spec(cols=13, thresholds=(7,)))
    assert not row.valid
    assert all(math.isnan(e) for e in (row.e_app, row.e_sf, row.e_sapp, row.e_total))
    assert row.bracket_low == min(low.approx, high.approx)
    assert row.bracket_high == max(low.approx, high.approx)


def test_interpolation_bracketed_by_direct_simulation():
    """The interpolant at a non-multiple size sits inside its own error band
    of a direct simulation at that size, and the simulated CDF is monotone
    decreasing in the lattice size."""
    thresholds = (7.0,)
    reps = 30_000
    sims = {}
    for cols in (12, 13, 14):
        spec = _bernoulli_spec(cols=cols, thresholds=thresholds, iterations=50_000, seed=29)
        sims[cols] = simulate_distribution(spec, replicas=reps)[0]
    slack = 4 * max(s.half_width for s in sims.values())
    assert sims[14].prob <= sims[13].prob + slack
    assert sims[13].prob <= sims[12].prob + slack
    spec13 = _bernoulli_spec(cols=13, thresholds=thresholds, iterations=50_000, seed=29)
    row = approximate(spec13)[0]
    assert row.valid
    assert abs(row.approx - sims[13].prob) <= row.e_total + 2 * sims[13].half_width


def test_simulation_degenerate_distribution():
    spec = _bernoulli_spec(thresholds=(0,), p=0.0, iterations=100)
    sim = simulate_distribution(spec, replicas=50)[0]
    assert sim.prob == 1.0 and sim.half_width == 0.0
    with pytest.raises(ParameterError):
        simulate_distribution(spec, replicas=0)


def test_one_dimensional_path():
    spec = ExperimentSpec(
        source_cols=66,
        source_rows=1,
        m1=20,
        m2=1,
        distribution=MarginalDistribution.gaussian(0.0, 1.0),
        transform=ma_transform((0.3, 0.1, 0.5)),
        thresholds=(10.0, 14.0),
        iterations=3000,
        seed=13,
    )
    assert spec.one_dimensional and spec.block1 == 21
    records = estimate_quv(spec)
    # the v-extent collapses: row records carry the same maxima for v=2 and 3
    for rec in records:
        assert rec.q23 == rec.q22 and rec.q33 == rec.q32
    rows = approximate(spec)
    assert len(rows) == 2
    for row in rows:
        if row.valid:
            assert row.e_total == row.e_app + row.e_sf + row.e_sapp


# --- moving-average closed-form moments -------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class MATheory:
    """Closed-form moments of the moving sums of a moving-average sequence."""

    coeffs: np.ndarray
    window: int
    mean_source: float
    variance_source: float
    b: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.b.sum() * self.mean_source)

    @property
    def variance(self) -> float:
        return float((self.b**2).sum() * self.variance_source)

    @property
    def max_lag(self) -> int:
        # covariance support: lags 0 .. window + order - 1
        return self.b.size - 1

    def covariance(self, lag: int) -> float:
        lag = abs(int(lag))
        if lag > self.max_lag:
            return 0.0
        return float((self.b[: self.b.size - lag] * self.b[lag:]).sum() * self.variance_source)


def ma_theory(coeffs, m1: int, mean: float = 0.0, variance: float = 1.0) -> MATheory:
    """Moments of width-m1 moving sums over the order-q moving average.

    The aggregated coefficients come from the general convolution
    ``b_k = sum(a_j, j in [max(1, k-m1+1), min(k, q+1)])`` for k = 1..m1+q.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ParameterError("coefficients must be a non-empty vector")
    q = a.size - 1
    if m1 < q:
        raise HypothesisError(f"window m1={m1} must be >= moving-average order q={q}")
    b = np.array(
        [a[max(0, k - m1) : min(k, q + 1)].sum() for k in range(1, m1 + q + 1)]
    )
    return MATheory(coeffs=a, window=m1, mean_source=mean, variance_source=variance, b=b)


def test_ma_theory_aggregated_coefficients():
    th = ma_theory((0.3, 0.1, 0.5), 20)
    assert th.b.size == 22
    assert th.b[:4] == pytest.approx([0.3, 0.4, 0.9, 0.9])
    assert th.b[20] == pytest.approx(0.6) and th.b[21] == pytest.approx(0.5)
    assert th.variance == pytest.approx(15.44)
    assert th.mean == 0.0


def test_ma_theory_covariance_structure():
    th = ma_theory((0.3, 0.1, 0.5), 20, variance=2.0)
    assert th.max_lag == 21
    assert th.covariance(0) == pytest.approx(th.variance)
    assert th.covariance(21) == pytest.approx(0.3 * 0.5 * 2.0)
    assert th.covariance(22) == 0.0
    assert th.covariance(-3) == th.covariance(3)


def test_ma_theory_window_hypothesis():
    with pytest.raises(HypothesisError):
        ma_theory((0.1, 0.2, 0.3, 0.4), 2)
    with pytest.raises(ParameterError):
        ma_theory((), 5)


def _usable_cpus(monkeypatch, n):
    """Let ``_worker_count`` see ``n`` CPUs, whatever this process may really run on."""
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class SerialPool:
    """A ``ThreadPoolExecutor`` stand-in that starts no thread and runs the tasks in order.

    Patched into ``concurrent.futures``, where ``_accumulate`` imports the pool
    from when it starts one.
    """

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _unset_threads_workers(monkeypatch):
    """The workers ``estimate_quv`` starts over 7 chunks when ``threads`` is not given."""
    started, count = [], pipeline._worker_count

    def counting(threads, n_chunks):
        started.append((threads, n_chunks, count(threads, n_chunks)))
        return started[-1][-1]

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_chunk_size", lambda replica_bytes: 73)
        patch.setattr(pipeline, "_worker_count", counting)
        estimate_quv(_minesweeper_spec(iterations=2000))
    # ``_tally`` resolves the unset count to 1 before it reaches ``_worker_count``
    [(threads, n_chunks, workers)] = started
    assert threads == 1 and n_chunks == 7
    return workers


def test_thread_pool_is_capped_at_the_chunk_count(monkeypatch):
    """A huge thread request starts one worker per chunk; the pool is never started."""
    _usable_cpus(monkeypatch, 64)
    assert pipeline._worker_count(10**9, 13) == 13
    assert pipeline._worker_count(2, 13) == 2
    assert _unset_threads_workers(monkeypatch) == 1
    assert pipeline._worker_count(8, 1) == 1
    monkeypatch.setattr(SerialPool, "requested", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    total = pipeline._accumulate(10, 4, 1, "cap", lambda state, rng, count: count, 10**9)
    assert total == 10 and SerialPool.requested == [3]


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_worker_count_is_capped_at_the_usable_cpus(affinity, monkeypatch):
    """``threads`` is at most that many workers: one per CPU the process may run on, no more.

    ``--threads 100000`` on the 1.1e8-iteration ``quv-sparse`` run, about
    30k chunks, would otherwise start 30k threads of one block each.
    """
    if affinity:
        _usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 3)
    assert pipeline._worker_count(100_000, 30_000) == 3
    assert pipeline._worker_count(2, 30_000) == 2
    assert pipeline._worker_count(100_000, 2) == 2
    assert _unset_threads_workers(monkeypatch) == 1
    if not affinity:
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)  # unknown: one worker
        assert pipeline._worker_count(100_000, 30_000) == 1


@pytest.mark.parametrize(
    "total, chunk, threads",
    [(10, 1, 3), (23, 4, 2), (23, 4, 3), (23, 4, 6), (5, 7, 3), (9, 2, 5)],
)
def test_each_worker_runs_one_contiguous_range_of_chunks(total, chunk, threads, monkeypatch):
    """Every chunk runs once, in order; ranges differ by at most one chunk; the short chunk is last."""
    _usable_cpus(monkeypatch, 8)
    monkeypatch.setattr(SerialPool, "requested", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    seed, task, n = 1, "ranges", -(-total // chunk)
    # chunk k is known by the first draw of its stream
    index = {
        int(SeedSpec.for_chunk(seed, task, k).generator().integers(1 << 62)): k
        for k in range(n)
    }
    ranges = []

    def chunk_eval(state, rng, count):
        if not state:
            ranges.append(state.setdefault("chunks", []))
        state["chunks"].append((index[int(rng.integers(1 << 62))], count))
        return count

    assert pipeline._accumulate(total, chunk, seed, task, chunk_eval, threads) == total
    assert len(ranges) == min(threads, n) and SerialPool.requested in ([], [len(ranges)])
    assert [k for chunks in ranges for k, _ in chunks] == list(range(n))
    assert max(map(len, ranges)) - min(map(len, ranges)) <= 1
    counts = [count for chunks in ranges for _, count in chunks]
    assert counts == [chunk] * (n - 1) + [total - (n - 1) * chunk]
    assert ranges[-1][-1] == (n - 1, total - (n - 1) * chunk)


def test_tallies_are_identical_at_one_two_and_three_workers(monkeypatch):
    """7 quv chunks and 5 simulation chunks, no multiple of 2 or 3, each with a short last chunk.

    500 and 313 drawn fields of four views, 73 to a chunk; the simulation's
    1250 replicas round up to the 1252 of its 313 fields.
    """
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "_chunk_size", lambda replica_bytes: 73)
    started, count = [], pipeline._worker_count

    def counting(threads, n_chunks):
        started.append(count(threads, n_chunks))
        return started[-1]

    monkeypatch.setattr(pipeline, "_worker_count", counting)
    spec = _minesweeper_spec(iterations=2000)
    tallies = {}
    for threads in (1, 2, 3):
        tallies[threads] = (
            estimate_quv(spec, threads=threads),
            simulate_distribution(spec, replicas=1250, threads=threads),
        )
    assert started == [1, 1, 2, 2, 3, 3]
    assert tallies[2] == tallies[1] and tallies[3] == tallies[1]


def test_chunk_size_keeps_512_kib_of_source():
    """512 KiB of source fields per chunk, at most 8192 replicas and at least one."""
    assert pipeline._chunk_size(12 * 12) == 3640  # a 12 x 12 bool Q_uv field
    assert pipeline._chunk_size(63 * 8) == 1040  # a 63-cell float64 MA Q_uv field
    assert pipeline._chunk_size(44 * 44) == 270  # a 44 x 44 bool lattice
    assert pipeline._chunk_size(64) == pipeline._chunk_size(1) == pipeline._chunk_size(0) == 8192
    assert pipeline._chunk_size(512 * 1024) == pipeline._chunk_size(200_000 * 8) == 1


def _chunks_and_dtypes(spec, monkeypatch):
    """The chunk of every tally, and the block-factor dtypes, of ``estimate_quv`` and a simulation."""
    chunks, accumulate = [], pipeline._accumulate

    def recording(total, chunk, *args):
        chunks.append(chunk)
        return accumulate(total, chunk, *args)

    seen = _sum_dtypes(monkeypatch)
    monkeypatch.setattr(pipeline, "_accumulate", recording)
    estimate_quv(spec, threads=1)
    simulate_distribution(spec, replicas=300, threads=1)
    monkeypatch.undo()
    return chunks, seen["blockfactor"]


@pytest.mark.parametrize(
    "distribution, chunks",
    [
        # drawn fields per chunk: 3640 12 x 12 Q_uv fields and 1310 20 x 20
        # lattices of bool, then 455 and 163 of int64
        (MarginalDistribution.bernoulli(0.5), [3640, 1310]),
        (MarginalDistribution.binomial(16, 0.5), [455, 163]),
    ],
    ids=["bernoulli", "binomial"],
)
def test_a_kernel_dtype_never_moves_the_chunk_partition(distribution, chunks, monkeypatch):
    """Identity and minesweeper over fields of one size and marginal get the same chunks."""
    minesweeper = dataclasses.replace(_minesweeper_spec(), distribution=distribution)
    # 5 x 5 windows make the identity's Q_uv field 12 x 12 too
    identity = dataclasses.replace(
        minesweeper, source_cols=20, source_rows=20, m1=5, m2=5,
        transform=identity_transform(),
    )
    assert quv_field_dims(3, 3, identity) == (12, 12)
    ident_chunks, ident_dtypes = _chunks_and_dtypes(identity, monkeypatch)
    mine_chunks, mine_dtypes = _chunks_and_dtypes(minesweeper, monkeypatch)
    assert ident_chunks == mine_chunks == chunks
    if distribution.kind == "binomial":  # int64 cells, so int64 block factors
        assert ident_dtypes == mine_dtypes == {np.dtype(np.int64)}


def _ma_spec():
    return ExperimentSpec(
        source_cols=66,
        source_rows=1,
        m1=20,
        m2=1,
        distribution=MarginalDistribution.gaussian(0.0, 1.0),
        transform=ma_transform((0.3, 0.1, 0.5)),
        thresholds=(9.0, 11.0, 13.0, 15.0),
        iterations=9000,
        seed=13,
    )


@pytest.mark.parametrize("shape", ["quv-2d", "quv-1d", "quv-2d-gaussian", "simulate"])
def test_tile_maxima_count_like_per_extent_maxima(shape, monkeypatch):
    """Tallies from shared tile extrema equal ``sums[:, :v, :u].max(axis=(1, 2))`` per extent.

    The oracle draws every chunk again from its stream, permutes each field
    into its views (``oracles.view_orders``) and takes each view's window
    sums with fresh buffers.  Over Gaussian cells (``quv-1d``,
    ``quv-2d-gaussian``) it pairs field ``i`` of a chunk of ``h`` pairs with
    field ``i + h`` and scores each view of a pair as its rotations and
    their mirrors (``oracles.view_replicas``).  It groups the replicas as
    ``fields.STREAM_MAP`` states, and recounts ``sum s`` and ``sum s**2``;
    a request of 20001 replicas tallies every replica of its last group,
    20004 of them, or 20032 over Gaussian pairs.
    """
    drawn, sample = [], MarginalDistribution.sample
    total = 20_001

    def recording(self, rng, size, **kwargs):
        out = sample(self, rng, size, **kwargs)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(MarginalDistribution, "sample", recording)
    if shape == "simulate":
        spec = _minesweeper_spec(cols=14, rows=13, thresholds=range(40, 64, 3))
        rows = simulate_distribution(spec, replicas=total, threads=1)
        tallied = {row.replicas for row in rows}
        tallies = [
            [[round(row.prob * row.replicas) for row in rows]], [[row.squares for row in rows]]
        ]
        task = "sim"
        derived_rows, derived_cols = spec.transform.derived_shape(spec.source_rows, spec.source_cols)
        extents = [(derived_rows - spec.m2 + 1, derived_cols - spec.m1 + 1)]
    else:
        if shape == "quv-2d":
            spec = _minesweeper_spec(thresholds=range(34, 58, 3), iterations=total)
        elif shape == "quv-2d-gaussian":
            spec = dataclasses.replace(
                _minesweeper_spec(thresholds=range(30, 66, 5), iterations=total),
                distribution=MarginalDistribution.gaussian(0.3, 1.0),
            )
        else:
            spec = dataclasses.replace(_ma_spec(), iterations=total)
        records = estimate_quv(spec, threads=1)
        tallied = {rec.iterations for rec in records}
        tallies = [
            [
                [round(getattr(rec, f"q{uv}") * rec.iterations) for rec in records]
                for uv in ("22", "23", "32", "33")
            ],
            [[rec.squares[e] for rec in records] for e in range(4)],
        ]
        rows_per_block = 1 if spec.one_dimensional else spec.block2
        extents = [((v - 1) * rows_per_block, (u - 1) * spec.block1) for u, v in pipeline._UV_PAIRS]
        task = "quv"
    monkeypatch.undo()
    cols, rows = pipeline._field_dims(spec, task)
    orders = view_orders(spec.seed, task, rows * cols, 4)
    thr = np.array(spec.thresholds)
    paired, ck = spec.mirrored, None
    if paired:
        ck = spec.distribution.centre * spec.transform.weights.sum().item() * spec.m1 * spec.m2
    # (sum s or sum s**2, extent, threshold)
    expected = np.zeros((2, len(extents), thr.size), dtype=np.int64)
    for k, size in enumerate(drawn):
        rng = SeedSpec.for_chunk(spec.seed, task, k).generator()
        block = spec.distribution.sample(rng, size)
        flat = block.reshape(rows * cols, -1)
        passed = []
        for view in [block] + [flat[order].reshape(size) for order in orders]:
            sums = pipeline.window_sums_batch(
                np.moveaxis(view, -1, 0), spec.transform, spec.m1, spec.m2
            )
            passed += view_replicas(sums, extents, thr, ck, paired)
        expected += np.array(group_tallies(grouped_replicas(passed), len(passed)))
    # one draw per chunk: of groups of one field, four replicas each, or of
    # pairs of Gaussian fields, 32 each; full chunks, then the rest
    chunk = {"quv-2d": 3640, "quv-1d": 1040, "quv-2d-gaussian": 454, "simulate": 2880}[shape]
    group, pair = (32, 2) if paired else (4, 1)
    groups = -(-total // group)
    assert drawn == [(rows, cols, n) for n in (
        [chunk] * (pair * groups // chunk) + [pair * groups % chunk]
    )]
    assert len(drawn) >= 2
    assert tallied == {group * groups} == {20_032 if paired else 20_004}
    # at least three thresholds per extent split the replicas
    assert np.all(((expected[0] > 0) & (expected[0] < group * groups)).sum(axis=1) >= 3)
    assert np.array_equal(np.array(tallies), expected)


def test_integer_maxima_meet_any_threshold_like_a_float_compare():
    """int8 maxima compare with ``floor(n)`` clipped to int8, and count as a float compare
    would: at fractional thresholds and past both ends of int8."""
    thresholds = (-1e300, -129.0, -128.0, -0.5, 0.0, 45.5, 50.0, 50.99, 72.0, 127.5, 128.0, 1e300)
    spec = dataclasses.replace(_minesweeper_spec(iterations=2000), thresholds=thresholds)
    tallies = [round(rec.q33 * rec.iterations) for rec in estimate_quv(spec)]
    # 2000 replicas are four views of 500 fields, one chunk, drawn from stream 0
    cols, rows = pipeline._field_dims(spec, "quv")
    rng = SeedSpec.for_chunk(spec.seed, "quv", 0).generator()
    block = spec.distribution.sample(rng, (rows * cols, 500))
    views = [block] + [block[order] for order in view_orders(spec.seed, "quv", rows * cols, 4)]
    stack = np.concatenate([view.T.reshape(500, rows, cols) for view in views])
    # the pipeline's sums of bool cells: int8, whose ends the outer thresholds pass
    sums = pipeline.window_sums_batch(stack, spec.transform, spec.m1, spec.m2)
    maxima = sums[:, : 2 * spec.block2, : 2 * spec.block1].max(axis=(1, 2))
    assert maxima.dtype == np.int8
    expected = [int(np.sum(maxima.astype(np.float64) <= n)) for n in thresholds]
    assert tallies == expected
    assert expected[:5] == [0] * 5 and expected[-4:] == [2000] * 4
    assert 0 < expected[5] < expected[6] == expected[7] < 2000


def _sum_dtypes(monkeypatch):
    """Record the dtype of every block factor and window sum the pipeline computes.

    The block factor's is that of the same kernel call with a 1x1 window.
    """
    seen = {"blockfactor": set(), "sums": set()}
    fn = pipeline.window_sums_batch

    def recording(source, transform, m1, m2, **kwargs):
        seen["blockfactor"].add(fn(source, transform, 1, 1).dtype)
        out = fn(source, transform, m1, m2, **kwargs)
        seen["sums"].add(out.dtype)
        return out

    monkeypatch.setattr(pipeline, "window_sums_batch", recording)
    return seen


@pytest.mark.parametrize(
    "distribution, top, derived, sums",
    [
        # 8 neighbours of 1, 3 x 3 windows: 72 fits int8, as a bool bounds a cell by 1
        (MarginalDistribution.bernoulli(1.0), 72, np.int8, np.int8),
        # 15 trials: values up to 120 and sums up to 1080; 16 trials: 128 and
        # 1152; cells held in int64 sum in int64
        (MarginalDistribution.binomial(15, 1.0), 1080, np.int64, np.int64),
        (MarginalDistribution.binomial(16, 1.0), 1152, np.int64, np.int64),
    ],
    ids=["bernoulli", "binomial-15", "binomial-16"],
)
def test_window_sums_are_sized_by_the_exact_cell_bound(
    distribution, top, derived, sums, monkeypatch
):
    """A source at its cell bound everywhere sums to the bound exactly, in its dtype's sums."""
    seen = _sum_dtypes(monkeypatch)
    spec = dataclasses.replace(
        _minesweeper_spec(cols=14, rows=14), distribution=distribution,
        thresholds=(top - 1.0, float(top)),
    )
    # 8 neighbours per value, 9 values per window
    assert distribution.cell_bound * 8 * spec.m1 * spec.m2 == top
    assert [row.prob for row in simulate_distribution(spec, replicas=300)] == [0.0, 1.0]
    assert [(rec.q22, rec.q33) for rec in estimate_quv(spec)] == [(0.0, 0.0), (1.0, 1.0)]
    assert seen == {"blockfactor": {np.dtype(derived)}, "sums": {np.dtype(sums)}}


def test_poisson_sums_keep_the_dtype_bound(monkeypatch):
    """Poisson cells are held in int64, so their block factors and sums are int64."""
    seen = _sum_dtypes(monkeypatch)
    spec = dataclasses.replace(
        _minesweeper_spec(cols=14, rows=14), distribution=MarginalDistribution.poisson(0.01)
    )
    simulate_distribution(spec, replicas=300)
    estimate_quv(spec)
    assert seen == {"blockfactor": {np.dtype(np.int64)}, "sums": {np.dtype(np.int64)}}


# --- per-worker chunk buffers ------------------------------------------------


def _owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


_KERNELS = {"window_sums_batch": "sums", "tile_maxima": "scan.tiles"}
# the slots the draw and the passes write, as the pipeline and the kernels name them
_SLOTS = ("drawn", "source", "blockfactor", "below", "passes")


def test_a_worker_writes_every_chunk_into_the_same_buffers(monkeypatch):
    """Every chunk is drawn into, and its recorded passes write over, the memory of the first one."""
    results, sample, take = {}, MarginalDistribution.sample, pipeline.Buffers.take

    def drawing(self, rng, size, **kwargs):
        out = sample(self, rng, size, **kwargs)
        results.setdefault("sampled", []).append(out)
        return out

    def taking(self, name, size, dtype):
        out = take(self, name, size, dtype)
        if name in _SLOTS:
            results.setdefault(name, []).append(out)
        return out

    monkeypatch.setattr(MarginalDistribution, "sample", drawing)
    monkeypatch.setattr(pipeline.Buffers, "take", taking)
    for name, layer in _KERNELS.items():

        def recording(*args, fn=getattr(pipeline, name), layer=layer, **kwargs):
            out = fn(*args, **kwargs)
            results.setdefault(layer, []).append(out)
            return out

        monkeypatch.setattr(pipeline, name, recording)
    estimate_quv(_minesweeper_spec(iterations=4 * 12_720), threads=1)
    monkeypatch.undo()
    # one draw per chunk, the drawn block (rows, cols, fields)
    sizes = [3640] * 3 + [1800]
    assert [out.shape[-1] for out in results["sampled"]] == sizes
    # the kernels run only while a plan records, for views 0 and 1 (views 2
    # and 3 run view 1's passes again), each result fields-first: once at a
    # full chunk on fresh arrays to lay out the block, then on the worker's
    # block for the full chunks and for the last
    recordings = (3640, 3640, 1800)
    for layer in ("sums", "scan.tiles"):
        assert [len(out) for out in results[layer]] == [n for n in recordings for _ in range(2)]
    # view 1's score compares into one flat bool per extent (4), threshold
    # (2) and field, whose slot then holds the squared counts; the counts
    # are one such uint8
    assert [out.size // 8 for out in results["below"]] == [n for n in recordings for _ in range(2)]
    assert [out.size // 8 for out in results["passes"]] == list(recordings)
    # per recording: the drawn block once; the source once for the views and
    # once per recorded view by its row pass; the block factor twice per
    # recorded view, by its shifted adds and by its column pass
    assert [len(results[name]) for name in _SLOTS] == [3, 9, 12, 6, 3]
    source = results.pop("source")
    results["views"] = source[0::3]
    results["rows"] = [out for k, out in enumerate(source) if k % 3]
    for layer, arrays in results.items():
        if layer != "sampled":
            del arrays[: len(arrays) // 3]
    first = {layer: arrays[0] for layer, arrays in results.items()}
    for arrays in results.values():
        assert all(np.shares_memory(arrays[0], later) for later in arrays[1:])
    # one block holds them all; the draw lies in the drawn slot, the row
    # passes over the views, which the shifted adds have read, and the
    # window sums over the block factor, read by then; no other two overlap
    assert len({id(_owner(a)) for arrays in results.values() for a in arrays}) == 1
    overlapping = {
        frozenset((a, b)) for a in first for b in first
        if a != b and np.shares_memory(first[a], first[b])
    }
    assert overlapping == {
        frozenset(("blockfactor", "sums")), frozenset(("rows", "views")),
        frozenset(("drawn", "sampled")),
    }


def test_a_worker_records_one_chunk_plan_per_chunk_shape(monkeypatch):
    """Five full chunks and a partial one on one worker record two chunk plans, each with every kernel.

    Each plan calls the kernels for views 0 and 1 only: views 2 and 3 run
    view 1's recorded passes again, after their own take.
    """
    recorded, runs, run_passes = [], [], pipeline.run_passes
    for name in _KERNELS:

        def recording(source, *args, fn=getattr(pipeline, name), name=name, **kwargs):
            ops = kwargs["ops"]
            before = len(ops)
            out = fn(source, *args, **kwargs)
            recorded.append((name, len(source), ops))
            assert len(ops) > before
            return out

        monkeypatch.setattr(pipeline, name, recording)
    monkeypatch.setattr(pipeline, "run_passes", lambda ops: runs.append(ops) or run_passes(ops))
    # 20000 drawn fields of four views
    estimate_quv(_minesweeper_spec(iterations=80_000), threads=1)
    # one recording lays out the block, then one per chunk shape, each with
    # every kernel once for view 0 and once for view 1
    assert [(name, count) for name, count, _ in recorded] == [
        (name, count) for count in (3640, 3640, 1800) for _ in range(2) for name in _KERNELS
    ]
    k = 2 * len(_KERNELS)
    for plan in range(3):
        assert all(ops is recorded[k * plan][2] for _, _, ops in recorded[k * plan : k * plan + k])
    # each chunk runs its shape's recorded plan, and nothing else
    assert [ops is recorded[k][2] for ops in runs] == [True] * 5 + [False]
    assert runs[5] is recorded[2 * k][2]


def _pass_name(fn) -> str:
    """``add``, ``maximum.reduce``, ``copyto``: a recorded pass's function by name."""
    owner = getattr(fn, "__self__", None)
    return f"{owner.__name__}.{fn.__name__}" if isinstance(owner, np.ufunc) else fn.__name__


# the benchmark configs: 44x44 minesweeper over Bernoulli(0.1), and MA(2)
# over 1002 Gaussian cells; the counts, multiples of the replicas a group
# counts as, give each call a short last chunk
_SPARSE = dataclasses.replace(
    _minesweeper_spec(cols=44, rows=44, thresholds=(31, 32, 33)),
    distribution=MarginalDistribution.bernoulli(0.1),
)
_BENCHMARK_CALLS = {
    "quv-sparse": lambda: estimate_quv(dataclasses.replace(_SPARSE, iterations=16_000)),
    "quv-ma": lambda: estimate_quv(
        dataclasses.replace(_ma_spec(), source_cols=1002, thresholds=(13.0, 15.0, 17.0),
                            iterations=17_600)
    ),
    "sim-sparse": lambda: simulate_distribution(_SPARSE, replicas=1200),
}
# 3x3 minesweeper: the first of its 8 unit weights copied, 7 added; 3x3
# windows: a width-2 doubling and one add per side
_MINESWEEPER_SUMS = ["copyto"] + ["add"] * 7 + ["add", "add"] * 2
# 3 weighted terms, each but the first through a scratch multiply; a
# width-20 row pass: doublings to 4 and 8, the 4-block copied out before
# the doubling to 16 overwrites it, then 16 added
_MA_SUMS = ["multiply", "multiply", "add", "multiply", "add"] + ["add"] * 3 + ["copyto", "add", "add"]
# one row of 1 x 2 tiles: maxima over the tile, running maxima, one compare;
# Gaussian cells: the mirror's minima, running minima and compare
_MA_SCORES = ["maximum.reduce", "maximum", "less_equal"]
_MA_MIRROR = ["minimum.reduce", "minimum", "greater_equal"]
# a pair's S(x) + S(y) and S(x) - S(y), scored like a view and its mirror
_MA_ROTATED = ["add", "subtract"] + _MA_SCORES + ["add"] + _MA_MIRROR + ["add"]
# 2 x 2 tiles: maxima over tile rows, then tile columns; running maxima
# down and across; one compare
_SPARSE_SCORES = ["maximum.reduce"] * 2 + ["maximum"] * 2 + ["less_equal"]
# one tile, the whole field: no running maxima
_SIM_SCORES = ["maximum.reduce"] * 2 + ["less_equal"]
# the squared counts, then sum s and sum s**2 over the groups
_TALLY = ["multiply", "add.reduce", "add.reduce"]
# view 0 reads the drawn block and its first score starts the counts; views
# 1-3 each take their cells into the source first, and every other score is
# added into the counts; a pair's two counts are added before the squares
_BENCHMARK_PLANS = {
    "quv-sparse": _MINESWEEPER_SUMS + _SPARSE_SCORES
    + (["take"] + _MINESWEEPER_SUMS + _SPARSE_SCORES + ["add"]) * 3 + _TALLY,
    "quv-ma": _MA_SUMS + _MA_SCORES + _MA_MIRROR + ["add"] + _MA_ROTATED
    + (["take"] + _MA_SUMS + _MA_SCORES + ["add"] + _MA_MIRROR + ["add"] + _MA_ROTATED) * 3
    + ["add"] + _TALLY,
    "sim-sparse": _MINESWEEPER_SUMS + _SIM_SCORES
    + (["take"] + _MINESWEEPER_SUMS + _SIM_SCORES + ["add"]) * 3 + _TALLY,
}


@pytest.mark.parametrize("workload", sorted(_BENCHMARK_CALLS))
def test_each_benchmark_chunk_plan_runs_its_pinned_passes(workload, monkeypatch):
    """No pass is added to, or dropped from, a chunk on the benchmark configs.

    Both plans of a call, for its full chunks and its last, run the same
    passes in the same order.
    """
    plans, run_passes = [], pipeline.run_passes

    def recording(ops):
        plans.append([_pass_name(fn) for fn, _, _ in ops])
        run_passes(ops)

    monkeypatch.setattr(pipeline, "run_passes", recording)
    _BENCHMARK_CALLS[workload]()
    assert plans == [_BENCHMARK_PLANS[workload]] * 2


class _Kept(pipeline.Buffers):
    """Keeps every block of buffers made, the layout passes' too."""

    made = []

    def __init__(self, layout=None):
        super().__init__(layout)
        self.made.append(self)


@pytest.mark.parametrize(
    "spec", [_minesweeper_spec(iterations=20_000), _ma_spec()], ids=["minesweeper", "ma"]
)
def test_the_kernels_read_each_drawn_chunk_in_place(spec, monkeypatch):
    """The replica-minor source: one item between replicas, and no kernel copies its input."""
    monkeypatch.setattr(_Kept, "made", [])
    monkeypatch.setattr(pipeline, "Buffers", _Kept)
    monkeypatch.setattr(blockfactor, "Buffers", _Kept)
    steps = []
    kernel = pipeline.window_sums_batch

    def recording(source, *args, **kwargs):
        steps.append(source.strides[0] / source.itemsize)
        return kernel(source, *args, **kwargs)

    monkeypatch.setattr(pipeline, "window_sums_batch", recording)
    estimate_quv(spec, threads=2)
    simulate_distribution(spec, replicas=3000, threads=2)
    assert set(steps) == {1}
    assert _Kept.made and all("input" not in buffers.taken for buffers in _Kept.made)


class _FreshJunk(pipeline.Buffers):
    """Hands out a fresh array of junk bytes on every take."""

    def take(self, name, size, dtype):
        dtype = np.dtype(dtype)
        return np.full(size * dtype.itemsize, 0xA5, dtype=np.uint8).view(dtype)


@pytest.mark.parametrize(
    "spec", [_minesweeper_spec(iterations=20_000), _ma_spec()], ids=["minesweeper", "ma"]
)
def test_chunk_tallies_equal_those_of_fresh_buffers(spec, monkeypatch):
    """Reused buffers change no tally, and no layer reads a temporary it has not written."""
    kept = estimate_quv(spec, threads=1)
    kept_sim = simulate_distribution(spec, replicas=3000, threads=1)
    monkeypatch.setattr(pipeline, "Buffers", _FreshJunk)
    assert estimate_quv(spec, threads=1) == kept
    assert simulate_distribution(spec, replicas=3000, threads=1) == kept_sim


class _Recorded(pipeline.Buffers):
    """Records the layout of every laid-out block."""

    layouts = []

    def __init__(self, layout=None):
        super().__init__(layout)
        if layout:
            self.layouts.append(dict(layout))


def _ma_columns(cols):
    return dataclasses.replace(
        _ma_spec(), source_cols=cols, thresholds=(13.0,)
    )


@pytest.mark.parametrize(
    "spec, simulate, mib",
    [
        # each 0.5 MiB above the source's own: the drawn fields, kept whole
        # while their views are scored
        (_minesweeper_spec(cols=44, rows=44, thresholds=(31,)), False, 2.0),
        (_ma_columns(1002), False, 2.5),
        (_minesweeper_spec(cols=44, rows=44, thresholds=(31,)), True, 2.0),
        # one drawn field of 1.6 MB of source per chunk
        (_ma_columns(200_000), True, 8.0),
    ],
    ids=["quv-sparse", "quv-ma", "sim-sparse", "sim-ma-200000"],
)
def test_a_worker_block_stays_small(spec, simulate, mib, monkeypatch):
    """One chunk of drawn fields, a view of them and temporaries per worker: a few MiB.

    Also for a long float field.
    """
    monkeypatch.setattr(_Recorded, "layouts", [])
    monkeypatch.setattr(pipeline, "Buffers", _Recorded)
    if simulate:
        simulate_distribution(spec, replicas=2, threads=1)
    else:
        estimate_quv(dataclasses.replace(spec, iterations=2), threads=1)
    assert len(_Recorded.layouts) == 1 and sum(_Recorded.layouts[0].values()) <= mib * 2**20


# bytes per slot of a worker's block: a full chunk's drawn fields, the
# source one view of them is taken into, its block factor and window sums,
# the doubling scratch, the tile maxima (and on quv-ma, in turn, minima),
# the per-field counts of passing replicas and one compare, whose slot then
# holds the counts' squares; the row pass writes over the source and the
# column pass over the block factor, so neither has bytes of its own
_BENCHMARK_LAYOUTS = {
    "quv-sparse": {
        "drawn": 524160, "source": 524160, "blockfactor": 429520, "scratch0": 425880,
        "scan.tiles": 14560, "passes": 43680, "below": 43680,
    },
    "quv-ma": {
        "drawn": 524160, "source": 524160, "blockfactor": 507520, "scratch0": 507520,
        "scratch1": 482560, "scan.tiles": 16640, "passes": 6240, "below": 6240,
    },
    "sim-sparse": {
        "drawn": 522720, "source": 522720, "blockfactor": 498420, "scratch0": 498150,
        "scan.tiles": 270, "passes": 810, "below": 810,
    },
}


@pytest.mark.parametrize("workload", sorted(_BENCHMARK_CALLS))
def test_each_benchmark_worker_block_keeps_its_pinned_slots(workload, monkeypatch):
    """No slot of a worker's block is added, dropped or resized on the benchmark configs."""
    monkeypatch.setattr(_Recorded, "layouts", [])
    monkeypatch.setattr(pipeline, "Buffers", _Recorded)
    _BENCHMARK_CALLS[workload]()
    assert _Recorded.layouts == [_BENCHMARK_LAYOUTS[workload]]


def _written_and_read(fn, args, kwargs):
    """The array a recorded pass writes, and the arguments it reads."""
    if fn is np.copyto:
        return args[0], args[1:]
    if isinstance(getattr(fn, "__self__", None), np.ndarray):  # a bound ``fill``
        return fn.__self__, args
    return kwargs["out"], args


def _same_view(a, b):
    return (a.__array_interface__["data"][0], a.shape, a.strides) == (
        b.__array_interface__["data"][0], b.shape, b.strides
    )


_PASS_SPECS = {
    "sparse": _minesweeper_spec(cols=44, rows=44, thresholds=(31, 32, 33)),
    "ma": _ma_columns(1002),
    "binomial": dataclasses.replace(
        _minesweeper_spec(cols=30, rows=30), distribution=MarginalDistribution.binomial(3, 0.05)
    ),
    "poisson": dataclasses.replace(
        _bernoulli_spec(cols=30, rows=30), distribution=MarginalDistribution.poisson(0.2)
    ),
    "identity": _bernoulli_spec(cols=30, rows=30, p=0.2),
    "ma-short": _ma_spec(),
}


@pytest.mark.parametrize("name", list(_PASS_SPECS))
def test_no_recorded_pass_writes_where_its_inputs_read_elsewhere(name, monkeypatch):
    """A pass's output overlaps none of its inputs, unless that input is the same view.

    The window sums write into the slots of the source and the block factor,
    so a pass that read one of those slots while writing it at another
    offset would read values it had already overwritten.
    """
    plans, run_passes = {}, pipeline.run_passes

    def running(ops):
        plans[id(ops)] = ops
        run_passes(ops)

    monkeypatch.setattr(pipeline, "run_passes", running)
    spec = dataclasses.replace(_PASS_SPECS[name], iterations=300)
    estimate_quv(spec, threads=1)
    simulate_distribution(spec, replicas=40, threads=1)
    assert len(plans) == 2
    for ops in plans.values():
        for fn, args, kwargs in ops:
            out, inputs = _written_and_read(fn, args, kwargs)
            for read in inputs:
                if isinstance(read, np.ndarray) and np.shares_memory(read, out):
                    assert _same_view(read, out), fn


def test_a_call_builds_one_generator_per_worker(monkeypatch):
    """Each worker reseeds its own SFC64 before every chunk instead of building one."""
    _usable_cpus(monkeypatch, 2)
    built = []

    class SFC64(np.random.SFC64):  # a state names its class, so keep the name
        def __init__(self, *args):
            built.append("SFC64")
            super().__init__(*args)

    def generator(bit_generator, make=np.random.Generator):
        built.append("Generator")
        return make(bit_generator)

    monkeypatch.setattr(np.random, "SFC64", SFC64)
    monkeypatch.setattr(np.random, "Generator", generator)
    spec = _minesweeper_spec(iterations=80_000)  # six chunks
    # one more SFC64 per call, reseeded to each view's stream for its cell order
    estimate_quv(spec, threads=2)
    assert built[0] == "SFC64"
    assert sorted(built[1:]) == ["Generator", "Generator", "SFC64", "SFC64"]  # either thread first
    built.clear()
    simulate_distribution(spec, replicas=3000, threads=1)
    assert built == ["SFC64", "SFC64", "Generator"]


def test_back_to_back_calls_fault_in_no_pages():
    """A call's worker block reuses the heap the last call freed, without page faults."""
    resource = pytest.importorskip("resource")
    spec = dataclasses.replace(
        _minesweeper_spec(cols=44, rows=44, thresholds=(31, 32, 33)), iterations=20_000
    )
    for _ in range(5):
        estimate_quv(spec, threads=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        estimate_quv(spec, threads=1)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 3 * 64


@pytest.mark.parametrize("threads", [2, 4])
def test_workers_never_share_buffers(threads, monkeypatch):
    """About 50 small chunks on a thread pool tally like one thread; a shared buffer would race."""
    _usable_cpus(monkeypatch, threads)
    monkeypatch.setattr(pipeline, "_chunk_size", lambda cells: 41)
    spec = _minesweeper_spec(iterations=2050)
    serial = estimate_quv(spec, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [estimate_quv(spec, threads=threads) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert all(records == serial for records in pooled)
