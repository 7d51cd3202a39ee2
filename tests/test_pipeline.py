import dataclasses
import math

import numpy as np
import pytest

from blockscan import (
    EstimateRecord,
    ExperimentSpec,
    LatticeGeometry,
    MarginalDistribution,
    ScanGeometry,
    SeedSpec,
    approximate,
    catalog_transform,
    estimate_quv,
    identity_transform,
    interpolated_approximation,
    ma_theory,
    ma_transform,
    minesweeper_transform,
    one_step_approximation,
    quv_field_dims,
    simulate_distribution,
    two_step_approximation,
)
from blockscan import pipeline
from blockscan.errors import GeometryError, HypothesisError, OrderingError, ParameterError


def _bernoulli_spec(cols=12, rows=12, thresholds=(6, 7, 8), iterations=4000, seed=11, p=0.3):
    return ExperimentSpec(
        geometry=LatticeGeometry(cols, rows),
        scan=ScanGeometry(3, 3),
        distribution=MarginalDistribution.bernoulli(p),
        transform=identity_transform(),
        thresholds=tuple(float(n) for n in thresholds),
        iterations=iterations,
        seed=SeedSpec(seed),
    )


def _minesweeper_spec(cols=20, rows=20, thresholds=(30, 32), iterations=4000, seed=5):
    t, extents = catalog_transform("minesweeper")
    return ExperimentSpec(
        geometry=LatticeGeometry(cols, rows, *extents),
        scan=ScanGeometry(3, 3),
        distribution=MarginalDistribution.bernoulli(0.5),
        transform=t,
        thresholds=tuple(float(n) for n in thresholds),
        iterations=iterations,
        seed=SeedSpec(seed),
    )


# --- geometry of the estimation fields -------------------------------------


def test_quv_field_dims():
    ms_geom = LatticeGeometry(20, 20, 1, 1, 1, 1)
    scan = ScanGeometry(3, 3)
    assert quv_field_dims(2, 2, ms_geom, scan) == (8, 8)
    assert quv_field_dims(3, 2, ms_geom, scan) == (12, 8)
    assert quv_field_dims(3, 3, ms_geom, scan) == (12, 12)
    iid_geom = LatticeGeometry(12, 12)
    assert quv_field_dims(2, 2, iid_geom, scan) == (4, 4)
    ma_geom = LatticeGeometry(1002, 1, 0, 2, 0, 0)
    assert quv_field_dims(3, 3, ma_geom, ScanGeometry(20, 1)) == (63, 1)
    with pytest.raises(ParameterError):
        quv_field_dims(1, 2, iid_geom, scan)


def test_spec_validation():
    with pytest.raises(GeometryError):
        # transform window disagrees with geometry extents
        ExperimentSpec(
            geometry=LatticeGeometry(12, 12),
            scan=ScanGeometry(3, 3),
            distribution=MarginalDistribution.bernoulli(0.3),
            transform=minesweeper_transform(),
            thresholds=(5.0,),
        )
    with pytest.raises(GeometryError):
        _minesweeper_spec(cols=8, rows=20)  # fewer than three block units wide
    with pytest.raises(GeometryError):
        _bernoulli_spec(cols=2, rows=12)
    with pytest.raises(ParameterError):
        _bernoulli_spec(iterations=0)


@pytest.mark.parametrize(
    "field, value",
    [("l_mode", "bogus"), ("confidence_z", 0.0), ("confidence_z", -1.0),
     ("confidence_z", math.nan), ("confidence_z", math.inf)],
)
def test_spec_rejects_bad_l_mode_and_confidence_z(field, value):
    with pytest.raises(ParameterError, match=field):
        dataclasses.replace(_bernoulli_spec(), **{field: value})


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
    # Exact replica counts at a fixed seed, so platform independent: they move
    # only if the chunk partition, the per-chunk streams or the per-replica
    # sample -> block factor -> window sums -> maxima pipeline changes.
    t, extents = catalog_transform("minesweeper")
    spec = ExperimentSpec(
        geometry=LatticeGeometry(12, 12, *extents),
        scan=ScanGeometry(3, 3),
        distribution=MarginalDistribution.bernoulli(0.3),
        transform=t,
        thresholds=(22.0, 26.0, 30.0),
        iterations=20_000,  # three chunks, the last one partial
        seed=SeedSpec(2014),
    )
    counts = [
        [round(getattr(rec, q) * rec.iterations) for q in ("q22", "q23", "q32", "q33")]
        for rec in estimate_quv(spec)
    ]
    assert counts == [[2123, 457, 421, 30], [5576, 2234, 2191, 468], [10324, 6238, 6260, 2670]]
    sims = simulate_distribution(spec, replicas=10_000)
    assert [round(row.prob * row.replicas) for row in sims] == [15, 212, 1291]


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
    assert row.alpha1 == 1.0 - row.q3 and row.alpha2 == pytest.approx(1.0 - 0.985)
    assert row.l1 is not None and row.t2_1 is not None


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


def test_monte_carlo_noise_clamps_to_consistency():
    # q32 a hair above q22 is within slack: clamped, not an error
    row = one_step_approximation(_record(q22=0.99, q32=0.9901), 10)
    assert row.clamped and row.q3 == 0.99


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
    rows = interpolated_approximation(spec)
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
    [row] = interpolated_approximation(_bernoulli_spec(cols=13, thresholds=(7,)))
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
        geometry=LatticeGeometry(66, 1, 0, 2, 0, 0),
        scan=ScanGeometry(20, 1),
        distribution=MarginalDistribution.gaussian(0.0, 1.0),
        transform=ma_transform((0.3, 0.1, 0.5)),
        thresholds=(10.0, 14.0),
        iterations=3000,
        seed=SeedSpec(13),
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


def test_thread_pool_is_capped_at_the_chunk_count(monkeypatch):
    """A huge thread request starts one worker per chunk; the pool is never started."""
    from blockscan import pipeline

    assert pipeline._worker_count(10**9, 13) == 13
    assert pipeline._worker_count(2, 13) == 2
    assert pipeline._worker_count(None, 13) == 1
    assert pipeline._worker_count(8, 1) == 1
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", SerialPool)
    total = pipeline._accumulate(10, 4, SeedSpec(1), "cap", lambda rng, count: count, 10**9)
    assert total == 10 and requested == [3]


def test_chunk_size_keeps_the_cell_budget_for_large_lattices():
    """About 4e6 source cells per chunk, at most 8192 replicas and at least one."""
    from blockscan import pipeline

    assert pipeline._chunk_size(12 * 12) == 8192
    assert pipeline._chunk_size(44 * 44) == 2066
    assert pipeline._chunk_size(125 * 125) == 256
    assert pipeline._chunk_size(1000 * 1000) == 4
    assert pipeline._chunk_size(2000 * 2000) == 1


def _ma_spec():
    return ExperimentSpec(
        geometry=LatticeGeometry(66, 1, 0, 2, 0, 0),
        scan=ScanGeometry(20, 1),
        distribution=MarginalDistribution.gaussian(0.0, 1.0),
        transform=ma_transform((0.3, 0.1, 0.5)),
        thresholds=(9.0, 11.0, 13.0, 15.0),
        iterations=9000,
        seed=SeedSpec(13),
    )


@pytest.mark.parametrize("shape", ["quv-2d", "quv-1d", "simulate"])
def test_tile_maxima_count_like_per_extent_maxima(shape, monkeypatch):
    """Tallies from shared tile maxima equal ``sums[:, :v, :u].max(axis=(1, 2))`` per extent."""
    from blockscan import pipeline

    recorded, window_sums = [], pipeline.window_sums_batch

    def recording(arr, m1, m2):
        recorded.append(window_sums(arr, m1, m2))
        return recorded[-1]

    monkeypatch.setattr(pipeline, "window_sums_batch", recording)
    if shape == "simulate":
        spec = _minesweeper_spec(cols=14, rows=13, thresholds=range(40, 64, 3))
        rows = simulate_distribution(spec, replicas=9000, threads=1)
        tallies = [[round(row.prob * row.replicas) for row in rows]]
        g, scan = spec.geometry, spec.scan
        extents = [(g.derived_rows - scan.m2 + 1, g.derived_cols - scan.m1 + 1)]
    else:
        if shape == "quv-2d":
            spec = _minesweeper_spec(thresholds=range(34, 58, 3), iterations=9000)
        else:
            spec = _ma_spec()
        records = estimate_quv(spec, threads=1)
        tallies = [
            [round(getattr(rec, q) * rec.iterations) for rec in records]
            for q in ("q22", "q23", "q32", "q33")
        ]
        rows_per_block = 1 if spec.one_dimensional else spec.block2
        extents = [((v - 1) * rows_per_block, (u - 1) * spec.block1) for u, v in pipeline._UV_PAIRS]
    thr = np.array(spec.thresholds)
    expected = np.zeros((len(extents), thr.size), dtype=np.int64)
    for sums in recorded:
        for idx, (v_ext, u_ext) in enumerate(extents):
            maxima = sums[:, :v_ext, :u_ext].max(axis=(1, 2))
            expected[idx] += (maxima[:, None] <= thr[None, :]).sum(axis=0)
    assert len(recorded) == 2  # two chunks, the second one partial
    # at least three thresholds per extent split the replicas
    assert np.all(((expected > 0) & (expected < 9000)).sum(axis=1) >= 3)
    assert np.array_equal(np.array(tallies), expected)
