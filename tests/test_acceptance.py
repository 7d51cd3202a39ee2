"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) so a full run shows
nine verdict lines.  Published-table comparisons use the combined-tolerance
rule: |desk approximation - published value| must stay within the published
error budget plus the desk run's own reported error budget.
"""
import dataclasses
import math
import time
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from blockscan import (
    ExperimentSpec,
    MarginalDistribution,
    SeedSpec,
    approximant_H_with_flag,
    approximate,
    catalog_transform,
    identity_transform,
    ma_transform,
    minesweeper_transform,
    simulate_distribution,
    solve_t2,
    theorem1_constants,
    error_factor_F,
)
from blockscan.cli import RunConfig, write_approx_table
from blockscan.scan import window_sums_batch

from oracles import brute_moving_sums

from test_haiman import _reference_constants, _rel
from test_pipeline import ma_theory

# published reference rows: threshold -> (probability, error budget)
TABLE_SPARSE_P01 = {31.0: (0.922997, 0.007286), 32.0: (0.953079, 0.003918), 33.0: (0.971980, 0.002443)}
TABLE_DENSE_P05 = {64.0: (0.939436, 0.005103), 66.0: (0.985439, 0.001507), 68.0: (0.997605, 0.000573)}
TABLE_MA = {13.0: (0.889431, 0.001167), 15.0: (0.980675, 0.000124), 17.0: (0.997499, 0.000014)}
MA_SIM_REFERENCE = (12.0, 0.770971)


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _minesweeper_spec(p, thresholds, seed):
    transform = catalog_transform("minesweeper")
    return ExperimentSpec(
        source_cols=44,
        source_rows=44,
        m1=3,
        m2=3,
        distribution=MarginalDistribution.bernoulli(p),
        transform=transform,
        thresholds=thresholds,
        iterations=100_000,
        seed=seed,
    )


@lru_cache(maxsize=None)
def _sparse_rows(threads: int):
    spec = _minesweeper_spec(0.1, tuple(TABLE_SPARSE_P01), 42)
    start = time.perf_counter()
    rows = approximate(spec, threads=threads)
    return rows, time.perf_counter() - start


def _check_published(rows, reference):
    worst = 0.0
    checked = 0
    for row in rows:
        if not row.valid:
            continue
        published, budget = reference[row.n]
        gap = abs(row.approx - published)
        assert gap <= budget + row.e_total, (
            f"n={row.n}: |{row.approx:.6f} - {published}| = {gap:.6f} "
            f"> {budget + row.e_total:.6f}"
        )
        worst = max(worst, gap)
        checked += 1
    assert checked > 0, "no valid rows to compare"
    return checked, worst


def test_criterion_1_sparse_table(capsys):
    rows, elapsed = _sparse_rows(1)
    checked, worst = _check_published(rows, TABLE_SPARSE_P01)
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _verdict(
        capsys, 1, True,
        f"44x44 Bernoulli(0.1) table: {checked} rows within combined tolerance "
        f"(worst gap {worst:.6f}, {elapsed:.1f}s)",
    )


def test_criterion_2_dense_table(capsys):
    spec = _minesweeper_spec(0.5, tuple(TABLE_DENSE_P05), 7)
    rows = approximate(spec)
    checked, worst = _check_published(rows, TABLE_DENSE_P05)
    _verdict(
        capsys, 2, True,
        f"44x44 Bernoulli(0.5) spot check: {checked} rows within combined tolerance "
        f"(worst gap {worst:.6f})",
    )


def test_criterion_3_moving_average_table(capsys):
    start = time.perf_counter()
    transform = catalog_transform("ma", coeffs=[0.3, 0.1, 0.5])
    spec = ExperimentSpec(
        source_cols=1002,
        source_rows=1,
        m1=20,
        m2=1,
        distribution=MarginalDistribution.gaussian(0.0, 1.0),
        transform=transform,
        thresholds=tuple(TABLE_MA),
        iterations=1_000_000,
        seed=3,
    )
    rows = approximate(spec, threads=4)
    checked, worst = _check_published(rows, TABLE_MA)
    sim_spec = dataclasses.replace(spec, thresholds=(MA_SIM_REFERENCE[0],))
    sim = simulate_distribution(sim_spec, replicas=100_000, threads=4)[0]
    published = MA_SIM_REFERENCE[1]
    sim_tol = 4.0 * math.sqrt(published * (1.0 - published) / sim.replicas)
    sim_gap = abs(sim.prob - published)
    assert sim_gap <= sim_tol, f"simulated {sim.prob:.6f} vs {published} (tol {sim_tol:.6f})"
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds 10 minutes"
    _verdict(
        capsys, 3, True,
        f"length-1000 MA(2) table: {checked} rows within combined tolerance "
        f"(worst gap {worst:.6f}); sim at n=12 within {sim_gap:.6f} <= {sim_tol:.6f} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    fields = windows = 0
    for _ in range(200):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        values = rng.integers(-9, 10, size=(rows, cols)).astype(np.int64)
        fields += 1
        for m1 in range(1, cols + 1):
            for m2 in range(1, rows + 1):
                fast = window_sums_batch(values, identity_transform(), m1, m2)
                assert np.array_equal(fast, brute_moving_sums(values, m1, m2)), (
                    f"mismatch at {cols}x{rows}, window {m1}x{m2}"
                )
                windows += 1
    _verdict(
        capsys, 4, True,
        f"prefix sums equal brute force exactly on {fields} fields / {windows} window shapes",
    )


def test_criterion_5_approximant_identities(capsys):
    for q in np.linspace(0.0, 1.0, 100):
        assert abs(approximant_H_with_flag(float(q), float(q), 13)[0] - float(q)) <= 1e-15
    worst = 0.0
    for alpha in (0.001, 0.01, 0.05, 0.1):
        t2 = solve_t2(alpha)
        assert abs(alpha * t2**3 - t2 + 1.0) <= 1e-10
        c = theorem1_constants(alpha)
        K, L, E = _reference_constants(alpha, c.l)
        f_ref = 1 + mp.mpf(3) / 14 + ((L + E) / 14 + K) * alpha
        rels = (
            _rel(c.K, K),
            _rel(c.L, L),
            _rel(c.E, E),
            _rel(error_factor_F(c, 14, 1.0 - alpha), f_ref),
        )
        worst = max(worst, *[float(r) for r in rels])
        assert all(r < 1e-12 for r in rels)
    _verdict(
        capsys, 5, True,
        f"H(q,q,m)=q to 1e-15; dual evaluation of K,L,E,F within {worst:.2e} relative; "
        f"cubic residuals <= 1e-10",
    )


def test_criterion_6_small_instance(capsys):
    start = time.perf_counter()
    spec = ExperimentSpec(
        source_cols=12,
        source_rows=12,
        m1=3,
        m2=3,
        distribution=MarginalDistribution.bernoulli(0.3),
        transform=catalog_transform("identity"),
        thresholds=(5.0, 6.0, 7.0, 8.0, 9.0),
        iterations=100_000,
        seed=11,
    )
    rows = approximate(spec, threads=4)
    sims = {s.n: s for s in simulate_distribution(spec, replicas=1_000_000, threads=4)}
    checked = 0
    worst = 0.0
    for row in rows:
        if not row.valid:
            continue
        sim = sims[row.n]
        sigma = math.sqrt(max(sim.prob * (1.0 - sim.prob), 1e-12) / sim.replicas)
        gap = abs(row.approx - sim.prob)
        assert gap <= row.e_total + 4.0 * sigma, (
            f"n={row.n}: gap {gap:.6f} > {row.e_total + 4 * sigma:.6f}"
        )
        worst = max(worst, gap)
        checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"
    _verdict(
        capsys, 6, True,
        f"12x12 Bernoulli(0.3): {checked} valid rows within E_total + 4 sigma of a "
        f"1e6-replica simulation (worst gap {worst:.6f}, {elapsed:.1f}s)",
    )


def test_criterion_7_dependence_locality(capsys):
    count = 1000
    transform = minesweeper_transform()
    rng = SeedSpec(77).generator()
    source = (rng.random((count, 20, 20)) < 0.4).astype(np.int8)
    derived = window_sums_batch(source, transform, 1, 1)
    sums = window_sums_batch(source, transform, 3, 3)
    block = 4  # m2 + c2 - 2
    span = 4 * block  # anchors within the exact-multiple range
    for k in range(1, 5):
        full = sums[:, (k - 1) * block : k * block, :span].max(axis=(1, 2))
        slab_src = source[:, (k - 1) * block : (k + 1) * block, :]
        slab_sums = window_sums_batch(slab_src, transform, 3, 3)
        slab = slab_sums[:, :, :span].max(axis=(1, 2))
        assert np.array_equal(full, slab), f"slab mismatch at k={k}"
    # each derived value is a function of its own c2 x c1 source sub-block only
    sites_j = rng.integers(0, derived.shape[1], size=count)
    sites_i = rng.integers(0, derived.shape[2], size=count)
    for b in range(count):
        jj, ii = int(sites_j[b]), int(sites_i[b])
        sub = source[b, jj : jj + 3, ii : ii + 3]
        assert derived[b, jj, ii] == sub.sum() - sub[1, 1]
    _verdict(
        capsys, 7, True,
        f"slab locality of row maxima and sub-block locality of derived values "
        f"hold on {count} fields",
    )


def test_criterion_8_thread_determinism(capsys, tmp_path):
    config = RunConfig.from_mapping(
        {
            "transform": "minesweeper",
            "distribution": "bernoulli",
            "p": 0.1,
            "source_cols": 44,
            "source_rows": 44,
            "m1": 3,
            "m2": 3,
            "thresholds": sorted(TABLE_SPARSE_P01),
            "iterations": 100_000,
            "seed": 42,
        }
    )
    tables = {}
    for threads in (1, 8):
        rows, _ = _sparse_rows(threads)
        path = tmp_path / f"threads{threads}.tsv"
        write_approx_table(str(path), rows, config, raw=True)
        tables[threads] = path.read_bytes()
    assert tables[1] == tables[8], "tables differ between 1 and 8 threads"
    _verdict(capsys, 8, True, "1-thread and 8-thread runs wrote bit-identical tables")


def test_criterion_9_moving_average_moments(capsys):
    theory = ma_theory((0.3, 0.1, 0.5), 20)
    assert theory.variance == pytest.approx(15.44)
    assert theory.max_lag == 21 and theory.covariance(22) == 0.0
    replicas = 100_000
    length = 60
    rng = SeedSpec(55).generator()
    source = rng.normal(0.0, 1.0, (replicas, 1, length))
    Y = window_sums_batch(source, ma_transform((0.3, 0.1, 0.5)), 20, 1)[:, 0, :]
    c0 = theory.variance
    col = Y[:, 0]
    assert abs(col.mean() - theory.mean) <= 5.0 * math.sqrt(c0 / replicas)
    assert abs(col.var() - c0) <= 5.0 * c0 * math.sqrt(2.0 / replicas)
    worst = 0.0
    for lag in (1, 5, 10, 21, 22, 25):
        sample = np.mean((Y[:, 0] - Y[:, 0].mean()) * (Y[:, lag] - Y[:, lag].mean()))
        target = theory.covariance(lag)
        se = math.sqrt((c0**2 + target**2) / replicas)
        gap = abs(sample - target)
        assert gap <= 5.0 * se, f"lag {lag}: {sample:.4f} vs {target:.4f} (5se={5 * se:.4f})"
        worst = max(worst, gap / se)
    _verdict(
        capsys, 9, True,
        f"MA(2) moments match closed forms (Var=15.44, support ends at lag 21); "
        f"worst covariance deviation {worst:.2f} standard errors",
    )
