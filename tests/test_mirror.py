"""Mirror replicas: a field of Gaussian cells also counts as its reflection.

Where ``MarginalDistribution.centre`` is set (the Gaussian mean), the pipeline scores each drawn
field ``x`` twice, as itself and as ``2c - x``, and widens or narrows the
half-width by the pairs' covariance.  These checks hold the paired estimator
against plain Monte Carlo of independent fields summed site by site, pin its
half-width where the pairs are positively correlated, and run it at replica
counts that leave a mirror out.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from blockscan import (
    ExperimentSpec,
    MarginalDistribution,
    estimate_quv,
    ma_transform,
    minesweeper_transform,
    simulate_distribution,
)
from blockscan import pipeline
from blockscan.cli import main, read_table
from blockscan.errors import ParameterError
from oracles import brute_extent_maxima


@pytest.mark.parametrize(
    "distribution, centre",
    [
        (MarginalDistribution.gaussian(0.3, 2.0), 0.3),
        (MarginalDistribution.gaussian(-1.5, 0.25), -1.5),
        # symmetric too, but not mirrored: no timing shows that the mirror pays on bool cells
        (MarginalDistribution.bernoulli(0.5), None),
        (MarginalDistribution.binomial(3, 0.5), None),
        (MarginalDistribution.bernoulli(0.1), None),
        (MarginalDistribution.poisson(0.2), None),
    ],
    ids=["gaussian", "gaussian-negative", "bernoulli-half", "binomial-half", "bernoulli", "poisson"],
)
def test_centre_is_the_gaussian_mean_and_unset_otherwise(distribution, centre):
    assert distribution.centre == centre


def _spec(transform, distribution, cols, rows, m, thresholds, iterations=4000, seed=8):
    return ExperimentSpec(
        transform=transform, distribution=distribution, source_cols=cols, source_rows=rows,
        m1=m[0], m2=m[1], thresholds=thresholds, iterations=iterations, seed=seed,
    )


# thresholds near the 30th, 50th and 70th percentiles of each scan statistic
_CASES = {
    "ma": _spec(
        ma_transform((0.3, 0.1, 0.5)), MarginalDistribution.gaussian(0.0, 1.0), 66, 1,
        (20, 1), (3.0, 5.0, 7.0),
    ),
    "minesweeper-gaussian": _spec(
        minesweeper_transform(), MarginalDistribution.gaussian(0.3, 1.0), 12, 12, (3, 3),
        (45.0, 52.0, 60.0),
    ),
}


def _plain_estimates(spec, dims, extent, replicas, seed):
    """Per threshold, the share of ``replicas`` independent fields whose extent maximum is ``<= n``.

    Returns those shares and their Wald half-widths.
    """
    cols, rows = dims
    stack = spec.distribution.sample(np.random.default_rng(seed), (replicas, rows, cols))
    maxima = brute_extent_maxima(stack, spec.transform, spec.m1, spec.m2, extent)
    probs = np.array([np.mean(maxima <= n) for n in spec.thresholds])
    return probs, spec.confidence_z * np.sqrt(probs * (1.0 - probs) / replicas)


@pytest.mark.parametrize("name", list(_CASES))
def test_paired_estimates_agree_with_plain_brute_force_indicators(name):
    """Each ``Q_uv`` and simulated CDF point lies within the joint half-width of plain Monte Carlo.

    The plain estimates draw independent fields from their own generator,
    with no mirror, and sum each window of each field site by site.
    """
    spec = _CASES[name]
    assert spec.mirrored
    records = estimate_quv(spec, threads=1)
    dims = pipeline.quv_field_dims(3, 3, spec)
    for u, v in pipeline._UV_PAIRS:
        extent = (1 if spec.one_dimensional else (v - 1) * spec.block2, (u - 1) * spec.block1)
        plain, plain_half = _plain_estimates(spec, dims, extent, 4000, seed=u * 10 + v)
        for rec, p, h in zip(records, plain, plain_half):
            q, b = getattr(rec, f"q{u}{v}"), getattr(rec, f"b{u}{v}")
            assert 0.0 < q < 1.0 and b > 0.0
            assert abs(q - p) <= b + h, (name, u, v, rec.n)
    sim = simulate_distribution(spec, replicas=4000, threads=1)
    derived_rows, derived_cols = spec.transform.derived_shape(spec.source_rows, spec.source_cols)
    extent = (derived_rows - spec.m2 + 1, derived_cols - spec.m1 + 1)
    dims = (spec.source_cols, spec.source_rows)
    plain, plain_half = _plain_estimates(spec, dims, extent, 4000, seed=99)
    for row, p, h in zip(sim, plain, plain_half):
        assert 0.0 < row.prob < 1.0
        assert abs(row.prob - p) <= row.half_width + h, (name, "sim", row.n)


def test_a_mixed_sign_ma_widens_the_half_width_past_wald():
    """MA ``[1, -1, 0]`` sums telescope, so a field and its mirror pass together more often.

    Over two tiles of anchors the pair covariance ``c_hat`` is about +0.018
    at ``n = 3.5``: the half-width grows past Wald's by about 5%.
    """
    spec = _spec(
        ma_transform((1, -1, 0)), MarginalDistribution.gaussian(0.0, 1.0), 66, 1, (20, 1),
        (3.5,), iterations=20_000, seed=3,
    )
    [rec] = estimate_quv(spec, threads=1)
    for name in ("32", "33"):
        q, b = getattr(rec, f"q{name}"), getattr(rec, f"b{name}")
        wald = spec.confidence_z * math.sqrt(q * (1.0 - q) / spec.iterations)
        c_hat = (b / spec.confidence_z) ** 2 * spec.iterations - q * (1.0 - q)
        assert c_hat > 0.005 and b > 1.02 * wald


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("count", [1, 3, 2001])
@pytest.mark.parametrize("command", ["approximate", "simulate"])
def test_odd_counts_write_the_same_table_at_one_two_and_three_threads(
    tmp_path, command, count, monkeypatch
):
    """One replica (a field without its mirror), three, and an odd count over seven chunks.

    Chunks hold 290 replicas, 145 fields each, so 2001 replicas end in a
    chunk of 261 replicas whose last field has no mirror.  The tables are
    compared whole but for the wall time and the thread count.
    """
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "_chunk_size", lambda replica_bytes: 145)
    config = tmp_path / "run.json"
    config.write_text(
        '{"transform": "minesweeper", "distribution": "gaussian", "mean": 0.3, "variance": 1.0, '
        '"source_cols": 12, "source_rows": 12, "m1": 3, "m2": 3, '
        '"thresholds": [45, 52, 60], "seed": 4}'
    )
    size = "--iterations" if command == "approximate" else "--replicas"
    tables = []
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}.tsv"
        argv = [command, "-c", str(config), "-o", str(out), size, str(count), "--raw"]
        assert main(argv + ["--threads", str(threads)]) == 0
        lines = out.read_text().splitlines()
        tables.append([
            line for line in lines if not line.startswith(("# wall_time_s", "# threads"))
        ])
    assert tables[1] == tables[0] and tables[2] == tables[0]
    metadata, _, rows = read_table(str(tmp_path / "t1.tsv"))
    [chunks] = [line for line in metadata if line.startswith("# chunks = ")]
    chunk_count = -(-count // 290)
    last = -(-(count - (chunk_count - 1) * 290) // 2)
    assert chunks.endswith(f"fields=145 count={chunk_count} last={last} mirrored=yes")
    assert len(rows) == 3


def test_the_cell_limit_counts_the_fields_a_mirrored_call_draws(tmp_path, capsys):
    """Twice as many replicas fit under the limit where each drawn field is scored twice."""
    spec = _CASES["ma"]
    config = {
        "transform": "ma", "ma_coeffs": [0.3, 0.1, 0.5], "distribution": "gaussian",
        "mean": 0.0, "variance": 1.0, "source_cols": 66, "source_rows": 1, "m1": 20, "m2": 1,
        "thresholds": [3.0],
    }
    limit = pipeline.MAX_DRAWN_CELLS // 66
    for replicas, status in ((2 * limit, 0), (2 * limit + 1, 2)):
        (tmp_path / "run.json").write_text(json.dumps({**config, "replicas": replicas}))
        assert main(["validate-config", "-c", str(tmp_path / "run.json")]) == status
    assert f"draws {limit + 1} fields of 66x1 cells" in capsys.readouterr().err
    cols, rows = pipeline.quv_field_dims(3, 3, spec)
    fields = pipeline.MAX_DRAWN_CELLS // (cols * rows)
    assert dataclasses.replace(spec, iterations=2 * fields).iterations == 2 * fields
    with pytest.raises(ParameterError) as err:
        dataclasses.replace(spec, iterations=2 * fields + 1)
    assert err.value.field == "iterations"
    assert f"iterations = {2 * fields + 1} draws {fields + 1} fields of {cols}x{rows} cells" in str(
        err.value
    )
    plain = dataclasses.replace(spec, distribution=MarginalDistribution.bernoulli(0.3))
    with pytest.raises(ParameterError):
        dataclasses.replace(plain, iterations=fields + 1)
