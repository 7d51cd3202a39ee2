"""Replica groups: a drawn field also counts as its views, and over Gaussian cells as their mirrors and rotations.

Each drawn field is scored as ``VIEWS`` fixed permutations of its cells,
and where ``MarginalDistribution.centre`` is set (the Gaussian mean) each
view also as its reflection ``2c - x``; Gaussian fields come in pairs,
each view of which also counts as the pair's rotations by 45 degrees.
The half-width is read off the spread of the per-group counts of passing
replicas.  These checks hold the group estimator against plain Monte
Carlo of independent fields summed site by site, against the rotation
orbit of each pair recounted by brute force, and against an exact
``Q_uv`` found by enumeration, pin it to the Wald and pair forms it
reduces to, check that every view is a permutation of its field, and
check that a request that ``R`` does not divide tallies every replica of
its last group.
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
from blockscan import identity_transform, pipeline
from blockscan.cli import main, read_table
from blockscan.errors import ParameterError
from blockscan.fields import SeedSpec
from oracles import (
    brute_extent_maxima,
    brute_window_sums,
    group_tallies,
    grouped_replicas,
    view_orders,
    view_replicas,
)


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


def _plain_estimate(spec, dims, extent, n, replicas, seed):
    """The share of ``replicas`` independent fields whose extent maximum is ``<= n``, and its Wald half-width."""
    cols, rows = dims
    stack = spec.distribution.sample(np.random.default_rng(seed), (replicas, rows, cols))
    prob = np.mean(brute_extent_maxima(stack, spec.transform, spec.m1, spec.m2, extent) <= n)
    return prob, spec.confidence_z * math.sqrt(prob * (1.0 - prob) / replicas)


@pytest.mark.parametrize("name", list(_CASES))
def test_paired_estimates_agree_with_plain_brute_force_indicators(name):
    """Over 40 seeds, at most 8 ``Q_uv`` and 8 simulated CDF points lie outside the joint half-width.

    Seed ``k`` runs the group estimates at seed ``k`` and compares one
    ``Q_uv`` row, cycling through the 4 extents and 3 thresholds, and one
    simulated CDF point, cycling through the thresholds, with plain Monte
    Carlo: 4000 independent fields from a generator of their own, with no
    views, pairs or mirrors, each window of each field summed site by site.
    The seeds are independent.  Where both half-widths are honest, ``q -
    p`` has a standard deviation of about ``sqrt(b**2 + h**2) / z <= (b +
    h) / z``, so one comparison fails with probability at most about
    ``P(|Z| > 1.96) = 0.05``, and a count passes 8 of 40 with probability
    at most ``P(Bin(40, 0.05) >= 9) = 1.3e-4``: under 2.6e-4 per case that
    the test fails falsely.
    """
    spec = _CASES[name]
    assert spec.mirrored
    assert pipeline.chunk_layout(spec, "quv", 1).group == 32
    assert pipeline.chunk_layout(spec, "sim", 1).group == 32
    derived_rows, derived_cols = spec.transform.derived_shape(spec.source_rows, spec.source_cols)
    full = (derived_rows - spec.m2 + 1, derived_cols - spec.m1 + 1)
    outside = {"quv": 0, "sim": 0}
    for seed in range(40):
        seeded = dataclasses.replace(spec, seed=seed)
        (u, v), t = pipeline.UV_PAIRS[seed % 4], seed // 4 % 3
        rec = estimate_quv(seeded, threads=1)[t]
        q, b = getattr(rec, f"q{u}{v}"), getattr(rec, f"b{u}{v}")
        extent = (1 if spec.one_dimensional else (v - 1) * spec.block2, (u - 1) * spec.block1)
        dims = pipeline._field_dims(spec, "quv")[0]
        p, h = _plain_estimate(spec, dims, extent, rec.n, 4000, seed=1000 + seed)
        assert 0.0 < q < 1.0 and b > 0.0 and 0.0 < p < 1.0
        outside["quv"] += abs(q - p) > b + h
        row = simulate_distribution(seeded, replicas=4000, threads=1)[seed % 3]
        dims = (spec.source_cols, spec.source_rows)
        p, h = _plain_estimate(spec, dims, full, row.n, 4000, seed=2000 + seed)
        assert 0.0 < row.prob < 1.0 and row.half_width > 0.0 and 0.0 < p < 1.0
        outside["sim"] += abs(row.prob - p) > row.half_width + h
    assert outside["quv"] <= 8 and outside["sim"] <= 8, outside


# (spec, simulate, chunk bytes' fields): chunks of 3 pairs, or of one field
_ORBIT_CASES = {
    "quv-1d": (_CASES["ma"], False, 7),
    "quv-2d-gaussian": (_CASES["minesweeper-gaussian"], False, 7),
    # cK = 1.5 * 8 * 9 = 108: the u lanes' limits are offset by 2cK
    "quv-offset": (
        _spec(
            minesweeper_transform(), MarginalDistribution.gaussian(1.5, 2.0), 12, 12, (3, 3),
            (130.0, 145.0, 160.0),
        ),
        False, 7,
    ),
    "sim-one-field-chunks": (_CASES["minesweeper-gaussian"], True, 1),
}


@pytest.mark.parametrize("name", list(_ORBIT_CASES))
def test_rotated_replicas_tally_like_the_orbits_of_their_pairs(name, monkeypatch):
    """``sum s`` and ``sum s**2`` at 1, 2 and 3 threads equal those recounted from each pair's orbit.

    A request of 2001 replicas (401 of one-field groups) draws ``ceil(N /
    R)`` groups.  The oracle follows ``fields.STREAM_MAP``: it draws chunk
    ``k`` again from its stream, the groups in chunks of 3 pairs, its cells
    in (member, row, col, field) order, field ``i`` of member 0 paired with
    field ``i`` of member 1, permutes
    the fields into their views (``oracles.view_orders``), sums each
    window of each view site by site (``oracles.brute_window_sums``) and
    scores each view of a pair as ``x``, ``y`` and their rotations ``u``
    and ``v`` by 45 degrees, each with its mirror
    (``oracles.view_replicas``), 32 replicas to a pair.  Where a chunk
    holds one field only, a field is a group of its views and their
    mirrors, 8 replicas, and the chunks line counts fields.
    """
    spec, simulate, chunk = _ORBIT_CASES[name]
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "_chunk_size", lambda replica_bytes: chunk)
    task = "sim" if simulate else "quv"
    paired = chunk >= 2
    group, size = (32, chunk // 2) if paired else (8, 1)
    count = 2001 if paired else 401
    groups = -(-count // group)
    assert pipeline.chunk_layout(spec, task, count) == (
        2 if paired else 1, group, groups, size, -(-groups // size),
        groups - (-(-groups // size) - 1) * size,
    )
    if simulate:
        derived_rows, derived_cols = spec.transform.derived_shape(spec.source_rows, spec.source_cols)
        extents = [(derived_rows - spec.m2 + 1, derived_cols - spec.m1 + 1)]
        cols, rows = spec.source_cols, spec.source_rows
    else:
        rows_per_block = 1 if spec.one_dimensional else spec.block2
        extents = [((v - 1) * rows_per_block, (u - 1) * spec.block1) for u, v in pipeline.UV_PAIRS]
        cols, rows = pipeline._field_dims(spec, "quv")[0]
    dist = spec.distribution
    ck = dist.mean * spec.transform.weights.sum().item() * spec.m1 * spec.m2
    orders = view_orders(spec.seed, task, rows * cols, 4)
    thr = np.array(spec.thresholds)
    expected = np.zeros((2, len(extents), thr.size), dtype=np.int64)
    for k, start in enumerate(range(0, groups, size)):
        members, h = (2 if paired else 1), min(size, groups - start)
        rng = SeedSpec.for_chunk(spec.seed, task, k).generator()
        drawn = rng.normal(dist.mean, math.sqrt(dist.variance), (members, rows, cols, h))
        # fields member by member: field i of member 1 becomes field i + h
        block = np.moveaxis(drawn, 0, 2).reshape(rows, cols, members * h)
        flat = block.reshape(rows * cols, members * h)
        replicas = []
        for view in [block] + [flat[order].reshape(block.shape) for order in orders]:
            sums = brute_window_sums(np.moveaxis(view, -1, 0), spec.transform, spec.m1, spec.m2)
            replicas += view_replicas(sums, extents, thr, ck, paired)
        assert len(replicas) == group
        expected += np.array(group_tallies(grouped_replicas(replicas), group))
    # at least two thresholds per extent split the replicas
    assert np.all(((expected[0] > 0) & (expected[0] < group * groups)).sum(axis=1) >= 2)
    for threads in (1, 2, 3):
        if simulate:
            rows_out = simulate_distribution(spec, replicas=count, threads=threads)
            tallies = [[[row.sums for row in rows_out]], [[row.squares for row in rows_out]]]
            tallied = {row.replicas for row in rows_out}
        else:
            records = estimate_quv(dataclasses.replace(spec, iterations=count), threads=threads)
            tallies = [
                [[rec.sums[e] for rec in records] for e in range(4)],
                [[rec.squares[e] for rec in records] for e in range(4)],
            ]
            tallied = {rec.iterations for rec in records}
        assert tallied == {group * groups}
        assert np.array_equal(np.array(tallies), expected), threads


def test_a_mixed_sign_ma_widens_the_half_width_past_wald():
    """MA ``[1, -1, 0]`` sums telescope, so a field and its mirror pass together more often.

    Over two tiles of anchors the excess ``c_hat`` of the per-replica
    variance over ``q(1 - q)``, which the views' covariance adds to the
    mirror's, is positive at ``n = 3.5``, and the half-width grows past
    Wald's.
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
    """A request of one replica, of three, and of a count over sixteen chunks.

    Chunks hold 4 pairs of fields of 32 replicas each, so 2001 replicas
    draw 63 pairs and end in a chunk of 3 pairs.  The tables are compared
    whole but for the wall time and the thread count.
    """
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "_chunk_size", lambda replica_bytes: 9)
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
    pairs = -(-count // 32)
    chunk_count = -(-pairs // 4)
    last = pairs - (chunk_count - 1) * 4
    assert chunks.endswith(f"pairs=4 count={chunk_count} last={last} mirrored=yes views=4")
    assert len(rows) == 3
    notes = [line for line in metadata if line.startswith("# row n=")]
    assert len(notes) == 3 and all(f" N={32 * pairs} R=32" in note for note in notes)


# Bernoulli cells count four replicas to a drawn field, a pair of Gaussian MA fields 32
_ODD_MODELS = {
    "bernoulli": (4, {
        "transform": "minesweeper", "distribution": "bernoulli", "p": 0.5,
        "source_cols": 12, "source_rows": 12, "m1": 3, "m2": 3, "thresholds": [40, 44, 48],
        "seed": 6,
    }),
    "ma": (32, {
        "transform": "ma", "ma_coeffs": [0.3, 0.1, 0.5], "distribution": "gaussian",
        "mean": 0.0, "variance": 1.0, "source_cols": 66, "source_rows": 1, "m1": 20, "m2": 1,
        "thresholds": [3.0, 5.0, 7.0], "seed": 6,
    }),
}


@pytest.mark.parametrize("command", ["approximate", "simulate"])
@pytest.mark.parametrize("model", list(_ODD_MODELS))
def test_a_request_that_r_does_not_divide_writes_the_table_of_the_next_multiple(
    tmp_path, command, model, monkeypatch
):
    """2001 replicas write the table of 2004 over Bernoulli cells, and of 2016 over Gaussian MA.

    Each group, a field or a pair of Gaussian fields, counts as ``R``
    replicas, and a call tallies every replica of every group it draws.
    The data rows and ``# row`` notes of both requests are the same at 1, 2
    and 3 threads, over chunks of 19 fields or 9 pairs, and the notes give
    the count tallied.
    """
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "_chunk_size", lambda replica_bytes: 19)
    group, config = _ODD_MODELS[model]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    size = "--iterations" if command == "approximate" else "--replicas"
    tallied = {"bernoulli": 2004, "ma": 2016}[model]
    tables = []
    for count in (2001, tallied):
        for threads in (1, 2, 3):
            out = tmp_path / f"{count}-t{threads}.tsv"
            argv = [command, "-c", str(path), "-o", str(out), size, str(count), "--raw"]
            assert main(argv + ["--threads", str(threads)]) == 0
            tables.append([
                line for line in out.read_text().splitlines()
                if not line.startswith("#") or line.startswith("# row n=")
            ])
    assert all(table == tables[0] for table in tables)
    notes = [line for line in tables[0] if line.startswith("#")]
    assert len(notes) == 3 and len(tables[0]) == 6
    assert all(f" N={tallied} R={group}" in note for note in notes)


def test_the_cell_limit_counts_the_fields_a_mirrored_call_draws(tmp_path, capsys, monkeypatch):
    """``R`` replicas to a group of fields fit under the limit as the group's fields allow.

    ``R`` is 32 over a pair of Gaussian fields, four views of its eight
    rotations, and 4 over a Bernoulli field; ``F`` fields at the limit hold
    ``floor(F / 2)`` pairs, so ``32 floor(F / 2)`` replicas pass and one
    more is rejected, and ``4 F`` and ``4 F + 1`` over Bernoulli cells,
    through the library and through ``validate-config``.  Where a chunk
    holds one field only, a Gaussian field is a group of ``R = 8``, its
    views and their mirrors.
    """
    spec = _CASES["ma"]
    config = {
        "transform": "ma", "ma_coeffs": [0.3, 0.1, 0.5], "distribution": "gaussian",
        "mean": 0.0, "variance": 1.0, "source_cols": 66, "source_rows": 1, "m1": 20, "m2": 1,
        "thresholds": [3.0],
    }
    limit = pipeline.MAX_DRAWN_CELLS // 66
    pairs = limit // 2
    for replicas, status in ((32 * pairs, 0), (32 * pairs + 1, 2)):
        (tmp_path / "run.json").write_text(json.dumps({**config, "replicas": replicas}))
        assert main(["validate-config", "-c", str(tmp_path / "run.json")]) == status
    assert f"draws {2 * pairs + 2} fields of 66x1 cells" in capsys.readouterr().err
    plain_config = {**config, "distribution": "bernoulli", "p": 0.3, "mean": None, "variance": None}
    for replicas, status in ((4 * limit, 0), (4 * limit + 1, 2)):
        (tmp_path / "run.json").write_text(json.dumps({**plain_config, "replicas": replicas}))
        assert main(["validate-config", "-c", str(tmp_path / "run.json")]) == status
    assert f"replicas = {4 * limit + 1} draws {limit + 1} fields of 66x1" in capsys.readouterr().err
    cols, rows = pipeline._field_dims(spec, "quv")[0]
    fields = pipeline.MAX_DRAWN_CELLS // (cols * rows)
    pairs = fields // 2
    assert dataclasses.replace(spec, iterations=32 * pairs).iterations == 32 * pairs
    with pytest.raises(ParameterError) as err:
        dataclasses.replace(spec, iterations=32 * pairs + 1)
    assert err.value.field == "iterations"
    assert f"iterations = {32 * pairs + 1} draws {2 * pairs + 2} fields of {cols}x{rows} cells" in (
        str(err.value)
    )
    plain = dataclasses.replace(spec, distribution=MarginalDistribution.bernoulli(0.3))
    assert dataclasses.replace(plain, iterations=4 * fields).iterations == 4 * fields
    with pytest.raises(ParameterError):
        dataclasses.replace(plain, iterations=4 * fields + 1)
    monkeypatch.setattr(pipeline, "_chunk_size", lambda replica_bytes: 1)
    layout = pipeline.chunk_layout(spec, "quv", 1)
    assert (layout.fields, layout.group) == (1, 8)
    assert dataclasses.replace(spec, iterations=8 * fields).iterations == 8 * fields
    with pytest.raises(ParameterError) as err:
        dataclasses.replace(spec, iterations=8 * fields + 1)
    assert f"iterations = {8 * fields + 1} draws {fields + 1} fields" in str(err.value)


def test_the_group_half_width_is_wald_for_single_replicas_and_the_pair_form_for_two():
    """``group_estimate`` on synthetic tallies: Wald at ``R = 1``, the mirror pairs' form at ``R = 2``.

    The pair form is ``z * sqrt((p(1 - p) + c_hat) / N)``, ``c_hat = C / U -
    p**2`` with ``C`` the pairs of the ``U`` in which both pass.

    The replicas are drawn with a shared component, so neighbours pass
    together and the pair covariance is well away from 0.
    """
    rng = np.random.default_rng(5)
    common = rng.random(3000).repeat(2)
    passed = (0.6 * common + 0.4 * rng.random(6000)) < 0.55
    total, z = passed.size, 1.96
    p = passed.sum() / total
    sums, squares = group_tallies(passed, 1)
    assert squares == sums
    q, b = pipeline.group_estimate(sums, squares, total, 1, z)
    assert q == p and b == pytest.approx(z * math.sqrt(p * (1.0 - p) / total), rel=1e-12)
    # replica 2i and 2i + 1 form a pair; C counts the pairs in which both pass
    pairs = total // 2
    both = np.sum(passed[0::2] & passed[1::2])
    c_hat = both / pairs - p * p
    assert c_hat > 0.02
    sums, squares = group_tallies(passed, 2)
    q, b = pipeline.group_estimate(sums, squares, pairs, 2, z)
    assert q == p
    assert b == pytest.approx(z * math.sqrt((p * (1.0 - p) + c_hat) / total), rel=1e-12)
    # one group of four, two of which pass: every group count is equal, so b is 0
    q, b = pipeline.group_estimate(2, 4, 1, 4, z)
    assert q == 0.5 and b == 0.0


def test_groups_that_all_pass_or_all_fail_take_the_clopper_pearson_bound():
    """Where every group passes whole, the half-width is ``1 - a**(1 / G)``, ``a = P(Z > z)``.

    A group passes whole with probability at most ``q``, so ``G`` groups
    all do with probability at most ``q**G``; the bound is the ``q`` at
    which that is ``a``.  Groups that all fail whole take the same bound on
    ``1 - q``.
    """
    z = 1.96
    a = 0.5 * math.erfc(z / math.sqrt(2.0))
    for groups, group in ((1, 4), (13, 4), (625, 32), (10**6, 16)):
        q, b = pipeline.group_estimate(groups * group, groups * group**2, groups, group, z)
        assert q == 1.0 and (1.0 - b) ** groups == pytest.approx(a, rel=1e-9)
        assert pipeline.group_estimate(0, 0, groups, group, z) == (0.0, b)
    # lane by lane: whole passes, whole failures, and counts 4, 4, 0, 2, 0 of five groups of 4
    q, b = pipeline.group_estimate([20, 0, 10], [80, 0, 36], 5, 4, z)
    whole = 1.0 - a ** (1 / 5)
    assert q.tolist() == [1.0, 0.0, 0.5]
    assert b == pytest.approx([whole, whole, z * math.sqrt((36 / 5 - 2.0**2) / (4 * 20))], rel=1e-12)


def _exact_row_scan(p, n):
    """``Q_22`` and ``Q_33`` of windows of 3 over 6 Bernoulli(``p``) cells, over all 64 patterns.

    The identity row scan at ``m1 = 3`` has blocks of 2 cells; ``Q_22``
    reads the 2 windows that start in the first block, ``Q_33`` the 4 of
    the whole 6-cell field.
    """
    q22 = q33 = 0.0
    for pattern in range(64):
        cells = [(pattern >> k) & 1 for k in range(6)]
        weight = p ** sum(cells) * (1.0 - p) ** (6 - sum(cells))
        sums = [sum(cells[a : a + 3]) for a in range(4)]
        q22 += weight * (max(sums[:2]) <= n)
        q33 += weight * (max(sums) <= n)
    return q22, q33


def test_group_half_widths_cover_an_exact_q_uv():
    """Over 200 seeds, ``|q - Q| <= b`` for at least 90% of the estimates.

    Identity over 6 Bernoulli(0.3) cells: every view of a field holds the
    same cells, so its views pass together far more often than independent
    replicas, and a half-width that left that out would cover too rarely.
    400 iterations are 100 groups of four.
    """
    spec = ExperimentSpec(
        transform=identity_transform(), distribution=MarginalDistribution.bernoulli(0.3),
        source_cols=6, source_rows=1, m1=3, m2=1, thresholds=(0, 1), iterations=400,
    )
    assert pipeline._field_dims(spec, "quv")[0] == (6, 1)
    assert pipeline.chunk_layout(spec, "quv", spec.iterations)[1:3] == (4, 100)
    exact = [_exact_row_scan(0.3, n) for n in spec.thresholds]
    covered = []
    for seed in range(200):
        for rec, (q22, q33) in zip(estimate_quv(dataclasses.replace(spec, seed=seed)), exact):
            covered += [abs(rec.q22 - q22) <= rec.b22, abs(rec.q33 - q33) <= rec.b33]
    assert np.mean(covered) >= 0.9


def test_every_view_is_a_permutation_of_its_drawn_field(monkeypatch):
    """Each view's take holds, field by field, the drawn field's cells; view 0's in their own order.

    Gaussian cells are distinct, so equal sorted columns make each view a
    permutation of its field; the cell orders of views 1-3 differ from each
    other and from the field's own, which view 0 copies as it is.
    """
    taken, run_passes = [], pipeline.run_passes

    def checking(ops):
        for fn, args, kwargs in ops:
            fn(*args, **kwargs)
            if fn is np.take:
                drawn, order = args
                out = kwargs["out"]
                # (member, cell, field): each member's fields are permuted on their own
                assert np.array_equal(np.sort(out, axis=1), np.sort(drawn, axis=1))
                taken.append((tuple(order), np.array_equal(out, drawn)))

    monkeypatch.setattr(pipeline, "run_passes", checking)
    spec = _CASES["minesweeper-gaussian"]
    for call in (lambda: estimate_quv(spec, threads=1),
                 lambda: simulate_distribution(spec, replicas=800, threads=1)):
        taken.clear()
        call()
        # every chunk takes each of the four views once, in order
        assert taken and len(taken) % 4 == 0
        views = [taken[j::4] for j in range(4)]
        assert all(len(set(view)) == 1 for view in views)
        (identity, same), *others = [view[0] for view in views]
        cells = len(identity)
        assert identity == tuple(range(cells)) and same
        orders = {order for order, _ in others}
        assert len(orders) == 3 and tuple(range(cells)) not in orders
        assert all(sorted(order) == list(range(cells)) for order in orders)
        assert not any(same for _, same in others)
