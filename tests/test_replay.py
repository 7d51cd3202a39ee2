"""Recorded kernel passes (``Buffers.replay``): replays read the input as it is now.

A kernel given ``buffers`` records its passes on the first call with an
input layout and parameters and replays them on later calls, so these tests
overwrite an input in place between calls, change one key part at a time,
and check every result against a fresh ``Buffers()``.
"""
import gc
import weakref
from functools import partial

import numpy as np
import pytest

from blockscan import (
    BlockFactorTransform,
    ExperimentSpec,
    LatticeGeometry,
    MarginalDistribution,
    ScanGeometry,
    SeedSpec,
    brute_moving_sums,
    configuration_matrix,
    estimate_quv,
    minesweeper_transform,
    simulate_distribution,
)
from blockscan import pipeline
from blockscan.blockfactor import Buffers, _layout, apply_block_factor_batch
from blockscan.errors import GeometryError
from blockscan.scan import tile_maxima, window_sums_batch

GEOM = LatticeGeometry(9, 9, 1, 1, 1, 1)
# weights other than 0 and 1 take the scratch pass of the block factor
WEIGHTED = BlockFactorTransform(
    name="weighted", weights=np.array([[0, 2, -1], [3, 0, 1], [1, 1, -4]])
)

# views of a (3, 9, 9) holder: the flat layout reads the contiguous, the
# transposed and the replica-minor ones in place, and copies the reversed
# one, whose negative stride it cannot describe, into a slot
LAYOUTS = {
    "contiguous": lambda holder: holder,
    "transposed": lambda holder: holder.transpose(0, 2, 1),
    "replica-minor": lambda holder: np.moveaxis(holder.reshape(9, 9, 3), -1, 0),
    "reversed": lambda holder: holder[:, ::-1, :],
}

KERNELS = {
    "blockfactor": partial(apply_block_factor_batch, transform=minesweeper_transform(), geom=GEOM),
    "blockfactor-weighted": partial(apply_block_factor_batch, transform=WEIGHTED, geom=GEOM),
    "window-sums": partial(window_sums_batch, m1=3, m2=2),
    "row-sums": partial(window_sums_batch, m1=5, m2=1),
    "tile-maxima": partial(tile_maxima, tile_rows=2, tile_cols=3),
    "row-tiles": partial(tile_maxima, tile_rows=1, tile_cols=3),
    "one-tile": partial(tile_maxima, tile_rows=9, tile_cols=9),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_replay_reads_an_input_overwritten_in_place(kernel, layout):
    rng = np.random.default_rng(7)
    holder = np.empty((3, 9, 9), dtype=np.int8)
    view = LAYOUTS[layout](holder)
    buffers = Buffers()
    first = None
    for _ in range(3):
        holder[...] = rng.integers(-4, 5, size=holder.shape)
        out = KERNELS[kernel](view, buffers=buffers)
        fresh = KERNELS[kernel](view.copy(), buffers=Buffers())
        assert out.dtype == fresh.dtype and np.array_equal(out, fresh)
        # a replay hands back the same array object, rewritten
        first = out if first is None else first
        assert out is first


def _per_tile_maxima(field, tile_rows, tile_cols):
    rows, cols = field.shape[0] // tile_rows, field.shape[1] // tile_cols
    return np.array([
        [field[r * tile_rows : (r + 1) * tile_rows, c * tile_cols : (c + 1) * tile_cols].max()
         for c in range(cols)]
        for r in range(rows)
    ])


def _per_site_block_factor(transform):
    def oracle(field):
        return np.array([
            [transform(configuration_matrix(field, i + 2, j + 2, GEOM))
             for i in range(GEOM.derived_cols)]
            for j in range(GEOM.derived_rows)
        ])

    return oracle


# the per-field oracle of each kernel in KERNELS
ORACLES = {
    "blockfactor": _per_site_block_factor(minesweeper_transform()),
    "blockfactor-weighted": _per_site_block_factor(WEIGHTED),
    "window-sums": partial(brute_moving_sums, m1=3, m2=2),
    "row-sums": partial(brute_moving_sums, m1=5, m2=1),
    "tile-maxima": partial(_per_tile_maxima, tile_rows=2, tile_cols=3),
    "row-tiles": partial(_per_tile_maxima, tile_rows=1, tile_cols=3),
    "one-tile": partial(_per_tile_maxima, tile_rows=9, tile_cols=9),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_replica_minor_stack_is_read_in_place(kernel):
    """A (rows, cols, replicas) block seen replicas-first: no input copy, replicas stay innermost."""
    block = np.random.default_rng(13).integers(-4, 5, size=(9, 9, 5)).astype(np.int8)
    stack = np.moveaxis(block, -1, 0)
    buffers = Buffers()
    for _ in range(2):
        out = KERNELS[kernel](stack, buffers=buffers)
        assert not [name for name in buffers.taken if name.endswith(".input")]
        assert out.strides[0] == out.itemsize
        for index in range(len(stack)):
            assert np.array_equal(out[index], ORACLES[kernel](stack[index]))


@pytest.mark.parametrize("layout", ["contiguous", "replica-minor"])
def test_tile_maxima_leave_out_ragged_edges(layout):
    """Tiles that do not divide the field: the edge rows and columns are read by no tile."""
    rng = np.random.default_rng(17)
    holder = np.empty((3, 9, 9), dtype=np.int16)
    holder[...] = rng.integers(-50, 50, size=holder.shape)
    stack = LAYOUTS[layout](holder)
    for tile_rows, tile_cols in ((2, 4), (4, 2), (5, 5), (9, 4), (2, 9), (1, 4)):
        tiles = tile_maxima(stack, tile_rows, tile_cols)
        assert tiles.shape == (3, 9 // tile_rows, 9 // tile_cols)
        # a maximum in the ragged edge changes no tile
        raised = LAYOUTS[layout](holder.copy())
        raised[:, 9 // tile_rows * tile_rows :, :] = 99
        raised[:, :, 9 // tile_cols * tile_cols :] = 99
        assert np.array_equal(tile_maxima(raised, tile_rows, tile_cols), tiles)
        for index in range(3):
            assert np.array_equal(tiles[index], _per_tile_maxima(stack[index], tile_rows, tile_cols))


def _key_pairs():
    rng = np.random.default_rng(11)
    ints = rng.integers(0, 2, size=(2, 9, 9)).astype(np.int8)
    bools = rng.random((2, 9, 9)) < 0.5
    # two views from the same address, one of them every other column
    wide = rng.integers(0, 9, size=(2, 9, 18)).astype(np.int8)
    return {
        "memory-blockfactor": (
            partial(apply_block_factor_batch, ints, minesweeper_transform(), GEOM),
            partial(apply_block_factor_batch, 1 - ints, minesweeper_transform(), GEOM),
        ),
        "memory-window-sums": (
            partial(window_sums_batch, ints, 3, 3), partial(window_sums_batch, 1 - ints, 3, 3)
        ),
        "memory-tile-maxima": (partial(tile_maxima, ints, 2, 3), partial(tile_maxima, -ints, 2, 3)),
        "strides": (
            partial(window_sums_batch, wide[..., :9], 3, 3),
            partial(window_sums_batch, wide[..., ::2], 3, 3),
        ),
        "m1": (partial(window_sums_batch, ints, 3, 2), partial(window_sums_batch, ints, 2, 2)),
        # bound 1 narrows the 3x3 sums of int8 from int16 to int8
        "bound": (
            partial(window_sums_batch, ints, 3, 3), partial(window_sums_batch, ints, 3, 3, bound=1)
        ),
        "tile": (partial(tile_maxima, ints, 2, 3), partial(tile_maxima, ints, 3, 2)),
        "transform": (
            partial(apply_block_factor_batch, ints, minesweeper_transform(), GEOM),
            partial(apply_block_factor_batch, ints, WEIGHTED, GEOM),
        ),
        # the same memory as bool and as int8: int8 sums versus int16 sums
        "dtype-blockfactor": (
            partial(apply_block_factor_batch, bools, minesweeper_transform(), GEOM),
            partial(apply_block_factor_batch, bools.view(np.int8), minesweeper_transform(), GEOM),
        ),
        "dtype-window-sums": (
            partial(window_sums_batch, bools, 3, 3),
            partial(window_sums_batch, bools.view(np.int8), 3, 3),
        ),
    }


@pytest.mark.parametrize("part", sorted(_key_pairs()))
def test_changing_a_key_part_rebuilds_the_plan(part):
    first, second = _key_pairs()[part]
    buffers = Buffers()
    seen = []
    for call in (first, second, first, second):
        out = call(buffers=buffers)
        fresh = call()
        assert out.dtype == fresh.dtype and np.array_equal(out, fresh)
        seen.append((out.dtype, out.shape, out.tobytes()))
    # each pair gives different results, so a replay of the other plan would show
    assert seen[0] != seen[1]


BAD_CALLS = {
    "blockfactor": (
        partial(apply_block_factor_batch, transform=minesweeper_transform(), geom=GEOM),
        partial(
            apply_block_factor_batch,
            transform=minesweeper_transform(),
            geom=GEOM.with_source(10, 9),
        ),
    ),
    "window-sums": (
        partial(window_sums_batch, m1=3, m2=3), partial(window_sums_batch, m1=10, m2=3)
    ),
    "tile-maxima": (
        partial(tile_maxima, tile_rows=2, tile_cols=2),
        partial(tile_maxima, tile_rows=2, tile_cols=10),
    ),
}


@pytest.mark.parametrize("kernel", sorted(BAD_CALLS))
def test_a_bad_input_after_a_good_one_still_raises(kernel):
    good, bad = BAD_CALLS[kernel]
    source = np.random.default_rng(3).integers(0, 2, size=(2, 9, 9)).astype(np.int8)
    buffers = Buffers()
    good(source, buffers=buffers)
    for _ in range(2):
        with pytest.raises(GeometryError):
            bad(source, buffers=buffers)
    assert np.array_equal(good(source, buffers=buffers), good(source))


class _Junk(Buffers):
    """Fills every array it hands out with junk bytes, so a pass that ran would show."""

    def take(self, name, size, dtype):
        out = super().take(name, size, dtype)
        out.view(np.uint8).fill(0xA5)
        return out


class _Builds(_Junk):
    """Names the plan of every ``build`` it calls, in order."""

    def __init__(self, layout=None):
        super().__init__(layout)
        self.built = []

    def replay(self, key, build):
        def recording(ops):
            self.built.append(key[0])
            return build(ops)

        return super().replay(key, recording)


# one object, since a transform is a key part that compares by identity
MINESWEEPER = minesweeper_transform()


def _outer(buffers, source, m1, spy=None):
    """A plan that calls two kernels: the m1 x 3 window sums of the block factor of ``source``."""

    def build(ops):
        derived = apply_block_factor_batch(source, MINESWEEPER, GEOM, buffers=buffers)
        sums = window_sums_batch(derived, m1, 3, buffers=buffers)
        if spy is not None:
            spy(ops, derived, sums)
        return sums

    return buffers.replay(("outer", *_layout(source), m1), build)


def _fresh(source, m1):
    return window_sums_batch(apply_block_factor_batch(source, MINESWEEPER, GEOM), m1, 3)


def test_an_enclosing_build_records_the_kernels_and_each_replay_runs_every_pass_once():
    source = np.empty((3, 9, 9), dtype=np.int8)
    buffers = _Junk()
    runs, seen = [], {}

    def counted(index, fn):
        def run(*args, **kwargs):
            runs[index] += 1
            return fn(*args, **kwargs)

        return run

    def spy(ops, derived, sums):
        # the kernels recorded their passes and ran none: both still hold junk
        for out in (derived, sums):
            assert out.tobytes() == b"\xa5" * out.nbytes
        runs.extend([0] * len(ops))
        ops[:] = [(counted(index, fn), args, kwargs) for index, (fn, args, kwargs) in enumerate(ops)]
        seen.update(derived=derived, sums=sums)

    rng = np.random.default_rng(5)
    for call in (1, 2, 3):
        source[...] = rng.integers(0, 2, size=source.shape)
        out = _outer(buffers, source, 3, spy)
        assert out is seen["sums"] and np.array_equal(out, _fresh(source, 3))
        assert len(runs) > 2 and runs == [call] * len(runs)
    # the kernels keep their own plans: called alone, each runs its plan again
    source[...] = 1 - source
    derived = apply_block_factor_batch(source, MINESWEEPER, GEOM, buffers=buffers)
    assert derived is seen["derived"]
    assert np.array_equal(window_sums_batch(derived, 3, 3, buffers=buffers), _fresh(source, 3))
    assert runs == [3] * len(runs)


def test_a_changed_inner_key_rebuilds_that_kernels_plan():
    source = np.random.default_rng(9).integers(0, 2, size=(3, 9, 9)).astype(np.int8)
    buffers = _Builds()
    built = [["outer", "blockfactor", "scan.sums"], [], ["outer", "scan.sums"], ["outer", "scan.sums"]]
    for m1, names in zip((3, 3, 2, 3), built):
        buffers.built.clear()
        out = _outer(buffers, source, m1)
        assert np.array_equal(out, _fresh(source, m1))
        assert buffers.built == names


def test_a_bad_inner_input_raises_on_every_call_and_keeps_no_outer_plan():
    source = np.random.default_rng(3).integers(0, 2, size=(2, 9, 9)).astype(np.int8)
    buffers = _Builds()
    _outer(buffers, source, 3)
    for _ in range(2):
        with pytest.raises(GeometryError):
            _outer(buffers, source, 8)  # wider than the 7 derived columns
    assert buffers.built.count("outer") == 3
    # no recording is left open: the good plan is kept and runs on the data as it is now
    source[...] = 1 - source
    assert np.array_equal(_outer(buffers, source, 3), _fresh(source, 3))
    assert buffers.built.count("outer") == 3


class _Tracked(pipeline.Buffers):
    """Keeps a weak reference to every worker block."""

    refs = []

    def __init__(self, layout=None):
        super().__init__(layout)
        self.refs.append(weakref.ref(self))


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_buffers_die_with_the_call_without_the_cycle_collector(threads, monkeypatch):
    """A reference cycle would keep each worker block alive until ``gc`` runs, raising peak RSS."""
    monkeypatch.setattr(_Tracked, "refs", [])
    monkeypatch.setattr(pipeline, "Buffers", _Tracked)
    # 20 chunks of 100 replicas, so both threads take chunks
    monkeypatch.setattr(pipeline, "_chunk_size", lambda replica_bytes: 100)
    t, extents = minesweeper_transform(), (1, 1, 1, 1)
    spec = ExperimentSpec(
        geometry=LatticeGeometry(20, 20, *extents),
        scan=ScanGeometry(3, 3),
        distribution=MarginalDistribution.bernoulli(0.5),
        transform=t,
        thresholds=(30.0, 32.0),
        iterations=2000,
        seed=SeedSpec(5),
    )
    gc.collect()
    gc.disable()
    try:
        for run in (
            lambda: estimate_quv(spec, threads=threads),
            lambda: simulate_distribution(spec, replicas=2000, threads=threads),
        ):
            _Tracked.refs.clear()
            run()
            assert _Tracked.refs and all(ref() is None for ref in _Tracked.refs)
    finally:
        gc.enable()
