"""Recorded kernel passes: a kernel given ``ops`` appends its passes and runs none.

The pipeline records a chunk's passes once per worker and chunk shape and
runs them on every chunk, so these tests record once, overwrite the input in
place between runs, and check every result against fresh kernels.
``running_extrema`` only records; its fresh runs here record and then run.
"""
import gc
import weakref
from functools import partial

import numpy as np
import pytest

from blockscan import (
    BlockFactorTransform,
    ExperimentSpec,
    MarginalDistribution,
    SeedSpec,
    estimate_quv,
    identity_transform,
    minesweeper_transform,
    simulate_distribution,
)
from blockscan import pipeline
from blockscan.blockfactor import Buffers, run_passes
from blockscan.errors import GeometryError
from blockscan.scan import running_extrema, window_sums_batch

from oracles import brute_moving_sums, per_site_block_factor, running_tile_maxima

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


def _extrema(sums, tile, *, buffers=None, ops=None):
    """The running maxima of ``sums``'s tiles, as a ``(..., grid_rows, grid_cols)`` view.

    Without ``ops`` the passes are recorded and then run, on fresh
    ``buffers`` without them.
    """
    passes = [] if ops is None else ops
    buffers = Buffers() if buffers is None else buffers
    out = running_extrema(sums, tile, np.maximum, buffers=buffers, ops=passes)
    if ops is None:
        run_passes(passes)
    return np.moveaxis(out, (0, 1), (-2, -1))


KERNELS = {
    "blockfactor": partial(window_sums_batch, transform=minesweeper_transform(), m1=1, m2=1),
    "blockfactor-weighted": partial(window_sums_batch, transform=WEIGHTED, m1=1, m2=1),
    "filter": partial(window_sums_batch, transform=WEIGHTED, m1=3, m2=2),
    "window-sums": partial(window_sums_batch, transform=identity_transform(), m1=3, m2=2),
    "row-sums": partial(window_sums_batch, transform=identity_transform(), m1=5, m2=1),
    "column-sums": partial(window_sums_batch, transform=identity_transform(), m1=1, m2=4),
    "tile-maxima": partial(_extrema, tile=(2, 3)),
    "row-tiles": partial(_extrema, tile=(1, 3)),
    "one-tile": partial(_extrema, tile=(9, 9)),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_replay_reads_an_input_overwritten_in_place(kernel, layout):
    """Passes recorded once and run after each overwrite read the input as it is then."""
    rng = np.random.default_rng(7)
    holder = np.empty((3, 9, 9), dtype=np.int8)
    view = LAYOUTS[layout](holder)
    ops = []
    out = KERNELS[kernel](view, buffers=Buffers(), ops=ops)
    for _ in range(3):
        holder[...] = rng.integers(-4, 5, size=holder.shape)
        run_passes(ops)
        fresh = KERNELS[kernel](view.copy())
        assert out.dtype == fresh.dtype and np.array_equal(out, fresh)


# the per-field oracle of each kernel in KERNELS
ORACLES = {
    "blockfactor": partial(per_site_block_factor, transform=minesweeper_transform()),
    "blockfactor-weighted": partial(per_site_block_factor, transform=WEIGHTED),
    "filter": lambda field: brute_moving_sums(per_site_block_factor(field, WEIGHTED), 3, 2),
    "window-sums": partial(brute_moving_sums, m1=3, m2=2),
    "row-sums": partial(brute_moving_sums, m1=5, m2=1),
    "column-sums": partial(brute_moving_sums, m1=1, m2=4),
    "tile-maxima": partial(running_tile_maxima, tile_rows=2, tile_cols=3),
    "row-tiles": partial(running_tile_maxima, tile_rows=1, tile_cols=3),
    "one-tile": partial(running_tile_maxima, tile_rows=9, tile_cols=9),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_replica_minor_stack_is_read_in_place(kernel):
    """A (rows, cols, replicas) block seen replicas-first: no input copy, replicas stay innermost.

    Also the pipeline's pair of members, a (members, rows, cols, replicas)
    block seen as (members, replicas, rows, cols): one flat run reads across
    the member boundary, whose wrap lanes no result reads.
    """
    rng = np.random.default_rng(13)
    for shape in ((9, 9, 5), (2, 9, 9, 5)):
        block = rng.integers(-4, 5, size=shape).astype(np.int8)
        stack = np.moveaxis(block, -1, -3)
        buffers = Buffers()
        for _ in range(2):
            out = KERNELS[kernel](stack, buffers=buffers)
            assert "input" not in buffers.taken
            assert out.strides[-3] == out.itemsize
            for index in np.ndindex(stack.shape[:-2]):
                assert np.array_equal(out[index], ORACLES[kernel](stack[index]))


@pytest.mark.parametrize("layout", ["contiguous", "replica-minor"])
def test_tile_maxima_leave_out_ragged_edges(layout):
    """Tiles that do not divide the field: the edge rows and columns are read by no tile."""
    rng = np.random.default_rng(17)
    holder = np.empty((3, 9, 9), dtype=np.int16)
    holder[...] = rng.integers(-50, 50, size=holder.shape)
    stack = LAYOUTS[layout](holder)
    for tile in ((2, 4), (4, 2), (5, 5), (9, 4), (2, 9), (1, 4)):
        tiles = _extrema(stack, tile)
        assert tiles.shape == (3, 9 // tile[0], 9 // tile[1])
        # a maximum in the ragged edge changes no tile
        raised = LAYOUTS[layout](holder.copy())
        raised[:, 9 // tile[0] * tile[0] :, :] = 99
        raised[:, :, 9 // tile[1] * tile[1] :] = 99
        assert np.array_equal(_extrema(raised, tile), tiles)
        for index in range(3):
            assert np.array_equal(tiles[index], running_tile_maxima(stack[index], *tile))


BAD_CALLS = {
    "blockfactor": (
        KERNELS["blockfactor"],
        # a transform one column wider than the source
        partial(
            window_sums_batch, m1=1, m2=1,
            transform=BlockFactorTransform(name="wide", weights=np.ones((3, 10), dtype=np.int64)),
        ),
    ),
    "window-sums": (
        # a window one column wider than the block factor
        partial(window_sums_batch, transform=minesweeper_transform(), m1=3, m2=3),
        partial(window_sums_batch, transform=minesweeper_transform(), m1=8, m2=3),
    ),
}


@pytest.mark.parametrize("kernel", sorted(BAD_CALLS))
def test_a_bad_input_after_a_good_one_still_raises(kernel):
    """A bad input raises on every call, run or recorded, and records no pass."""
    good, bad = BAD_CALLS[kernel]
    source = np.random.default_rng(3).integers(0, 2, size=(2, 9, 9)).astype(np.int8)
    buffers, ops = Buffers(), []
    out = good(source, buffers=buffers, ops=ops)
    recorded = len(ops)
    for _ in range(2):
        with pytest.raises(GeometryError):
            bad(source, buffers=buffers)
        with pytest.raises(GeometryError):
            bad(source, buffers=buffers, ops=ops)
    assert len(ops) == recorded
    run_passes(ops)
    assert np.array_equal(out, good(source))


class _Junk(Buffers):
    """Fills every array it hands out with junk bytes, so a pass that ran would show."""

    def take(self, name, size, dtype):
        out = super().take(name, size, dtype)
        out.view(np.uint8).fill(0xA5)
        return out


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_recording_runs_no_pass(kernel):
    source = np.random.default_rng(5).integers(-4, 5, size=(3, 9, 9)).astype(np.int8)
    ops = []
    out = KERNELS[kernel](source, buffers=_Junk(), ops=ops)
    # the result still holds the junk its array was taken with
    assert ops and out.tobytes() == b"\xa5" * out.nbytes
    run_passes(ops)
    assert np.array_equal(out, KERNELS[kernel](source))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_recorded_chunk_plan_reruns_on_an_overwritten_block(layout):
    """Both kernels recorded into one plan: each run equals fresh kernels on the block as it is."""
    holder = np.empty((3, 9, 9), dtype=np.int8)
    view = LAYOUTS[layout](holder)
    transform = minesweeper_transform()

    def kernels(source, **kwargs):
        sums = window_sums_batch(source, transform, 3, 2, **kwargs)
        return sums, _extrema(sums, (2, 3), **kwargs)

    ops = []
    plan = kernels(view, buffers=_Junk(), ops=ops)
    assert all(out.tobytes() == b"\xa5" * out.nbytes for out in plan)
    rng = np.random.default_rng(5)
    for _ in range(3):
        holder[...] = rng.integers(0, 2, size=holder.shape)
        run_passes(ops)
        for out, fresh in zip(plan, kernels(view.copy())):
            assert out.dtype == fresh.dtype and np.array_equal(out, fresh)


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
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    spec = ExperimentSpec(
        source_cols=20,
        source_rows=20,
        m1=3,
        m2=3,
        distribution=MarginalDistribution.bernoulli(0.5),
        transform=minesweeper_transform(),
        thresholds=(30.0, 32.0),
        iterations=2000,
        seed=5,
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
