"""The one kernel from source cells to window sums, and the tile maxima of those sums.

A linear block factor and a window sum compose into one linear filter of
the i.i.d. source, recorded by ``window_sums_batch`` on one flat 1-D layout
of the whole stack: the transform's shifted adds, then the window sum,
which is separable: width-``m1`` running sums along each row, then
height-``m2`` running sums of those along each column.  Each running sum is
built by doubling, adding shifted copies of blocks of width 1, 2, 4, ...
and combining the blocks named by the set bits of ``m``, so a window of
side ``m`` costs O(log m) array passes and no prefix sums.  Every pass is
one contiguous array operation over the whole stack.  Integer sources under
integer weights sum exactly in the narrowest integer dtype that their dtype
allows; everything else sums in float64, each result a short tree of terms.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .blockfactor import BlockFactorTransform, Buffers, narrow_int, run_passes
from .errors import GeometryError


def _running_sums(
    x: np.ndarray, m: int, step: int, out: np.ndarray, buffers: Buffers, ops: list
) -> None:
    """Record into ``ops`` the passes writing ``sum(x[k + i * step] for i < m)`` to ``out[k]``.

    ``block`` holds the width-``w`` running sums for ``w`` = 1, 2, 4, ...,
    built by doubling in ``out.dtype`` in ``scratch0`` and ``scratch1`` of
    ``buffers`` in turn; the block of each set bit of ``m`` is added in at
    the offset the lower bits already cover.  Every pass is one contiguous
    1-D ufunc.  The first piece stays a view until the second is added into
    ``out``; it is copied there first only if its block is about to be
    overwritten, and last if it is the only piece.
    """
    n, dtype = out.size, out.dtype
    # the pieces so far, the scratch index holding them and the one holding block
    total = held = here = None
    block, width, offset = x, 1, 0
    while True:
        if m & width:
            piece = block[offset * step : offset * step + n]
            if total is None:
                total, held = piece, here
            else:
                ops.append((np.add, (total, piece), {"out": out, "dtype": dtype}))
                total, held = out, None
            offset += width
        if 2 * width > m:
            break
        there = 1 if here == 0 else 0
        if held == there:
            ops.append((np.copyto, (out, total), {}))
            total, held = out, None
        length = block.size - width * step
        doubled = buffers.take(f"scratch{there}", length, dtype)
        ops.append((
            np.add, (block[:length], block[width * step : width * step + length]),
            {"out": doubled, "dtype": dtype},
        ))
        block, here, width = doubled, there, 2 * width
    if total is not out:
        ops.append((np.copyto, (out, total), {}))


def window_sums_batch(
    source: np.ndarray,
    transform: BlockFactorTransform,
    m1: int,
    m2: int,
    *,
    buffers: Buffers | None = None,
    ops: list | None = None,
) -> np.ndarray:
    """Every ``m1 x m2`` window sum of the block factor of a ``(..., rows, cols)`` source stack.

    The block factor and the window sums are one linear filter of the
    source.  The result is ``(..., rows - c2 - m2 + 2, cols - c1 - m1 + 2)``,
    the derived lattice read off ``source.shape``
    (``BlockFactorTransform.derived_shape``) less each window side but one;
    ``window_sums_batch(source, t, 1, 1)`` is the block factor alone, and
    ``identity_transform()`` sums the source itself.

    ``source`` is read as one 1-D run ``flat`` over its memory with row step
    ``R`` and column step ``C``, its strides in items: element ``(..., r,
    c)`` is ``flat[lead + r * R + c * C]``, so a shift by ``(s, t)`` is the
    offset ``s * R + t * C`` and every pass is one contiguous 1-D ufunc over
    the whole stack.  Lane ``k`` of each pass holds the result anchored at
    ``flat[k]``; lanes that wrap across a row (or, in a replicas-first
    stack, a replica) are computed but never read.  A source with a stride
    that is not a positive multiple of its item size is first copied into
    the ``input`` array of ``buffers`` by a recorded ``np.copyto``.

    The passes, on the same ``R`` and ``C``: the transform's shifted adds
    into ``blockfactor`` (weighted terms through ``scratch0``), width-``m1``
    running sums along the rows into ``source``, and height-``m2`` running
    sums of those along the columns back into ``blockfactor``, which the
    row pass has read.  A side of 1 has no pass: each pass writes the one
    of the two slots that it does not read, and the result is a strided
    view of the last one written.  The slots are arrays of ``buffers``
    (fresh without it), so the next call on the same ``buffers`` overwrites
    the result.  A caller may hold its source in the ``source`` array of
    ``buffers``: only the shifted adds read it, and they run before the
    first window pass writes that slot.  Given ``ops``, the passes are
    appended to it as ``(function, args, kwargs)`` triples and none runs:
    ``run_passes`` runs them, and every run reads ``source`` as it is then.
    Without it they run before the call returns.  Each replica's sums
    depend on its own source only.

    Integer and bool sources under integer weights give exact sums: the
    block factor in ``narrow_int(source.dtype, sum|w|)`` and the window
    sums in ``narrow_int(source.dtype, sum|w| * m1 * m2)``, sized by the
    dtype alone: minesweeper sums of bool cells over 3x3 windows are int8,
    and those of int64 cells int64.  The values are exact, but the narrow
    dtype can overflow in later arithmetic (``out * out`` on int8), so
    widen first.  Everything else sums in float64, each result a short tree
    of shifted terms.
    """
    if source.ndim < 2:
        raise GeometryError(f"source shape {source.shape} has no (rows, cols) axes")
    rows, cols = transform.derived_shape(*source.shape[-2:])
    if not (1 <= m1 <= cols and 1 <= m2 <= rows):
        raise GeometryError(f"window {m1}x{m2} does not fit in {cols}x{rows} field")
    buffers = Buffers() if buffers is None else buffers
    passes = [] if ops is None else ops
    # derived[j, i] = sum_{s, t} weights[c2-1-s, t] * source[j+s, i+t]
    kernel = transform.weights[::-1, :]
    if np.issubdtype(kernel.dtype, np.integer):
        gain = int(np.abs(kernel).sum())
        derived_dtype = narrow_int(source.dtype, gain)
        dtype = narrow_int(source.dtype, gain * m1 * m2)
    else:
        derived_dtype = dtype = np.dtype(np.float64)
    out_shape = source.shape[:-2] + (rows - m2 + 1, cols - m1 + 1)
    if source.size == 0:
        return buffers.take("blockfactor", 0, dtype).reshape(out_shape)
    arr = source
    if arr.dtype == np.bool_ and derived_dtype == np.int8:
        # the same bytes, 0 or 1: int8 adds then need no cast of their input
        arr = arr.view(np.int8)
    size = arr.itemsize
    if any(n > 1 and (st <= 0 or st % size) for n, st in zip(arr.shape, arr.strides)):
        copy = buffers.take("input", arr.size, arr.dtype).reshape(arr.shape)
        passes.append((np.copyto, (copy, arr), {}))
        arr = copy
    steps = [st // size if n > 1 else 0 for n, st in zip(arr.shape, arr.strides)]
    span = 1 + sum((n - 1) * step for n, step in zip(arr.shape, steps))
    row_step, col_step = steps[-2:]
    flat = as_strided(arr, shape=(span,), strides=(size,), writeable=False)

    length = span - (transform.c2 - 1) * row_step - (transform.c1 - 1) * col_step
    values = buffers.take("blockfactor", length, derived_dtype)
    first = True
    for s in range(transform.c2):
        for t in range(transform.c1):
            w = kernel[s, t]
            if w == 0:
                continue
            start = s * row_step + t * col_step
            view = flat[start : start + length]
            if first:
                if w == 1:
                    passes.append((np.copyto, (values, view), {"casting": "unsafe"}))
                else:
                    passes.append((np.multiply, (view, w), {"out": values, "dtype": derived_dtype}))
                first = False
            elif w == 1:
                passes.append((np.add, (values, view), {"out": values}))
            else:
                scratch = buffers.take("scratch0", length, derived_dtype)
                passes.append((np.multiply, (view, w), {"out": scratch, "dtype": derived_dtype}))
                passes.append((np.add, (values, scratch), {"out": values}))
    if first:
        passes.append((values.fill, (0,), {}))

    slot = "blockfactor"
    for m, step in ((m1, col_step), (m2, row_step)):
        if m > 1:
            slot = "source" if slot == "blockfactor" else "blockfactor"
            sums = buffers.take(slot, values.size - (m - 1) * step, dtype)
            _running_sums(values, m, step, sums, buffers, passes)
            values = sums
    if ops is None:
        run_passes(passes)
    strides = [step * values.itemsize for step in steps]
    return np.ndarray(out_shape, dtype=values.dtype, buffer=values, strides=strides)


def tile_maxima(
    arr: np.ndarray,
    tile_rows: int,
    tile_cols: int,
    ufunc: np.ufunc = np.maximum,
    *,
    buffers: Buffers | None = None,
    ops: list | None = None,
) -> np.ndarray:
    """Maximum of each disjoint ``tile_rows x tile_cols`` tile of the trailing two axes.

    ``ufunc`` is the reduction: ``np.minimum`` gives each tile's minimum.
    The tiles cover ``arr`` from its first row and column; a ragged edge is
    left out.  Returns ``(..., rows // tile_rows, cols // tile_cols)``, a
    view of the ``scan.tiles`` array of ``buffers`` (fresh without them);
    ``ops`` records the passes instead of running them, as in
    ``window_sums_batch``.  The
    view ``(grid_rows, tile_rows, grid_cols, tile_cols, ...)`` of ``arr``,
    built from its strides so that it never copies, is reduced over the
    tile rows into a band in ``scratch0``, whose inner runs are whole rows
    (a one-row tile is its own band), and the band over the tile columns
    into ``scan.tiles`` laid out ``(grid_rows, grid_cols, ...)``: the stack
    axes stay innermost, where a replica-minor stack keeps its replicas
    contiguous.
    """
    rows, cols = arr.shape[-2:]
    if not (1 <= tile_cols <= cols and 1 <= tile_rows <= rows):
        raise GeometryError(
            f"tile {tile_cols}x{tile_rows} does not fit in {cols}x{rows} array"
        )
    buffers = Buffers() if buffers is None else buffers
    passes = [] if ops is None else ops
    grid, lead = (rows // tile_rows, cols // tile_cols), arr.shape[:-2]
    row, col = arr.strides[-2:]
    shape = (grid[0], tile_rows, grid[1], tile_cols) + lead
    strides = (row * tile_rows, row, col * tile_cols, col) + arr.strides[:-2]
    split = as_strided(arr, shape, strides, writeable=False)
    if tile_rows > 1:
        band = buffers.take("scratch0", split[:, 0].size, arr.dtype).reshape(split[:, 0].shape)
        passes.append((ufunc.reduce, (split,), {"axis": 1, "out": band}))
        split = band[:, None]
    out = buffers.take("scan.tiles", math.prod(grid + lead), arr.dtype).reshape(grid + lead)
    passes.append((ufunc.reduce, (split[:, 0],), {"axis": 2, "out": out}))
    if ops is None:
        run_passes(passes)
    return np.moveaxis(out, (0, 1), (-2, -1))
