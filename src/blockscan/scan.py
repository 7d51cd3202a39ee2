"""The one kernel from source cells to window sums, and the running extrema of their tiles.

A linear block factor and a window sum compose into one linear filter of
the i.i.d. source, recorded by ``window_sums_batch`` on one flat 1-D layout
of the whole stack: the transform's shifted adds, then the window sum,
which is separable: width-``m1`` running sums along each row, then
height-``m2`` running sums of those along each column.  Each running sum is
one chain over the bits of ``m``: a block doubles its width per bit and
takes one more shifted cell where the bit is set, so a window of side
``m`` costs O(log m) array passes, no copy and no prefix sums.  Every pass
is one contiguous array operation over the whole stack.  Integer sources under
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
) -> np.ndarray:
    """Record into ``ops`` the passes of ``sum(x[k + i * step] for i < m)``; return where they land.

    One chain over the bits of ``m`` below its top one, highest first,
    starting from ``x``, a block of width ``w = 1``: each bit doubles the
    block, ``block + block[w * step:]`` in ``out.dtype``, and a set bit
    then adds ``x[2w * step:]`` into the doubled block in place.  So a
    window of side ``m`` costs ``floor(log2 m) + popcount(m) - 1``
    contiguous 1-D passes and no copy.  The doublings alternate between
    ``out`` and the ``scratch0`` of ``buffers`` so that the last one lands
    in ``out``: only ``m >= 4`` takes ``scratch0``.  ``out`` has room for
    ``x.size`` lanes, and the result is its first ``x.size - (m - 1) *
    step``, or ``x`` itself at ``m = 1``.
    """
    block, width, dtype = x, 1, out.dtype
    for bit in reversed(range(m.bit_length() - 1)):
        length = block.size - width * step
        doubled = out[:length] if bit % 2 == 0 else buffers.take("scratch0", length, dtype)
        ops.append((
            np.add, (block[:length], block[width * step :]), {"out": doubled, "dtype": dtype}
        ))
        block, width = doubled, 2 * width
        if m >> bit & 1:
            block = block[: length - step]
            ops.append((np.add, (block, x[width * step :]), {"out": block, "dtype": dtype}))
            width += 1
    return block


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
    stack, a replica or a pair's member) are computed but never read; they
    measured as no cost even where they take a worker block past a core's
    2 MiB of L2 (README).  A source with a stride that is not a positive
    multiple of its item size is first copied into the ``input`` array of
    ``buffers`` by a recorded ``np.copyto``.

    The passes, on the same ``R`` and ``C``: the transform's shifted adds
    into ``blockfactor`` (the first two unit terms in one add, else a
    multiply by the first weight; later weighted terms through
    ``scratch0``), width-``m1`` running sums along the rows into
    ``source``, and height-``m2`` running sums of those along the columns
    back into ``blockfactor``, which the row pass has read (sides of 4 and
    up double through ``scratch0`` too, ``_running_sums``).  A
    side of 1 has no pass, and the result is a strided view of the slot
    the last pass wrote.  The slots are arrays of ``buffers``
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
    terms = [
        (flat[s * row_step + t * col_step :][:length], kernel[s, t])
        for s in range(transform.c2)
        for t in range(transform.c1)
        if kernel[s, t] != 0
    ]
    if not terms:
        passes.append((values.fill, (0,), {}))
    elif len(terms) > 1 and terms[0][1] == terms[1][1] == 1:
        # the first two unit terms in one pass
        both = (terms[0][0], terms.pop(1)[0])
        passes.append((np.add, both, {"out": values, "dtype": derived_dtype}))
    else:
        # a lone unit weight too: x * 1 is x exactly on int and float lanes
        passes.append((np.multiply, terms[0], {"out": values, "dtype": derived_dtype}))
    for view, w in terms[1:]:
        if w == 1:
            passes.append((np.add, (values, view), {"out": values}))
        else:
            scratch = buffers.take("scratch0", length, derived_dtype)
            passes.append((np.multiply, (view, w), {"out": scratch, "dtype": derived_dtype}))
            passes.append((np.add, (values, scratch), {"out": values}))

    slot = "blockfactor"
    for m, step in ((m1, col_step), (m2, row_step)):
        if m > 1:
            slot = "source" if slot == "blockfactor" else "blockfactor"
            out = buffers.take(slot, values.size, dtype)
            values = _running_sums(values, m, step, out, buffers, passes)
    if ops is None:
        run_passes(passes)
    strides = [step * values.itemsize for step in steps]
    return np.ndarray(out_shape, dtype=values.dtype, buffer=values, strides=strides)


def running_extrema(
    sums: np.ndarray, tile: tuple, reduce: np.ufunc, *, buffers: Buffers, ops: list
) -> np.ndarray:
    """Record the running ``reduce`` (``np.maximum`` or ``np.minimum``) over the tiles of ``sums``.

    The disjoint ``tile = (rows, cols)`` tiles cover the trailing two axes
    from the first row and column; a ragged edge is left out.  The view
    ``(grid_rows, tile_rows, grid_cols, tile_cols, ...)`` of ``sums``, built
    from its strides so that it never copies, is reduced over the tile rows
    into a band in ``scratch0`` whose inner runs are whole rows (a one-row
    tile is its own band), then over the tile columns into ``scan.tiles``,
    grid first, so that the stack axes stay innermost; the tile extrema then
    run down and across the grid in place.  Returns that ``(grid_rows,
    grid_cols, ...)`` view, at ``(i, k)`` the extremum over the leading ``(i
    + 1) x (k + 1)`` tiles.  The passes are appended to ``ops``; none runs.
    """
    tile_rows, tile_cols = tile
    grid, lead = (sums.shape[-2] // tile_rows, sums.shape[-1] // tile_cols), sums.shape[:-2]
    row, col = sums.strides[-2:]
    shape = (grid[0], tile_rows, grid[1], tile_cols) + lead
    strides = (row * tile_rows, row, col * tile_cols, col) + sums.strides[:-2]
    split = as_strided(sums, shape, strides, writeable=False)
    if tile_rows > 1:
        band = buffers.take("scratch0", split[:, 0].size, sums.dtype).reshape(split[:, 0].shape)
        ops.append((reduce.reduce, (split,), {"axis": 1, "out": band}))
        split = band[:, None]
    out = buffers.take("scan.tiles", math.prod(grid + lead), sums.dtype).reshape(grid + lead)
    ops.append((reduce.reduce, (split[:, 0],), {"axis": 2, "out": out}))
    for i in range(1, grid[0]):
        ops.append((reduce, (out[i], out[i - 1]), {"out": out[i]}))
    for k in range(1, grid[1]):
        ops.append((reduce, (out[:, k], out[:, k - 1]), {"out": out[:, k]}))
    return out
