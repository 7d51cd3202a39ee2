"""Moving-window sums and scan maxima by doubling running sums.

A window sum is separable: width-``m1`` running sums along each row, then
height-``m2`` running sums of those along each column.  Each running sum is
built by doubling, adding shifted copies of blocks of width 1, 2, 4, ...
and combining the blocks named by the set bits of ``m``, so a window of
side ``m`` costs O(log m) array passes and no prefix sums.  The passes run
on the flat 1-D layout the block-factor kernel uses, so each is one
contiguous array operation over a whole stack of fields.  Integer fields
sum exactly in the narrowest integer dtype their dtype, or a tighter bound
the caller knows, allows;
floating-point fields sum in float64, each result a short tree of at most
``m1 * m2`` terms.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .blockfactor import Buffers, _flat_kernel, narrow_int, run_passes
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
    arr: np.ndarray,
    m1: int,
    m2: int,
    *,
    bound: int | None = None,
    buffers: Buffers | None = None,
    ops: list | None = None,
) -> np.ndarray:
    """Window sums over the trailing two axes of ``arr`` for an m1 x m2 window.

    Running sums along rows (offset 1) and then along columns (offset the
    row step) run on the flat layout of ``blockfactor._flat_kernel``, each
    doubling step one contiguous 1-D ufunc over the whole stack.  The row
    pass writes into the ``scan.across`` array of ``buffers`` and the
    column pass into ``scan.sums``, of which the result is a strided view;
    a one-row window (``m2 == 1``) has only the row pass, into ``scan.sums``.
    Without ``buffers`` these arrays are fresh, with them the result is
    overwritten by the next call on the same ``buffers``.  ``arr`` must not
    be a view of ``scan.across``, nor of ``scan.sums`` when ``m2 == 1``; it
    may be a view of ``scan.sums`` otherwise, because the column pass reads
    only the row pass's sums (the pipeline lays ``scan.sums`` over the
    block factor this way, see ``Buffers.shared``).  ``ops`` records the
    passes instead of running them, as in ``apply_block_factor_batch``.
    Each field's sums depend on that field only.  Integer and boolean
    inputs give ``narrow_int(arr.dtype, m1 * m2, bound)``, where
    ``bound`` is an exact bound on ``|arr|`` that the caller knows (the
    pipeline passes ``cell_bound * sum|w|`` of the block factor for
    Bernoulli and binomial sources, see ``ExperimentSpec.value_bounds``);
    without it the dtype's bound, e.g. 3x3 sums of an int8 field are
    int16, and with the minesweeper bound 8 int8.  A ``bound`` that some
    value passes makes the sums wrap.  The values are exact, but the dtype
    can overflow in later arithmetic, so widen before it.  Floating-point
    inputs give float64.
    """
    rows, cols = arr.shape[-2:]
    if not (1 <= m1 <= cols and 1 <= m2 <= rows):
        raise GeometryError(
            f"window {m1}x{m2} does not fit in {cols}x{rows} field"
        )
    buffers = Buffers() if buffers is None else buffers
    passes = [] if ops is None else ops
    dtype = narrow_int(arr.dtype, m1 * m2, bound)

    def sums(flat: np.ndarray, row_step: int, col_step: int, out: np.ndarray, ops: list):
        if m2 == 1:
            _running_sums(flat, m1, col_step, out, buffers, ops)
        else:
            across = buffers.take("scan.across", out.size + (m2 - 1) * row_step, dtype)
            _running_sums(flat, m1, col_step, across, buffers, ops)
            _running_sums(across, m2, row_step, out, buffers, ops)

    out = _flat_kernel(arr, rows - m2 + 1, cols - m1 + 1, sums, buffers, "scan.sums", dtype, passes)
    if ops is None:
        run_passes(passes)
    return out


def tile_maxima(
    arr: np.ndarray,
    tile_rows: int,
    tile_cols: int,
    *,
    buffers: Buffers | None = None,
    ops: list | None = None,
) -> np.ndarray:
    """Maximum of each disjoint ``tile_rows x tile_cols`` tile of the trailing two axes.

    The tiles cover ``arr`` from its first row and column; a ragged edge is
    left out.  Returns ``(..., rows // tile_rows, cols // tile_cols)``, a
    view of the ``scan.tiles`` array of ``buffers`` (fresh without them);
    ``ops`` records the passes instead of running them, as in
    ``apply_block_factor_batch``.  The
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
        passes.append((np.maximum.reduce, (split,), {"axis": 1, "out": band}))
        split = band[:, None]
    out = buffers.take("scan.tiles", math.prod(grid + lead), arr.dtype).reshape(grid + lead)
    passes.append((np.maximum.reduce, (split[:, 0],), {"axis": 2, "out": out}))
    if ops is None:
        run_passes(passes)
    return np.moveaxis(out, (0, 1), (-2, -1))
