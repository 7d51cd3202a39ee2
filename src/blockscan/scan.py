"""Moving-window sums and scan maxima by doubling running sums.

A window sum is separable: width-``m1`` running sums along each row, then
height-``m2`` running sums of those along each column.  Each running sum is
built by doubling, adding shifted copies of blocks of width 1, 2, 4, ...
and combining the blocks named by the set bits of ``m``, so a window of
side ``m`` costs O(log m) array passes and no prefix sums.  The passes run
on the flat 1-D layout the block-factor kernel uses, so each is one
contiguous array operation over a whole stack of fields.  Integer fields
sum exactly in the narrowest integer dtype their dtype bounds allow;
floating-point fields sum in float64, each result a short tree of at most
``m1 * m2`` terms.  ``brute_*`` functions are the O(N^2 m^2) oracles used by
the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockfactor import _flat_kernel, narrow_int
from .errors import GeometryError, IndexRangeError
from .fields import RandomField


@dataclass(frozen=True)
class ScanGeometry:
    """Scanning window sides (m1 columns wide, m2 rows tall)."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise GeometryError("window sides must be >= 1")


@dataclass(frozen=True, eq=False)
class MovingSums:
    """Dense array of window sums, ``values[i2 - 1, i1 - 1]`` anchored at (i1, i2)."""

    values: np.ndarray
    m1: int
    m2: int

    @property
    def anchors_cols(self) -> int:
        return self.values.shape[1]

    @property
    def anchors_rows(self) -> int:
        return self.values.shape[0]


def _running_sums(x: np.ndarray, m: int, step: int, dtype: np.dtype, n: int) -> np.ndarray:
    """Lanes ``k < n`` of ``sum(x[k + i * step] for i < m)``, by doubling, in ``dtype``.

    ``block`` holds the width-``w`` running sums for ``w`` = 1, 2, 4, ...; the
    block of each set bit of ``m`` is added in at the offset the lower bits
    already cover.  Every pass is one contiguous 1-D ufunc, and the result
    is always a fresh array.
    """
    if m == 1:
        return x[:n].astype(dtype)
    out = None
    block, width, offset = x, 1, 0
    while True:
        if m & width:
            piece = block[offset * step : offset * step + n]
            out = piece if out is None else np.add(out, piece, dtype=dtype)
            offset += width
        if 2 * width > m:
            break
        length = block.size - width * step
        block = np.add(block[:length], block[width * step : width * step + length], dtype=dtype)
        width *= 2
    # a power-of-two m leaves a slice of the last block, already in dtype
    return out


def window_sums_batch(arr: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """Window sums over the trailing two axes of ``arr`` for an m1 x m2 window.

    Running sums along rows (offset 1) and then along columns (offset the
    row step) run on the flat layout of ``blockfactor._flat_kernel``, each
    doubling step one contiguous 1-D ufunc over the whole stack; the result
    is a strided view of a fresh array.  Integer and boolean inputs give
    ``narrow_int(arr.dtype, m1 * m2)``, e.g. int16 for 3x3 sums of an int8
    minesweeper field; the values are exact, but the dtype can overflow in
    later arithmetic, so widen before it.  Floating-point inputs give
    float64.
    """
    rows, cols = arr.shape[-2:]
    if not (1 <= m1 <= cols and 1 <= m2 <= rows):
        raise GeometryError(
            f"window {m1}x{m2} does not fit in {cols}x{rows} field"
        )
    dtype = narrow_int(arr.dtype, m1 * m2)

    def sums(flat: np.ndarray, row_step: int, length: int) -> np.ndarray:
        across = _running_sums(flat, m1, 1, dtype, length + (m2 - 1) * row_step)
        return across if m2 == 1 else _running_sums(across, m2, row_step, dtype, length)

    return _flat_kernel(arr, rows - m2 + 1, cols - m1 + 1, sums)


def tile_maxima(arr: np.ndarray, tile_rows: int, tile_cols: int) -> np.ndarray:
    """Maximum of each disjoint ``tile_rows x tile_cols`` tile of the trailing two axes.

    The tiles cover ``arr`` from its first row and column; a ragged edge is
    left out.  Returns ``(..., rows // tile_rows, cols // tile_cols)``.  One
    tile is one direct maximum.  Several tiles fold in each of the
    ``tile_rows * tile_cols`` offsets inside a tile at once, an elementwise
    maximum over every tile of the stack with the stack axes innermost.
    """
    rows, cols = arr.shape[-2:]
    if not (1 <= tile_cols <= cols and 1 <= tile_rows <= rows):
        raise GeometryError(f"tile {tile_cols}x{tile_rows} does not fit in {cols}x{rows} array")
    grid_rows, grid_cols = rows // tile_rows, cols // tile_cols
    covered = arr[..., : grid_rows * tile_rows, : grid_cols * tile_cols]
    if grid_rows == grid_cols == 1:
        return covered.max(axis=(-2, -1))[..., None, None]
    grid = np.moveaxis(covered, (-2, -1), (0, 1))
    out = grid[::tile_rows, ::tile_cols].copy()
    for i, j in np.ndindex(tile_rows, tile_cols):
        if i or j:
            np.maximum(out, grid[i::tile_rows, j::tile_cols], out=out)
    return np.moveaxis(out, (0, 1), (-2, -1))


def moving_sums(field: RandomField, m1: int, m2: int) -> MovingSums:
    """All m1 x m2 window sums of the field."""
    return MovingSums(values=window_sums_batch(field.values, m1, m2), m1=m1, m2=m2)


def scan_statistic(field: RandomField, m1: int, m2: int):
    """Largest m1 x m2 window sum over the whole field."""
    return moving_sums(field, m1, m2).values.max().item()


def sub_rectangle_scan_max(
    field: RandomField, m1: int, m2: int, i1_max: int, i2_max: int
):
    """Largest window sum over anchors with i1 <= i1_max and i2 <= i2_max."""
    sums = moving_sums(field, m1, m2)
    if not (1 <= i1_max <= sums.anchors_cols and 1 <= i2_max <= sums.anchors_rows):
        raise GeometryError(
            f"anchor range ({i1_max}, {i2_max}) exceeds available "
            f"({sums.anchors_cols}, {sums.anchors_rows})"
        )
    return sums.values[:i2_max, :i1_max].max().item()


def row_scan_max(field: RandomField, m1: int, k: int):
    """Largest 1-D moving sum of width m1 along row ``k`` (1-based)."""
    if not (1 <= k <= field.rows):
        raise IndexRangeError(f"row {k} outside [1, {field.rows}]")
    row = field.values[k - 1][None, :]
    return window_sums_batch(row, m1, 1).max().item()


def brute_moving_sums(values: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """Direct per-window summation; the oracle for ``window_sums_batch``."""
    rows, cols = values.shape
    if not (1 <= m1 <= cols and 1 <= m2 <= rows):
        raise GeometryError(f"window {m1}x{m2} does not fit in {cols}x{rows} field")
    out = np.empty((rows - m2 + 1, cols - m1 + 1), dtype=np.float64)
    for j in range(rows - m2 + 1):
        for i in range(cols - m1 + 1):
            out[j, i] = values[j : j + m2, i : i + m1].sum(dtype=np.float64)
    if np.issubdtype(values.dtype, np.integer):
        return out.astype(np.int64)
    return out


def brute_scan_statistic(values: np.ndarray, m1: int, m2: int):
    return brute_moving_sums(values, m1, m2).max().item()
