"""Moving-window sums and scan maxima by doubling running sums.

A window sum is separable: width-``m1`` running sums along each row, then
height-``m2`` running sums of those along each column.  Each running sum is
built by doubling, adding shifted copies of blocks of width 1, 2, 4, ...
and combining the blocks named by the set bits of ``m``, so a window of
side ``m`` costs O(log m) array passes and no prefix sums.  Integer fields
sum exactly in the narrowest integer dtype their dtype bounds allow;
floating-point fields sum in float64, each result a short tree of at most
``m1 * m2`` terms.  ``brute_*`` functions are the O(N^2 m^2) oracles used by
the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockfactor import narrow_int
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


def _running_sums(arr: np.ndarray, m: int, axis: int, dtype: np.dtype) -> np.ndarray:
    """Width-``m`` running sums along ``axis``, by doubling, in ``dtype``.

    ``block`` holds the width-``w`` running sums for ``w`` = 1, 2, 4, ...; the
    block of each set bit of ``m`` is added in at the offset the lower bits
    already cover.
    """
    n = arr.shape[axis] - m + 1
    lead = (slice(None),) * (axis % arr.ndim)

    def part(x, start, stop):
        return x[lead + (slice(start, stop),)]

    out = None
    block, width, offset = arr, 1, 0
    while True:
        if m & width:
            piece = part(block, offset, offset + n)
            out = piece if out is None else np.add(out, piece, dtype=dtype)
            offset += width
        if 2 * width > m:
            break
        length = block.shape[axis] - width
        block = np.add(part(block, 0, length), part(block, width, width + length), dtype=dtype)
        width *= 2
    # only m == 1 leaves a view of the input
    return out.astype(dtype, copy=m == 1)


def window_sums_batch(arr: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """Window sums over the trailing two axes of ``arr`` for an m1 x m2 window.

    Integer and boolean inputs give ``narrow_int(arr.dtype, m1 * m2)``, e.g.
    int32 for 3x3 sums of an int16 minesweeper field; the values are exact,
    but the dtype can overflow in later arithmetic, so widen before it.
    Floating-point inputs give float64.
    """
    rows, cols = arr.shape[-2:]
    if not (1 <= m1 <= cols and 1 <= m2 <= rows):
        raise GeometryError(
            f"window {m1}x{m2} does not fit in {cols}x{rows} field"
        )
    integer = np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_
    dtype = narrow_int(arr.dtype, m1 * m2) if integer else np.dtype(np.float64)
    return _running_sums(_running_sums(arr, m1, -1, dtype), m2, -2, dtype)


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
