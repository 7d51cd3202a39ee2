"""Per-site oracles: each kernel's definition read one site at a time.

The package's kernels batch a whole stack of fields into a few flat passes;
these functions state what those passes compute, site by site and window by
window, in plain Python loops, so that the tests can check the kernels
against them.  They cost O(sites x window) interpreter steps, so they serve
small fields only.  A lattice position is ``(i, j)``, 1-based, with ``i``
the column and ``j`` the row, stored as ``values[j - 1, i - 1]``.
"""
import numpy as np

from blockscan.errors import GeometryError


def configuration_matrix(values: np.ndarray, i: int, j: int, transform) -> np.ndarray:
    """The ``c2 x c1`` window of source ``values`` whose first column is ``i`` and lowest row ``j``.

    The window's derived value is ``derived[j - 1, i - 1]`` of
    ``window_sums_batch(values, transform, 1, 1)``.  Row ``k`` of the matrix holds source row
    ``j + c2 - 1 - k``, so matrix rows run top-down in lattice coordinates.
    A site outside the derived field raises ``IndexError``.
    """
    rows, cols = transform.derived_shape(*values.shape)
    if not 1 <= i <= cols:
        raise IndexError(f"column {i} outside [1, {cols}]")
    if not 1 <= j <= rows:
        raise IndexError(f"row {j} outside [1, {rows}]")
    block = values[j - 1 : j - 1 + transform.c2, i - 1 : i - 1 + transform.c1]
    return block[::-1, :].copy()


def block_factor_value(transform, matrix) -> float:
    """``T(C) = sum(weights * C)`` of one ``c2 x c1`` configuration matrix ``C``."""
    matrix = np.asarray(matrix)
    if matrix.shape != transform.weights.shape:
        raise GeometryError(
            f"configuration matrix shape {matrix.shape} != {transform.weights.shape}"
        )
    return (transform.weights * matrix).sum()


def per_site_block_factor(values: np.ndarray, transform) -> np.ndarray:
    """The block factor of one 2-D field, one configuration matrix per site."""
    rows, cols = transform.derived_shape(*values.shape)
    return np.array([
        [block_factor_value(transform, configuration_matrix(values, i, j, transform))
         for i in range(1, cols + 1)]
        for j in range(1, rows + 1)
    ])


def brute_moving_sums(values: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """Every ``m1 x m2`` window sum of one 2-D field, summed window by window.

    Integer fields give int64, everything else float64.
    """
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
    """The largest ``m1 x m2`` window sum of one 2-D field."""
    return brute_moving_sums(values, m1, m2).max().item()


def per_tile_maxima(field: np.ndarray, tile_rows: int, tile_cols: int) -> np.ndarray:
    """The maximum of each whole ``tile_rows x tile_cols`` tile of one 2-D field, tile by tile."""
    rows, cols = field.shape[0] // tile_rows, field.shape[1] // tile_cols
    return np.array([
        [field[r * tile_rows : (r + 1) * tile_rows, c * tile_cols : (c + 1) * tile_cols].max()
         for c in range(cols)]
        for r in range(rows)
    ])
