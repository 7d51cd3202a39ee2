"""Per-site oracles: each kernel's definition read one site at a time.

The package's kernels batch a whole stack of fields into a few flat passes;
these functions state what those passes compute, site by site and window by
window, in plain Python loops, so that the tests can check the kernels
against them.  They cost O(sites x window) interpreter steps, so they serve
small fields only.  A lattice position is ``(i, j)``, 1-based, with ``i``
the column and ``j`` the row, stored as ``values[j - 1, i - 1]``.
"""
import math

import numpy as np

from blockscan.errors import GeometryError
from blockscan.fields import SeedSpec


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


def view_orders(seed: int, task: str, cells: int, views: int) -> list[np.ndarray]:
    """The cell order of views 1 .. ``views - 1`` of a ``task`` call, as ``fields.STREAM_MAP`` states it.

    View ``j`` is the stable argsort of the first ``cells`` raw words of
    the stream of ``"<task>-view:<j>"``.
    """
    return [
        np.argsort(
            SeedSpec.for_chunk(seed, f"{task}-view", j).bit_generator().random_raw(cells),
            kind="stable",
        )
        for j in range(1, views)
    ]


def grouped_replicas(scores: list) -> np.ndarray:
    """A chunk's replica values in stream order, replicas on the last axis.

    ``scores[t]`` holds, per drawn field on its last axis, the value of
    replica ``t`` of the ``R = len(scores)`` that the field counts as; as
    ``fields.STREAM_MAP`` states it, replica ``R * i + t`` of the chunk is
    ``scores[t][..., i]``.
    """
    stacked = np.stack(scores, axis=-1)
    return stacked.reshape(*stacked.shape[:-2], -1)


def group_tallies(replicas: np.ndarray, group: int) -> tuple[np.ndarray, np.ndarray]:
    """``sum s`` and ``sum s**2`` over the groups of ``group`` consecutive replicas (last axis).

    ``s`` is a group's count of true replicas; ``group`` must divide the
    count of replicas.
    """
    s = replicas.reshape(*replicas.shape[:-1], -1, group).sum(axis=-1, dtype=np.int64)
    return s.sum(axis=-1), (s * s).sum(axis=-1)


def brute_window_sums(stack: np.ndarray, transform, m1: int, m2: int) -> np.ndarray:
    """Every ``m1 x m2`` window sum of the block factor of each field of a ``(replicas, rows, cols)`` stack.

    Each block-factor value is the weighted sum of its configuration
    matrix and each window sum adds its ``m1 x m2`` values, one site and
    one window at a time, for all replicas at once, in float64.  Returns
    ``(replicas, anchor_rows, anchor_cols)``.
    """
    weights = transform.weights[::-1, :].astype(np.float64)
    c2, c1 = weights.shape
    rows, cols = transform.derived_shape(*stack.shape[-2:])
    # replicas last, so that each term is one whole vector of them
    fields = np.moveaxis(stack, 0, -1).astype(np.float64)
    derived = np.empty((rows, cols) + stack.shape[:1])
    for j in range(rows):
        for i in range(cols):
            derived[j, i] = sum(
                weights[s, t] * fields[j + s, i + t] for s in range(c2) for t in range(c1)
            )
    sums = np.empty((rows - m2 + 1, cols - m1 + 1) + stack.shape[:1])
    for j in range(rows - m2 + 1):
        for i in range(cols - m1 + 1):
            sums[j, i] = sum(derived[j + s, i + t] for s in range(m2) for t in range(m1))
    return np.moveaxis(sums, -1, 0)


def brute_extent_maxima(stack: np.ndarray, transform, m1: int, m2: int, extent) -> np.ndarray:
    """The largest ``m1 x m2`` window sum anchored in the leading ``extent = (rows, cols)``.

    ``stack`` is ``(replicas, rows, cols)``; the sums are ``brute_window_sums``.
    """
    sums = brute_window_sums(stack, transform, m1, m2)
    anchors_rows, anchors_cols = extent
    if not (1 <= anchors_rows <= sums.shape[1] and 1 <= anchors_cols <= sums.shape[2]):
        raise GeometryError(f"extent {extent} does not fit the {sums.shape[1:]} anchors")
    return sums[:, :anchors_rows, :anchors_cols].max(axis=(1, 2))


def view_replicas(sums: np.ndarray, extents, thresholds, ck=None, paired=False) -> list:
    """Whether each replica that one view of a chunk counts as passes, in ``fields.STREAM_MAP`` order.

    ``sums`` is ``(fields, rows, cols)``: the window sums of each drawn
    field in this view.  Returns one ``(extent, threshold, group)`` bool
    array per replica of a group in the view, the maximum over the leading
    ``extent = (rows, cols)`` anchors ``<=`` the threshold: the field's,
    or, with ``ck = cK`` (``c`` the centre, ``K = weights.sum() * m1 *
    m2``), the field's and its mirror's ``2c - x``, which passes where the
    minimum is ``>= 2cK - n``.  ``paired`` pairs field ``i`` of ``2h`` with
    field ``i + h``, whose members are ``x``, ``y``, ``u = c + (x - c + y -
    c) / sqrt 2`` and ``v = c + (x - y) / sqrt 2``, each with its mirror.
    ``u`` and ``v`` are scored on ``S(x) + S(y) <= 2cK + sqrt 2 (n - cK)``
    and ``S(x) - S(y) <= sqrt 2 (n - cK)``, and their mirrors on the
    minima ``>=`` the limits reflected about ``2cK`` and 0, in the
    pipeline's float64 arithmetic, so tallies match it exactly.
    """
    thr = np.asarray(thresholds, dtype=np.float64)
    if paired:
        half = len(sums) // 2
        x, y = sums[:half], sums[half:]
        rotation = math.sqrt(2.0) * (thr - ck)
        members = [
            (x, thr, 2 * ck - thr), (y, thr, 2 * ck - thr),
            (x + y, 2 * ck + rotation, 2 * ck - rotation), (x - y, rotation, -rotation),
        ]
    else:
        members = [(sums, thr, None if ck is None else 2 * ck - thr)]
    replicas = []
    for member, limits, mirrors in members:
        windows = [member[:, :rows, :cols].reshape(len(member), -1) for rows, cols in extents]
        replicas.append(np.array([[w.max(axis=1) <= n for n in limits] for w in windows]))
        if mirrors is not None:
            replicas.append(np.array([[w.min(axis=1) >= n for n in mirrors] for w in windows]))
    return replicas
