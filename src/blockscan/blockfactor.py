"""Block-factor transforms: derive a dependent field from an i.i.d. source.

Each derived value is a fixed function of the configuration matrix, the
``c2 x c1`` window of source values whose first column and lowest row
index the site; the transform's weight matrix is the only holder of that
window.  The catalog transforms
(minesweeper neighbour count, moving-average dot product, identity) are all
linear, given by a weight matrix.  This module holds the transforms and the
kernel's tools: the dtype bound ``narrow_int``, the reused work arrays
``Buffers`` and ``run_passes``; the kernel itself, from source cells
through the transform's shifted adds to window sums, is
``scan.window_sums_batch`` (``window_sums_batch(source, t, 1, 1)`` is the
block factor alone).
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError, check_real


@dataclass(frozen=True, eq=False)
class BlockFactorTransform:
    """The linear map ``T(C) = sum(weights * C)`` of ``c2 x c1`` configuration matrices."""

    name: str
    weights: np.ndarray

    @property
    def c1(self) -> int:
        return self.weights.shape[1]

    @property
    def c2(self) -> int:
        return self.weights.shape[0]

    def derived_shape(self, rows: int, cols: int) -> tuple[int, int]:
        """The ``(rows, cols)`` of derived values over a ``rows x cols`` source.

        A window wider or taller than the source raises ``GeometryError``
        naming ``source_cols`` or ``source_rows``.
        """
        if self.c1 > cols:
            raise GeometryError(
                f"the {self.name} window is {self.c1} columns wide, the source {cols}",
                field="source_cols",
            )
        if self.c2 > rows:
            raise GeometryError(
                f"the {self.name} window is {self.c2} rows tall, the source {rows}",
                field="source_rows",
            )
        return rows - self.c2 + 1, cols - self.c1 + 1


def narrow_int(src_dtype, gain: int) -> np.dtype:
    """Narrowest of int8, int16, int32 and int64 that holds ``max|value| * gain``.

    ``max|value|`` is the bound of ``src_dtype``: the result reads only the
    dtype, never the data.  Any sum of ``gain`` unit-weight terms (or terms
    whose absolute weights add up to ``gain``) then fits.  A bool counts as
    1, so only bool sources reach int8 at nonzero gains: every other integer
    dtype already bounds a value by 128 or more.  Past int64 the result
    stays int64.  A dtype that is neither integer nor bool accumulates in
    float64.
    """
    src_dtype = np.dtype(src_dtype)
    if src_dtype == np.bool_:
        top = 1
    elif not np.issubdtype(src_dtype, np.integer):
        return np.dtype(np.float64)
    else:
        info = np.iinfo(src_dtype)
        top = max(-int(info.min), int(info.max))
    total = top * int(gain)
    for candidate in (np.int8, np.int16, np.int32):
        if total <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    return np.dtype(np.int64)


class Buffers:
    """Named 1-D work arrays that one worker reuses from chunk to chunk.

    ``take(name, size, dtype)`` returns ``size`` elements of ``dtype`` over
    the bytes kept under ``name``, so a worker that passes the same
    ``Buffers`` to every chunk writes each temporary into the memory the
    last chunk used, instead of asking the allocator, and the kernel for
    fresh pages, again.  ``layout`` (bytes per name, e.g. the ``taken`` of
    a chunk recorded on a fresh ``Buffers()``) places names in one block up
    front, every name at an address that is a multiple of 64, the size of a
    cache line; any other name, or a take larger than its bytes, gets new
    bytes of its own.  ``taken`` records the most bytes taken per name.
    Contents are not kept: the next take of a name may overwrite what the
    last one handed out.  ``scratch0`` holds temporaries of one kernel call
    only.  Not thread-safe: give each worker its own.  A
    fresh ``Buffers()`` hands out fresh arrays.
    """

    def __init__(self, layout: dict[str, int] | None = None):
        layout = layout or {}
        starts, end = {}, 0
        for name, nbytes in layout.items():
            starts[name] = end
            end += -(-nbytes // 64) * 64  # every slot keeps the alignment of the block
        # malloc aligns to 16 bytes only; start the block at a cache line
        block = np.empty(end + 63, dtype=np.uint8)
        block = block[-block.ctypes.data % 64 :][:end]
        self._bytes = {name: block[starts[name] : starts[name] + n] for name, n in layout.items()}
        self.taken: dict[str, int] = {}

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = size * dtype.itemsize
        raw = self._bytes.get(name)
        if raw is None or raw.size < nbytes:
            raw = self._bytes[name] = np.empty(nbytes, dtype=np.uint8)
        self.taken[name] = max(self.taken.get(name, 0), nbytes)
        return raw[:nbytes].view(dtype)


def run_passes(ops: list) -> None:
    """Run recorded ``(function, args, kwargs)`` passes in order."""
    for fn, args, kwargs in ops:
        fn(*args, **kwargs)


def minesweeper_transform() -> BlockFactorTransform:
    """Count of the 8 neighbours of the centre cell in a 3x3 window."""
    weights = np.ones((3, 3), dtype=np.int64)
    weights[1, 1] = 0
    return BlockFactorTransform(name="minesweeper", weights=weights)


def ma_transform(coeffs) -> BlockFactorTransform:
    """Dot product of a 1 x (q+1) configuration row with fixed coefficients.

    ``coeffs`` is a non-empty list or tuple of finite numbers, not all zero.
    """
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise ParameterError(
            f"moving-average coefficients must be a non-empty list, got {coeffs!r}",
            field="ma_coeffs",
        )
    coeffs = [check_real("ma_coeffs", a) for a in coeffs]
    if not any(coeffs):
        raise ParameterError("moving-average coefficients must not all be zero", field="ma_coeffs")
    return BlockFactorTransform(name="ma", weights=np.array(coeffs, dtype=np.float64)[None, :])


def identity_transform() -> BlockFactorTransform:
    """The 1x1 window transform that reproduces the source field."""
    return BlockFactorTransform(name="identity", weights=np.ones((1, 1), dtype=np.int64))


# Closed catalog: config files reference transforms by name only, and a
# builder's parameters are the ones its name takes.
TRANSFORM_CATALOG = {
    "minesweeper": minesweeper_transform,
    "ma": ma_transform,
    "identity": identity_transform,
}


def catalog_transform(name: str, **params) -> BlockFactorTransform:
    """Build a named transform; ``ma`` takes ``coeffs``, the others nothing."""
    if not isinstance(name, str) or name not in TRANSFORM_CATALOG:
        raise ParameterError(
            f"unknown transform {name!r}; catalog: {sorted(TRANSFORM_CATALOG)}", field="transform"
        )
    builder = TRANSFORM_CATALOG[name]
    expected = sorted(inspect.signature(builder).parameters)
    if sorted(params) != expected:
        raise ParameterError(f"{name} takes parameters {expected}, got {sorted(params)}")
    return builder(**params)
