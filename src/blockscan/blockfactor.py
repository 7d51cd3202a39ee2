"""Block-factor transforms: derive a dependent field from an i.i.d. source.

Each derived value is a fixed function of the configuration matrix, the
``c2 x c1`` window of source values around a site.  The built-in transforms
(minesweeper neighbour count, moving-average dot product, identity) are all
linear, which lets the batched code path run as a handful of shifted adds
on one flat 1-D layout of the whole stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import GeometryError, IndexRangeError, ParameterError
from .fields import RandomField


@dataclass(frozen=True)
class LatticeGeometry:
    """Source lattice dimensions plus the window half-extents of the transform.

    ``source_cols``/``source_rows`` are the i.i.d. lattice sizes; the window
    reaches ``x1`` columns left, ``x2`` right, ``y1`` rows down, ``y2`` up.
    """

    source_cols: int
    source_rows: int
    x1: int = 0
    x2: int = 0
    y1: int = 0
    y2: int = 0

    def __post_init__(self):
        if self.source_cols < 1 or self.source_rows < 1:
            raise GeometryError("source dimensions must be >= 1")
        if min(self.x1, self.x2, self.y1, self.y2) < 0:
            raise GeometryError("window extents must be non-negative")
        if self.x1 + self.x2 > self.source_cols - 1:
            raise GeometryError("x1 + x2 must be <= source_cols - 1")
        if self.y1 + self.y2 > self.source_rows - 1:
            raise GeometryError("y1 + y2 must be <= source_rows - 1")

    @property
    def c1(self) -> int:
        return self.x1 + self.x2 + 1

    @property
    def c2(self) -> int:
        return self.y1 + self.y2 + 1

    @property
    def derived_cols(self) -> int:
        return self.source_cols - self.c1 + 1

    @property
    def derived_rows(self) -> int:
        return self.source_rows - self.c2 + 1

    def with_source(self, cols: int, rows: int) -> "LatticeGeometry":
        return LatticeGeometry(cols, rows, self.x1, self.x2, self.y1, self.y2)


@dataclass(frozen=True, eq=False)
class BlockFactorTransform:
    """A deterministic map from ``c2 x c1`` real matrices to reals.

    ``weights`` marks a linear transform ``T(C) = sum(weights * C)``; the
    batched field path requires it.  ``func`` is the scalar fallback for
    non-linear transforms.
    """

    name: str
    c1: int
    c2: int
    weights: np.ndarray | None = None
    func: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        if self.weights is None and self.func is None:
            raise ParameterError("transform needs weights or a scalar function")
        if self.weights is not None and self.weights.shape != (self.c2, self.c1):
            raise ParameterError(
                f"weights shape {self.weights.shape} != ({self.c2}, {self.c1})"
            )

    def __call__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.shape != (self.c2, self.c1):
            raise GeometryError(
                f"configuration matrix shape {matrix.shape} != ({self.c2}, {self.c1})"
            )
        if self.weights is not None:
            return (self.weights * matrix).sum()
        return self.func(matrix)


def configuration_matrix(
    field: RandomField, i: int, j: int, geom: LatticeGeometry
) -> np.ndarray:
    """The ``c2 x c1`` window of source values indexed around site ``(i, j)``.

    Row ``k`` of the matrix holds source row ``j + y2 + 1 - k``, so matrix rows
    run top-down in lattice coordinates.
    """
    if not (geom.x1 + 1 <= i <= geom.source_cols - geom.x2):
        raise IndexRangeError(f"column {i} outside [{geom.x1 + 1}, {geom.source_cols - geom.x2}]")
    if not (geom.y1 + 1 <= j <= geom.source_rows - geom.y2):
        raise IndexRangeError(f"row {j} outside [{geom.y1 + 1}, {geom.source_rows - geom.y2}]")
    block = field.values[j - geom.y1 - 1 : j + geom.y2, i - geom.x1 - 1 : i + geom.x2]
    return block[::-1, :].copy()


def narrow_int(src_dtype, gain: int) -> np.dtype:
    """Narrowest of int8, int16, int32 and int64 that holds ``max|src_dtype| * gain``.

    The bound reads only the dtype, never the data: any sum of ``gain``
    unit-weight terms (or terms whose absolute weights add up to ``gain``)
    of values of ``src_dtype`` fits.  A bool counts as 1, so of nonzero
    gains only bool sources reach int8: every other integer dtype already
    bounds a value by 128 or more.  Past int64 the result stays int64.  A
    dtype that is neither integer nor bool accumulates in float64.
    """
    src_dtype = np.dtype(src_dtype)
    if src_dtype == np.bool_:
        top = 1
    elif not np.issubdtype(src_dtype, np.integer):
        return np.dtype(np.float64)
    else:
        info = np.iinfo(src_dtype)
        top = max(-int(info.min), int(info.max))
    bound = top * int(gain)
    for candidate in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    return np.dtype(np.int64)


def _flat_kernel(arr: np.ndarray, out_rows: int, out_cols: int, kernel) -> np.ndarray:
    """Run a shift kernel on the flat layout of ``arr`` and view its result.

    ``arr`` is read as one 1-D run ``flat`` over its memory with row step
    ``R``: element ``(..., r, c)`` is ``flat[lead + r * R + c]``, so a shift
    by ``(s, t)`` is the offset ``s * R + t``.  ``kernel(flat, R, length)``
    returns a fresh 1-D array whose lane ``k < length`` is the result
    anchored at ``flat[k]``; lanes that wrap across a row or a leading index
    are computed but never read.  The valid ``(..., out_rows, out_cols)``
    lanes come back as a strided view that ends at the last lane.  Inputs
    the flat run cannot describe (an axis with a stride that is not a
    positive multiple of the item size, or a last stride other than the
    item size) are copied with ``np.ascontiguousarray`` first.
    """
    out_shape = arr.shape[:-2] + (out_rows, out_cols)
    if arr.size == 0:
        return kernel(arr.reshape(-1), 0, 0).reshape(out_shape)
    size = arr.itemsize
    odd = any(n > 1 and (st <= 0 or st % size) for n, st in zip(arr.shape, arr.strides))
    if odd or (arr.shape[-1] > 1 and arr.strides[-1] != size):
        arr = np.ascontiguousarray(arr)
    steps = [st // size if n > 1 else 0 for n, st in zip(arr.shape, arr.strides)]
    span = 1 + sum((n - 1) * step for n, step in zip(arr.shape, steps))
    rows, cols = arr.shape[-2:]
    row_step = steps[-2]
    length = span - (rows - out_rows) * row_step - (cols - out_cols)
    flat = as_strided(arr, shape=(span,), strides=(size,), writeable=False)
    result = kernel(flat, row_step, length)
    strides = [step * result.itemsize for step in steps]
    return np.ndarray(out_shape, dtype=result.dtype, buffer=result, strides=strides)


def apply_block_factor_batch(
    source: np.ndarray, transform: BlockFactorTransform, geom: LatticeGeometry
) -> np.ndarray:
    """Vectorised transform of a ``(..., rows, cols)`` stack of source lattices.

    A linear transform is a sum of shifted sources: on the flat layout of
    ``_flat_kernel`` each shifted add is one contiguous 1-D ufunc over the
    whole stack, and the result is a strided view of a fresh array.
    Integer and bool sources with integer weights accumulate in
    ``narrow_int(source.dtype, sum|w|)``, e.g. int8 for minesweeper over a
    bool Bernoulli source; everything else is float64.  The values are
    exact, but the narrow dtype can overflow in later arithmetic
    (``out * out`` on int8), so widen first.  A non-linear ``func`` is
    evaluated per window and returns float64.
    """
    if source.shape[-2:] != (geom.source_rows, geom.source_cols):
        raise GeometryError(
            f"source shape {source.shape[-2:]} != ({geom.source_rows}, {geom.source_cols})"
        )
    if (transform.c1, transform.c2) != (geom.c1, geom.c2):
        raise GeometryError(
            f"transform window ({transform.c1}, {transform.c2}) != geometry "
            f"({geom.c1}, {geom.c2})"
        )
    if transform.weights is None:
        # windows[..., jj, ii, :, :] is source[..., jj : jj + c2, ii : ii + c1]
        windows = sliding_window_view(source, (geom.c2, geom.c1), axis=(-2, -1))
        sites = np.ndindex(windows.shape[:-2])
        values = [transform.func(windows[site][::-1, :]) for site in sites]
        return np.array(values, dtype=np.float64).reshape(windows.shape[:-2])
    # derived[j, i] = sum_{s, t} weights[c2-1-s, t] * source[j+s, i+t]
    kernel = transform.weights[::-1, :]
    if np.issubdtype(kernel.dtype, np.integer):
        dtype = narrow_int(source.dtype, np.abs(kernel).sum())
    else:
        dtype = np.dtype(np.float64)

    def shifted_sum(flat: np.ndarray, row_step: int, length: int) -> np.ndarray:
        out = scratch = None
        for s in range(geom.c2):
            for t in range(geom.c1):
                w = kernel[s, t]
                if w == 0:
                    continue
                start = s * row_step + t
                view = flat[start : start + length]
                if out is None:
                    out = view.astype(dtype) if w == 1 else np.multiply(view, w, dtype=dtype)
                elif w == 1:
                    np.add(out, view, out=out)
                else:
                    # one reused buffer for the weighted terms saves an allocation each
                    scratch = np.empty_like(out) if scratch is None else scratch
                    np.add(out, np.multiply(view, w, out=scratch, dtype=dtype), out=out)
        return np.zeros(length, dtype=dtype) if out is None else out

    return _flat_kernel(source, geom.derived_rows, geom.derived_cols, shifted_sum)


def apply_block_factor(
    field: RandomField, transform: BlockFactorTransform, geom: LatticeGeometry
) -> RandomField:
    """Derive the dependent field; output dims are the geometry's derived dims."""
    values = apply_block_factor_batch(field.values[None, ...], transform, geom)[0]
    return RandomField(values=values, provenance=f"{transform.name}({field.provenance})")


def minesweeper_transform() -> BlockFactorTransform:
    """Count of the 8 neighbours of the centre cell in a 3x3 window."""
    weights = np.ones((3, 3), dtype=np.int64)
    weights[1, 1] = 0
    return BlockFactorTransform(name="minesweeper", c1=3, c2=3, weights=weights)


def ma_transform(coeffs) -> BlockFactorTransform:
    """Dot product of a 1 x (q+1) configuration row with fixed coefficients."""
    a = np.asarray(coeffs, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ParameterError("moving-average coefficients must be a non-empty vector")
    if not np.any(a != 0.0):
        raise ParameterError("moving-average coefficients must not all be zero")
    return BlockFactorTransform(name="ma", c1=a.size, c2=1, weights=a[None, :])


def identity_transform() -> BlockFactorTransform:
    """The 1x1 window transform that reproduces the source field."""
    return BlockFactorTransform(name="identity", c1=1, c2=1, weights=np.ones((1, 1), dtype=np.int64))


def _build_minesweeper(**params) -> tuple[BlockFactorTransform, tuple[int, int, int, int]]:
    if params:
        raise ParameterError(f"minesweeper takes no parameters, got {sorted(params)}")
    return minesweeper_transform(), (1, 1, 1, 1)


def _build_ma(**params) -> tuple[BlockFactorTransform, tuple[int, int, int, int]]:
    coeffs = params.pop("coeffs", None)
    if params:
        raise ParameterError(f"unknown ma parameters {sorted(params)}")
    if coeffs is None:
        raise ParameterError("ma requires 'coeffs'")
    t = ma_transform(coeffs)
    return t, (0, t.c1 - 1, 0, 0)


def _build_identity(**params) -> tuple[BlockFactorTransform, tuple[int, int, int, int]]:
    if params:
        raise ParameterError(f"identity takes no parameters, got {sorted(params)}")
    return identity_transform(), (0, 0, 0, 0)


# Closed catalog: config files reference transforms by name only.
TRANSFORM_CATALOG = {
    "minesweeper": _build_minesweeper,
    "ma": _build_ma,
    "identity": _build_identity,
}


def catalog_transform(name: str, **params) -> tuple[BlockFactorTransform, tuple[int, int, int, int]]:
    """Build a named transform plus its (x1, x2, y1, y2) window extents."""
    try:
        builder = TRANSFORM_CATALOG[name]
    except KeyError:
        raise ParameterError(
            f"unknown transform {name!r}; catalog: {sorted(TRANSFORM_CATALOG)}"
        ) from None
    return builder(**params)
