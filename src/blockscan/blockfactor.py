"""Block-factor transforms: derive a dependent field from an i.i.d. source.

Each derived value is a fixed function of the configuration matrix, the
``c2 x c1`` window of source values whose first column and lowest row
index the site; the transform's weight matrix is the only holder of that
window.  The catalog transforms
(minesweeper neighbour count, moving-average dot product, identity) are all
linear, given by a weight matrix, so the batched code path runs as a
handful of shifted adds on one flat 1-D layout of the whole stack.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def narrow_int(src_dtype, gain: int, bound: int | None = None) -> np.dtype:
    """Narrowest of int8, int16, int32 and int64 that holds ``max|value| * gain``.

    ``max|value|`` is the bound of ``src_dtype``, or ``bound`` where that is
    smaller: an exact bound on ``|value|`` the caller knows for the data,
    e.g. ``trials`` for binomial cells held in int64.  Without ``bound``
    the result reads only the dtype, never the data.  Any sum of ``gain``
    unit-weight terms (or terms whose absolute weights add up to ``gain``)
    then fits.  A bool counts as 1, so without ``bound`` only bool sources
    reach int8 at nonzero gains: every other integer dtype already bounds a
    value by 128 or more.  Past int64 the result stays int64.  A dtype that
    is neither integer nor bool accumulates in float64, whatever ``bound``.
    """
    src_dtype = np.dtype(src_dtype)
    if src_dtype == np.bool_:
        top = 1
    elif not np.issubdtype(src_dtype, np.integer):
        return np.dtype(np.float64)
    else:
        info = np.iinfo(src_dtype)
        top = max(-int(info.min), int(info.max))
    if bound is not None:
        top = min(top, int(bound))
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
    bytes of its own.  ``shared`` maps a name to the name whose bytes it
    takes: a caller that knows what one slot holds is dead by the time
    another name is taken lets the two share memory, and ``taken`` records
    the most bytes taken per name after that mapping.  Contents are not
    kept: the next take of a name may overwrite what the last one handed
    out.  ``scratch0`` and ``scratch1`` hold temporaries of one layer call
    only.  Not thread-safe: give each worker its own.  A fresh
    ``Buffers()`` hands out fresh arrays.
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
        self.shared: dict[str, str] = {}

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        name = self.shared.get(name, name)
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


def _flat_kernel(
    arr: np.ndarray, out_rows: int, out_cols: int, kernel, buffers: Buffers, name: str,
    dtype, ops: list,
) -> np.ndarray:
    """Record a shift kernel on the flat layout of ``arr`` and view its result.

    ``arr`` is read as one 1-D run ``flat`` over its memory with row step
    ``R`` and column step ``C``, its strides in items: element
    ``(..., r, c)`` is ``flat[lead + r * R + c * C]``, so a shift by
    ``(s, t)`` is the offset ``s * R + t * C``.  The 1-D ``dtype`` array
    ``lanes`` is taken under ``name`` and ``kernel(flat, R, C, lanes, ops)``
    appends to ``ops`` the passes that write into each ``lanes[k]`` the
    result anchored at ``flat[k]``; lanes that wrap across a row (or, in a
    replicas-first stack, a replica) are computed but never read.  The
    valid ``(..., out_rows, out_cols)`` lanes come back as a view of
    ``lanes`` with the input's steps that ends at its last element.  An
    input with a stride that is not a positive multiple of the item size
    is copied first into the array taken under ``name + ".input"``, by a
    recorded ``np.copyto``, so every run copies the input as it is then.
    ``lanes`` must not overlap ``arr``, unless every pass that reads ``arr``
    comes before the first that writes ``lanes``.
    """
    out_shape = arr.shape[:-2] + (out_rows, out_cols)
    if arr.size == 0:
        return buffers.take(name, 0, dtype).reshape(out_shape)
    size = arr.itemsize
    if any(n > 1 and (st <= 0 or st % size) for n, st in zip(arr.shape, arr.strides)):
        copy = buffers.take(name + ".input", arr.size, arr.dtype).reshape(arr.shape)
        ops.append((np.copyto, (copy, arr), {}))
        arr = copy
    steps = [st // size if n > 1 else 0 for n, st in zip(arr.shape, arr.strides)]
    span = 1 + sum((n - 1) * step for n, step in zip(arr.shape, steps))
    rows, cols = arr.shape[-2:]
    row_step, col_step = steps[-2:]
    length = span - (rows - out_rows) * row_step - (cols - out_cols) * col_step
    flat = as_strided(arr, shape=(span,), strides=(size,), writeable=False)
    lanes = buffers.take(name, length, dtype)
    kernel(flat, row_step, col_step, lanes, ops)
    strides = [step * lanes.itemsize for step in steps]
    return np.ndarray(out_shape, dtype=lanes.dtype, buffer=lanes, strides=strides)


def apply_block_factor_batch(
    source: np.ndarray,
    transform: BlockFactorTransform,
    *,
    bound: int | None = None,
    buffers: Buffers | None = None,
    ops: list | None = None,
) -> np.ndarray:
    """Vectorised transform of a ``(..., rows, cols)`` stack of source lattices.

    The result is ``(..., rows - c2 + 1, cols - c1 + 1)``, the lattice size
    read off ``source.shape`` (``BlockFactorTransform.derived_shape``).  A
    linear transform is a sum of shifted sources: on the flat layout of
    ``_flat_kernel`` each shifted add is one contiguous 1-D ufunc over the
    whole stack, written in place into the ``blockfactor`` array of
    ``buffers`` (weighted terms go through ``scratch0``), and the result is
    a strided view of it.  Without ``buffers`` those arrays are fresh; with
    them the result is overwritten by the next call on the same
    ``buffers``.  Without ``ops`` the passes run before the call returns;
    with it they are appended to it as ``(function, args, kwargs)`` triples
    and none runs (``run_passes`` runs them), so the result holds values
    only once they have run, and every run reads ``source`` as it is then.
    Each replica's values depend on its own source only.
    Integer and bool sources with integer weights accumulate in
    ``narrow_int(source.dtype, sum|w|, bound)``; ``bound`` is an exact bound
    on ``|source|`` that the caller knows (the pipeline passes the
    distribution's ``cell_bound`` for Bernoulli and binomial, and none for
    Poisson, whose ``cell_bound`` is only a tail bound), so minesweeper
    over Bernoulli cells is int8.  A ``bound`` that some value passes makes
    the sums wrap.  Everything else is float64.  The values are exact, but
    the narrow dtype can overflow in later arithmetic (``out * out`` on
    int8), so widen first.
    """
    if source.ndim < 2:
        raise GeometryError(f"source shape {source.shape} has no (rows, cols) axes")
    out_rows, out_cols = transform.derived_shape(*source.shape[-2:])
    buffers = Buffers() if buffers is None else buffers
    passes = [] if ops is None else ops
    # derived[j, i] = sum_{s, t} weights[c2-1-s, t] * source[j+s, i+t]
    kernel = transform.weights[::-1, :]
    if np.issubdtype(kernel.dtype, np.integer):
        dtype = narrow_int(source.dtype, np.abs(kernel).sum(), bound)
    else:
        dtype = np.dtype(np.float64)
    arr = source
    if source.dtype == np.bool_ and dtype == np.int8:
        # the same bytes, 0 or 1: int8 adds then need no cast of their input
        arr = source.view(np.int8)

    def shifted_sum(flat: np.ndarray, row_step: int, col_step: int, out: np.ndarray, ops: list):
        first = True
        for s in range(transform.c2):
            for t in range(transform.c1):
                w = kernel[s, t]
                if w == 0:
                    continue
                start = s * row_step + t * col_step
                view = flat[start : start + out.size]
                if first:
                    if w == 1:
                        ops.append((np.copyto, (out, view), {"casting": "unsafe"}))
                    else:
                        ops.append((np.multiply, (view, w), {"out": out, "dtype": dtype}))
                    first = False
                elif w == 1:
                    ops.append((np.add, (out, view), {"out": out}))
                else:
                    scratch = buffers.take("scratch0", out.size, dtype)
                    ops.append((np.multiply, (view, w), {"out": scratch, "dtype": dtype}))
                    ops.append((np.add, (out, scratch), {"out": out}))
        if first:
            ops.append((out.fill, (0,), {}))

    out = _flat_kernel(
        arr, out_rows, out_cols, shifted_sum, buffers, "blockfactor", dtype, passes
    )
    if ops is None:
        run_passes(passes)
    return out


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
    for a in coeffs:
        check_real("ma_coeffs", a)
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
