import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockscan import BlockFactorTransform, MarginalDistribution, SeedSpec
from blockscan.blockfactor import (
    Buffers,
    apply_block_factor_batch,
    minesweeper_transform,
    narrow_int,
)
from blockscan.errors import GeometryError
from blockscan.scan import tile_maxima, window_sums_batch

from oracles import brute_moving_sums, brute_scan_statistic, per_site_block_factor


def test_constant_field_sums():
    field = np.full((6, 9), 4, dtype=np.int64)
    sums = window_sums_batch(field, 3, 2)
    assert sums.shape == (5, 7)
    assert np.all(sums == 3 * 2 * 4)
    assert sums.max() == 24


def test_prefix_sums_match_brute_force_on_random_integer_fields():
    rng = np.random.default_rng(101)
    for _ in range(25):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        values = rng.integers(-5, 11, size=(rows, cols)).astype(np.int64)
        m1 = int(rng.integers(1, cols + 1))
        m2 = int(rng.integers(1, rows + 1))
        fast = window_sums_batch(values, m1, m2)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, brute_moving_sums(values, m1, m2))


def test_prefix_sums_match_brute_force_on_float_fields():
    rng = np.random.default_rng(202)
    values = rng.normal(0.0, 10.0, size=(40, 50))
    fast = window_sums_batch(values, 7, 5)
    slow = brute_moving_sums(values, 7, 5)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)


def test_scan_statistic_matches_brute_force():
    field = MarginalDistribution.poisson(2.0).sample(SeedSpec(8).generator(), (9, 12))
    assert window_sums_batch(field, 3, 2).max() == brute_scan_statistic(field, 3, 2)


def test_translation_shifts_sums_by_window_area():
    rng = np.random.default_rng(9)
    values = rng.integers(0, 5, size=(8, 8)).astype(np.int64)
    base = window_sums_batch(values, 3, 3)
    shifted = window_sums_batch(values + 7, 3, 3)
    assert np.array_equal(shifted, base + 9 * 7)


def test_scan_statistic_monotone_in_field_values():
    rng = np.random.default_rng(10)
    values = rng.integers(0, 5, size=(10, 10)).astype(np.int64)
    s0 = brute_scan_statistic(values, 3, 3)
    bumped = values.copy()
    bumped[4, 6] += 3
    assert window_sums_batch(bumped, 3, 3).max() >= s0


def test_window_must_fit():
    values = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(GeometryError):
        window_sums_batch(values, 5, 1)
    with pytest.raises(GeometryError):
        window_sums_batch(values, 1, 0)


def test_batched_axis_matches_per_field():
    rng = np.random.default_rng(42)
    stack = rng.integers(0, 4, size=(5, 6, 7)).astype(np.int64)
    batched = window_sums_batch(stack, 3, 2)
    for b in range(5):
        assert np.array_equal(batched[b], window_sums_batch(stack[b], 3, 2))


@st.composite
def _linear_kernel_cases(draw):
    """A source stack, a linear transform and a window that fits its block factor."""
    kind = draw(st.sampled_from(["bool", "int8", "int64", "float64"]))
    c1, c2 = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cols, rows = draw(st.integers(c1, c1 + 8)), draw(st.integers(c2, c2 + 8))
    m1 = draw(st.integers(1, cols - c1 + 1))
    m2 = draw(st.integers(1, rows - c2 + 1))
    fill = draw(st.sampled_from(["random", "min", "max"])) if kind == "int8" else "random"
    if fill != "random":
        # the largest |weights| on an all-extreme source: |sum| reaches 128 * sum|w|,
        # the bound narrow_int sizes the result for
        sign = draw(st.sampled_from([-1, 1]))
        weights = np.full((c2, c1), sign * 127, dtype=np.int64)
    elif draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(-127, 127), min_size=c1 * c2, max_size=c1 * c2)))
        weights = weights.astype(np.int64).reshape(c2, c1)
    else:
        floats = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        weights = np.array(draw(st.lists(floats, min_size=c1 * c2, max_size=c1 * c2))).reshape(c2, c1)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (2, rows, cols)
    if kind == "float64":
        source = rng.normal(0.0, 100.0, size=shape)
    elif kind == "bool":
        source = rng.random(shape) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    elif kind == "int64":
        source = rng.integers(-(10**6), 10**6, size=shape, dtype=np.int64)
    elif fill == "random":
        source = rng.integers(-128, 128, size=shape, dtype=np.int8)
    else:
        source = np.full(shape, -128 if fill == "min" else 127, dtype=np.int8)
    transform = BlockFactorTransform(name="drawn", weights=weights)
    return source, transform, m1, m2


@given(case=_linear_kernel_cases())
@settings(max_examples=150)
def test_linear_kernel_matches_per_site_oracle(case):
    """Window sums of the batched block factor equal brute force over per-site transforms."""
    source, transform, m1, m2 = case
    fast = window_sums_batch(apply_block_factor_batch(source, transform), m1, m2)
    integer_source = np.issubdtype(source.dtype, np.integer) or source.dtype == np.bool_
    exact = integer_source and np.issubdtype(transform.weights.dtype, np.integer)
    assert np.issubdtype(fast.dtype, np.integer) if exact else fast.dtype == np.float64
    for b in range(source.shape[0]):
        derived = per_site_block_factor(source[b], transform)
        slow = brute_moving_sums(derived, m1, m2)
        if exact:
            assert np.array_equal(fast[b], slow)
        else:
            scale = np.abs(derived).sum() + 1.0
            assert np.max(np.abs(fast[b] - slow)) <= 1e-12 * scale


def test_float_sums_do_not_need_extended_precision():
    """Mean-1e6 Gaussian sums stay within 1e-12 relative of brute force, in float64."""
    rng = np.random.default_rng(303)
    values = rng.normal(1e6, 1.0, size=(40, 50))
    for m1, m2 in ((7, 5), (20, 1), (1, 16), (50, 40)):
        fast = window_sums_batch(values, m1, m2)
        slow = brute_moving_sums(values, m1, m2)
        assert fast.dtype == np.float64
        assert np.max(np.abs(fast - slow) / np.abs(slow)) <= 1e-12
    assert window_sums_batch(values.astype(np.float32), 3, 3).dtype == np.float64


def test_integer_sums_use_the_narrow_dtype_bound():
    # 3x3 sums of an int16 field fit int32, of an int8 field int16, of a bool field int8
    assert window_sums_batch(np.full((2, 6, 6), 8, dtype=np.int16), 3, 3).dtype == np.int32
    assert window_sums_batch(np.ones((6, 6), dtype=np.bool_), 3, 3).dtype == np.int8
    extreme = np.full((9, 9), -(2**15), dtype=np.int16)
    sums = window_sums_batch(extreme, 9, 9)
    assert sums.dtype == np.int32 and sums.item() == -(2**15) * 81
    single = np.arange(12, dtype=np.int8).reshape(3, 4)
    ones = window_sums_batch(single, 1, 1)
    assert ones.dtype == np.int16 and np.array_equal(ones, single)
    assert not np.shares_memory(ones, single)


def test_minesweeper_sums_of_bernoulli_cells_are_int8_up_to_72():
    """With the exact bounds, 1 per cell and 8 per count, all-ones 3x3 sums are 72 in int8."""
    ones = np.ones((3, 8, 9), dtype=np.bool_)
    derived = apply_block_factor_batch(ones, minesweeper_transform(), bound=1)
    assert derived.dtype == np.int8 and np.all(derived == 8)
    sums = window_sums_batch(derived, 3, 3, bound=8)
    assert sums.dtype == np.int8 and sums.shape == (3, 4, 5) and np.all(sums == 72)
    # without the bound the int8 counts could be 127 each, so their sums are int16
    assert window_sums_batch(derived, 3, 3).dtype == np.int16
    # a binomial count held in int64 narrows by its trials
    held = np.full((2, 8, 9), 16, dtype=np.int64)
    derived = apply_block_factor_batch(held, minesweeper_transform(), bound=16)
    assert derived.dtype == np.int16 and np.all(derived == 128)


@given(
    bound=st.sampled_from([1, 14, 15, 3640, 3641, 2**28]),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    fill=st.sampled_from(["random", "min", "max"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100)
def test_sums_under_an_exact_bound_match_brute_force(bound, m1, m2, fill, seed):
    """int64 values within ``|x| <= bound`` sum exactly in ``narrow_int(int64, m1 * m2, bound)``."""
    rng = np.random.default_rng(seed)
    shape = (2, m2 + 3, m1 + 4)
    if fill == "random":
        values = rng.integers(-bound, bound + 1, size=shape, dtype=np.int64)
    else:
        values = np.full(shape, -bound if fill == "min" else bound, dtype=np.int64)
    sums = window_sums_batch(values, m1, m2, bound=bound)
    assert sums.dtype == narrow_int(np.int64, m1 * m2, bound)
    for b in range(shape[0]):
        assert np.array_equal(sums[b], brute_moving_sums(values[b], m1, m2))


# the same (batch, rows, cols) values in memory layouts the flat kernel must handle
_LAYOUTS = {
    "contiguous": lambda x: x,
    "transposed": lambda x: np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2),
    "batch-inner": lambda x: np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2),
    "negative-stride": lambda x: np.ascontiguousarray(x[..., ::-1])[..., ::-1],
    "reversed-batch": lambda x: x[::-1],
    "broadcast": lambda x: np.broadcast_to(x[1], x.shape),
    "stepped": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
    "row-padded": lambda x: np.concatenate([x, x[..., :3]], axis=-1)[..., : x.shape[-1]],
    "2-D": lambda x: x[1],
    "4-D": lambda x: np.stack([x, x[::-1]]),
    "empty-batch": lambda x: x[:0],
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.float64])
def test_flat_kernel_handles_any_input_layout(layout, dtype):
    """Block factor and window sums equal the per-site and brute oracles in every layout."""
    rng = np.random.default_rng(77)
    stack = rng.integers(-3, 4, size=(3, 7, 8))
    stack = (stack > 0) if dtype == np.bool_ else stack.astype(dtype)
    source = _LAYOUTS[layout](stack)
    weights = np.array([[1, -2, 0], [3, 1, 1]], dtype=np.int64)
    transform = BlockFactorTransform(name="drawn", weights=weights)
    derived = apply_block_factor_batch(source, transform)
    sums = window_sums_batch(derived, 3, 2)
    raw_sums = window_sums_batch(source, 4, 3)
    assert derived.shape == source.shape[:-2] + (6, 6)
    assert sums.shape == source.shape[:-2] + (5, 4)
    assert raw_sums.shape == source.shape[:-2] + (5, 5)
    for out in (derived, sums, raw_sums):
        assert not np.shares_memory(out, source)
        # no two elements of a result share memory either
        assert all(st > 0 for n, st in zip(out.shape, out.strides) if n > 1)
    for index in np.ndindex(source.shape[:-2]):
        expected = per_site_block_factor(source[index], transform)
        assert np.array_equal(derived[index], expected)
        assert np.array_equal(sums[index], brute_moving_sums(expected, 3, 2))
        assert np.array_equal(raw_sums[index], brute_moving_sums(source[index], 4, 3))


def test_tile_maxima_match_per_tile_maxima():
    """Every tile's maximum, for ragged edges, one tile, single rows and a 2-D input."""
    rng = np.random.default_rng(55)
    stack = rng.integers(-50, 50, size=(4, 9, 11)).astype(np.int16)
    for tile_rows, tile_cols in ((1, 1), (2, 3), (4, 4), (9, 11), (5, 6), (1, 5), (9, 2)):
        tiles = tile_maxima(stack, tile_rows, tile_cols)
        grid = (9 // tile_rows, 11 // tile_cols)
        assert tiles.shape == (4,) + grid and tiles.dtype == stack.dtype
        for b, r, c in np.ndindex(tiles.shape):
            block = stack[b, r * tile_rows : (r + 1) * tile_rows, c * tile_cols : (c + 1) * tile_cols]
            assert tiles[b, r, c] == block.max()
        assert np.array_equal(tile_maxima(stack[2], tile_rows, tile_cols), tiles[2])
    with pytest.raises(GeometryError):
        tile_maxima(stack, 10, 1)


def test_kernels_reusing_buffers_equal_fresh_arrays():
    """One ``Buffers`` through many calls: no call reads what an earlier one left behind.

    Window sides 1 to 20 take every path of the doubling: one set bit
    (powers of two, copied out at the end), adjacent set bits, and set bits
    far enough apart (18, 20) that the first piece must leave its block
    before that block is overwritten.
    """
    rng = np.random.default_rng(31)
    buffers = Buffers()
    # dyadic float weights keep the float sums exact
    kernels = [
        np.ones((3, 3), dtype=np.int64),
        np.array([[0, 2, -1], [3, 0, 1], [1, 1, -4]]),
        np.array([[0.5, -1.5, 0.25]] * 3),
    ]
    for m in range(1, 21):
        stack = rng.integers(-4, 5, size=(2, 23, 24))
        source = (stack > 1) if m % 3 == 0 else stack.astype(np.int8 if m % 3 == 1 else np.float64)
        weights = kernels[m % 3]
        transform = BlockFactorTransform(name="drawn", weights=weights)
        derived = apply_block_factor_batch(source, transform, buffers=buffers)
        fresh = apply_block_factor_batch(source, transform)
        assert derived.dtype == fresh.dtype and np.array_equal(derived, fresh)
        m1, m2 = m, 21 - m
        sums = window_sums_batch(derived, m1, m2, buffers=buffers)
        assert sums.dtype == window_sums_batch(fresh, m1, m2).dtype
        for index in np.ndindex(2):
            assert np.array_equal(sums[index], brute_moving_sums(fresh[index], m1, m2))
        tiles = tile_maxima(sums, 1, 2, buffers=buffers)
        assert np.array_equal(tiles, tile_maxima(sums.copy(), 1, 2))
