import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockscan import BlockFactorTransform, MarginalDistribution, SeedSpec
from blockscan.blockfactor import (
    Buffers,
    identity_transform,
    ma_transform,
    minesweeper_transform,
    narrow_int,
    run_passes,
)
from blockscan.errors import GeometryError
from blockscan.scan import _running_sums, running_extrema, window_sums_batch

from oracles import (
    brute_moving_sums,
    brute_scan_statistic,
    per_site_block_factor,
    running_tile_maxima,
)

# sums of a plain field: its identity block factor is the field itself
IDENTITY = identity_transform()


@pytest.mark.parametrize("step", [1, 9], ids=["column", "row"])
def test_running_sums_chain_the_bits_of_m(step):
    """Every side 1..70 sums like a brute moving sum, in ``floor(log2 m) + popcount(m) - 1`` adds.

    The cells are int8 at its bounds: a run of 127, a mix of both and a run
    of -128, so that the sums reach ``m`` times either bound in
    ``narrow_int(int8, m)``, and they are exact there.  No pass copies, the
    result is the head of ``out`` (``x`` itself at ``m = 1``), and only ``m
    >= 4`` takes a scratch slot.
    """
    rng = np.random.default_rng(70)
    mixed = rng.choice(np.array([-128, 127], dtype=np.int8), 10 * step + 3)
    x = np.concatenate([np.full(70 * step, 127, np.int8), mixed, np.full(70 * step, -128, np.int8)])
    size = x.size
    for m in range(1, 71):
        dtype, n = narrow_int(np.int8, m), size - (m - 1) * step
        buffers, ops, out = Buffers(), [], np.empty(size, narrow_int(np.int8, m))
        result = _running_sums(x, m, step, out, buffers, ops)
        assert len(ops) == m.bit_length() - 1 + bin(m).count("1") - 1
        assert all(fn is np.add for fn, _, _ in ops)
        assert ("scratch0" in buffers.taken) == (m >= 4)
        run_passes(ops)
        brute = sum(x[i * step : i * step + n].astype(np.int64) for i in range(m))
        assert result.size == n and np.array_equal(result, brute), m
        assert result is x if m == 1 else (result.dtype == dtype and np.shares_memory(result, out))
        assert brute.min() == -128 * m and brute.max() == 127 * m


def test_constant_field_sums():
    field = np.full((6, 9), 4, dtype=np.int64)
    sums = window_sums_batch(field, IDENTITY, 3, 2)
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
        fast = window_sums_batch(values, IDENTITY, m1, m2)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, brute_moving_sums(values, m1, m2))


def test_prefix_sums_match_brute_force_on_float_fields():
    rng = np.random.default_rng(202)
    values = rng.normal(0.0, 10.0, size=(40, 50))
    fast = window_sums_batch(values, IDENTITY, 7, 5)
    slow = brute_moving_sums(values, 7, 5)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)


def test_scan_statistic_matches_brute_force():
    field = MarginalDistribution.poisson(2.0).sample(SeedSpec(8).generator(), (9, 12))
    assert window_sums_batch(field, IDENTITY, 3, 2).max() == brute_scan_statistic(field, 3, 2)


def test_translation_shifts_sums_by_window_area():
    rng = np.random.default_rng(9)
    values = rng.integers(0, 5, size=(8, 8)).astype(np.int64)
    base = window_sums_batch(values, IDENTITY, 3, 3)
    shifted = window_sums_batch(values + 7, IDENTITY, 3, 3)
    assert np.array_equal(shifted, base + 9 * 7)


def test_scan_statistic_monotone_in_field_values():
    rng = np.random.default_rng(10)
    values = rng.integers(0, 5, size=(10, 10)).astype(np.int64)
    s0 = brute_scan_statistic(values, 3, 3)
    bumped = values.copy()
    bumped[4, 6] += 3
    assert window_sums_batch(bumped, IDENTITY, 3, 3).max() >= s0


def test_window_must_fit():
    values = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(GeometryError):
        window_sums_batch(values, IDENTITY, 5, 1)
    with pytest.raises(GeometryError):
        window_sums_batch(values, IDENTITY, 1, 0)


def test_batched_axis_matches_per_field():
    rng = np.random.default_rng(42)
    stack = rng.integers(0, 4, size=(5, 6, 7)).astype(np.int64)
    batched = window_sums_batch(stack, IDENTITY, 3, 2)
    for b in range(5):
        assert np.array_equal(batched[b], window_sums_batch(stack[b], IDENTITY, 3, 2))


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
    fast = window_sums_batch(source, transform, m1, m2)
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
        fast = window_sums_batch(values, IDENTITY, m1, m2)
        slow = brute_moving_sums(values, m1, m2)
        assert fast.dtype == np.float64
        assert np.max(np.abs(fast - slow) / np.abs(slow)) <= 1e-12
    assert window_sums_batch(values.astype(np.float32), IDENTITY, 3, 3).dtype == np.float64


def test_integer_sums_use_the_narrow_dtype_bound():
    # 3x3 sums of an int16 field fit int32, of an int8 field int16, of a bool field int8
    int16 = np.full((2, 6, 6), 8, dtype=np.int16)
    assert window_sums_batch(int16, IDENTITY, 3, 3).dtype == np.int32
    assert window_sums_batch(np.ones((6, 6), dtype=np.bool_), IDENTITY, 3, 3).dtype == np.int8
    extreme = np.full((9, 9), -(2**15), dtype=np.int16)
    sums = window_sums_batch(extreme, IDENTITY, 9, 9)
    assert sums.dtype == np.int32 and sums.item() == -(2**15) * 81
    single = np.arange(12, dtype=np.int8).reshape(3, 4)
    ones = window_sums_batch(single, IDENTITY, 1, 1)
    assert ones.dtype == np.int16 and np.array_equal(ones, single)
    assert not np.shares_memory(ones, single)


def test_minesweeper_sums_of_bernoulli_cells_are_int8_up_to_72():
    """All-ones bool cells: minesweeper counts 8 and 3x3 sums 72, in int8."""
    ones = np.ones((3, 8, 9), dtype=np.bool_)
    derived = window_sums_batch(ones, minesweeper_transform(), 1, 1)
    assert derived.dtype == np.int8 and np.all(derived == 8)
    sums = window_sums_batch(ones, minesweeper_transform(), 3, 3)
    assert sums.dtype == np.int8 and sums.shape == (3, 4, 5) and np.all(sums == 72)
    # an int8 field of counts could hold 127 each, so its 3x3 sums are int16
    counts = window_sums_batch(derived, IDENTITY, 3, 3)
    assert counts.dtype == np.int16 and np.array_equal(counts, sums)
    # a binomial count held in int64 sums in int64
    held = np.full((2, 8, 9), 16, dtype=np.int64)
    derived = window_sums_batch(held, minesweeper_transform(), 1, 1)
    assert derived.dtype == np.int64 and np.all(derived == 128)


@given(
    bound=st.sampled_from([1, 14, 15, 3640, 3641, 2**28]),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    fill=st.sampled_from(["random", "min", "max"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100)
def test_sums_under_an_exact_bound_match_brute_force(bound, m1, m2, fill, seed):
    """int64 values within ``|x| <= bound``, at and between both ends, sum exactly in int64."""
    rng = np.random.default_rng(seed)
    shape = (2, m2 + 3, m1 + 4)
    if fill == "random":
        values = rng.integers(-bound, bound + 1, size=shape, dtype=np.int64)
    else:
        values = np.full(shape, -bound if fill == "min" else bound, dtype=np.int64)
    sums = window_sums_batch(values, IDENTITY, m1, m2)
    assert sums.dtype == np.int64
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


# dyadic float weights keep the float sums exact
_TRANSFORMS = {
    "drawn": BlockFactorTransform(name="drawn", weights=np.array([[1, -2, 0], [3, 1, 1]])),
    "minesweeper": minesweeper_transform(),
    "ma": ma_transform((0.5, -1.0, 2.0)),
    "identity": IDENTITY,
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.float64])
def test_flat_kernel_handles_any_input_layout(layout, dtype):
    """Every catalog transform and a weighted one, alone and under windows, in every layout.

    Each result equals the brute window sums of the per-site block factor;
    under the identity those are the window sums of the raw field.
    """
    rng = np.random.default_rng(77)
    stack = rng.integers(-3, 4, size=(3, 7, 8))
    stack = (stack > 0) if dtype == np.bool_ else stack.astype(dtype)
    source = _LAYOUTS[layout](stack)
    for transform in _TRANSFORMS.values():
        rows, cols = transform.derived_shape(7, 8)
        for m1, m2 in ((1, 1), (3, 2), (4, 3), (1, rows), (cols, 1)):
            out = window_sums_batch(source, transform, m1, m2)
            assert out.shape == source.shape[:-2] + (rows - m2 + 1, cols - m1 + 1)
            assert not np.shares_memory(out, source)
            # no two elements of a result share memory either
            assert all(st > 0 for n, st in zip(out.shape, out.strides) if n > 1)
            for index in np.ndindex(source.shape[:-2]):
                derived = per_site_block_factor(source[index], transform)
                expected = brute_moving_sums(derived, m1, m2)
                assert np.array_equal(out[index], expected), (transform.name, m1, m2)


def _extrema(sums, tile_rows, tile_cols, reduce=np.maximum, buffers=None):
    """``running_extrema`` of ``sums``, recorded and then run."""
    ops = []
    buffers = Buffers() if buffers is None else buffers
    out = running_extrema(sums, (tile_rows, tile_cols), reduce, buffers=buffers, ops=ops)
    run_passes(ops)
    return out


def test_tile_maxima_match_per_tile_maxima():
    """The running extrema of the tiles, for ragged edges, one tile, single rows and a 2-D input.

    Grid first: at ``(i, k, ...)`` the extremum over the leading ``(i + 1)
    x (k + 1)`` tiles, the running maxima of ``oracles.per_tile_maxima``
    down and across the grid, and for minima those of the negated field.
    """
    rng = np.random.default_rng(55)
    stack = rng.integers(-50, 50, size=(4, 9, 11)).astype(np.int16)
    for tile_rows, tile_cols in ((1, 1), (2, 3), (4, 4), (9, 11), (5, 6), (1, 5), (9, 2)):
        grid = (9 // tile_rows, 11 // tile_cols)
        for reduce, sign in ((np.maximum, 1), (np.minimum, -1)):
            tiles = _extrema(stack, tile_rows, tile_cols, reduce)
            assert tiles.shape == grid + (4,) and tiles.dtype == stack.dtype
            expected = [sign * running_tile_maxima(sign * field, tile_rows, tile_cols) for field in stack]
            assert np.array_equal(tiles, np.stack(expected, axis=-1))
            assert np.array_equal(_extrema(stack[2], tile_rows, tile_cols, reduce), tiles[..., 2])
        maxima = _extrema(stack, tile_rows, tile_cols)
        for r, c, b in np.ndindex(maxima.shape):
            assert maxima[r, c, b] == stack[b, : (r + 1) * tile_rows, : (c + 1) * tile_cols].max()


def test_kernels_reusing_buffers_equal_fresh_arrays():
    """One ``Buffers`` through many calls: no call reads what an earlier one left behind.

    Window sides 1 to 20 take every path of the bit chain: powers of two
    (doublings only), adjacent set bits, set bits far apart (17, 20), and
    from 4 on doublings that alternate between the output and the scratch
    slot, which the block factor's weighted terms also write.
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
        derived = window_sums_batch(source, transform, 1, 1, buffers=buffers)
        fresh = window_sums_batch(source, transform, 1, 1)
        assert derived.dtype == fresh.dtype and np.array_equal(derived, fresh)
        m1, m2 = m, 21 - m
        sums = window_sums_batch(source, transform, m1, m2, buffers=buffers)
        fresh_sums = window_sums_batch(source, transform, m1, m2)
        assert sums.dtype == fresh_sums.dtype and np.array_equal(sums, fresh_sums)
        for index in np.ndindex(2):
            assert np.array_equal(sums[index], brute_moving_sums(fresh[index], m1, m2))
        tiles = _extrema(sums, 1, 2, buffers=buffers)
        assert np.array_equal(tiles, _extrema(sums.copy(), 1, 2))
        for index in range(2):
            assert np.array_equal(tiles[..., index], running_tile_maxima(sums[index], 1, 2))
