import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from blockscan import (
    BlockFactorTransform,
    MarginalDistribution,
    SeedSpec,
    catalog_transform,
    identity_transform,
    ma_transform,
    minesweeper_transform,
)
from blockscan.blockfactor import TRANSFORM_CATALOG, Buffers, narrow_int
from blockscan.errors import GeometryError, ParameterError
from blockscan.scan import window_sums_batch

from oracles import block_factor_value, configuration_matrix


def _coded_field(cols: int, rows: int) -> np.ndarray:
    """Field with value 10*i + j at column i, row j, so entries name their site."""
    i = np.arange(1, cols + 1)[None, :]
    j = np.arange(1, rows + 1)[:, None]
    return (10 * i + j).astype(np.int64)


def test_configuration_matrix_corner_entries():
    field = _coded_field(4, 4)
    mat = configuration_matrix(field, 1, 1, minesweeper_transform())
    assert mat.shape == (3, 3)
    assert mat[0, 0] == 13  # column 1, row 3: matrix rows run top-down
    assert mat[2, 2] == 31  # column 3, row 1


def test_configuration_matrix_full_indexing():
    field = _coded_field(6, 5)
    transform = BlockFactorTransform(name="wide", weights=np.ones((3, 4), dtype=np.int64))
    i, j = 2, 1
    mat = configuration_matrix(field, i, j, transform)
    for k in range(1, transform.c2 + 1):
        for l in range(1, transform.c1 + 1):
            col, row = i - 1 + l, j + transform.c2 - k
            assert mat[k - 1, l - 1] == field[row - 1, col - 1]


def test_configuration_matrix_range_checks():
    field = _coded_field(4, 4)
    transform = minesweeper_transform()
    assert configuration_matrix(field, 2, 2, transform)[0, 0] == 24
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 3)):
        with pytest.raises(IndexError):
            configuration_matrix(field, i, j, transform)


def test_geometry_validation():
    # a source without columns or rows is narrower than any window
    for rows, cols, field in ((3, 0, "source_cols"), (0, 3, "source_rows")):
        with pytest.raises(GeometryError) as err:
            identity_transform().derived_shape(rows, cols)
        assert err.value.field == field
    assert minesweeper_transform().derived_shape(8, 10) == (6, 8)


def test_identity_transform_reproduces_source():
    field = MarginalDistribution.poisson(2.0).sample(SeedSpec(3).generator(), (5, 7))
    out = window_sums_batch(field, identity_transform(), 1, 1)
    assert np.array_equal(out, field)


def test_minesweeper_all_ones_gives_eight():
    field = np.ones((6, 6), dtype=np.int64)
    out = window_sums_batch(field, minesweeper_transform(), 1, 1)
    assert out.shape == (4, 4)
    assert np.all(out == 8)


def test_minesweeper_zeros_and_diagonal():
    zeros = window_sums_batch(np.zeros((5, 5), dtype=np.int64), minesweeper_transform(), 1, 1)
    assert np.all(zeros == 0)
    diag = window_sums_batch(np.eye(5, dtype=np.int64), minesweeper_transform(), 1, 1)
    # interior diagonal cells see exactly the two diagonal neighbours
    assert diag[1, 1] == 2


def test_minesweeper_single_mine_neighbourhood():
    src = np.zeros((6, 6), dtype=np.int64)
    src[2, 3] = 1
    out = window_sums_batch(src, minesweeper_transform(), 1, 1)
    expected = np.zeros((4, 4), dtype=np.int64)
    for jj in range(4):
        for ii in range(4):
            near = abs(jj + 1 - 2) <= 1 and abs(ii + 1 - 3) <= 1
            expected[jj, ii] = int(near and not (jj + 1 == 2 and ii + 1 == 3))
    assert np.array_equal(out, expected)


def test_ma_transform_is_forward_convolution():
    t = ma_transform((0.3, 0.1, 0.5))
    src = np.array([[1.0, 2.0, 3.0, 4.0]])
    out = window_sums_batch(src, t, 1, 1)[0]
    assert out == pytest.approx([0.3 * 1 + 0.1 * 2 + 0.5 * 3, 0.3 * 2 + 0.1 * 3 + 0.5 * 4])


def test_ma_transform_constant_input():
    t = ma_transform((0.3, 0.1, 0.5))
    out = window_sums_batch(np.ones((1, 10)), t, 1, 1)
    assert np.allclose(out, 0.9)


def test_ma_output_variance_matches_coefficients():
    # Var(X_t) = sum(a^2) * sigma^2 for white-noise input
    coeffs = (0.3, 0.1, 0.5)
    n = 100_000
    src = MarginalDistribution.gaussian(0.0, 1.0).sample(SeedSpec(21).generator(), (1, n + 2))
    out = window_sums_batch(src, ma_transform(coeffs), 1, 1)
    target = sum(a * a for a in coeffs)
    assert abs(out.var() - target) < 0.01


def test_ma_coefficients_validated():
    bad = (
        (), (0.0, 0.0), [0.3, math.nan], [0.3, math.inf], ["x", 1], 0.3, "0.3",
        [0.3, -math.inf], [0.3, 10**400], [0.3, Fraction(10**400)], [0.3, np.float32("inf")],
        [True, 0.3],
    )
    for coeffs in bad:
        with pytest.raises(ParameterError) as err:
            ma_transform(coeffs)
        assert err.value.field == "ma_coeffs"


def test_batch_matches_per_site_evaluation():
    """The vectorised path agrees with site-by-site configuration evaluation."""
    rng = np.random.default_rng(77)
    src = rng.integers(0, 5, size=(7, 8)).astype(np.int64)
    for transform in (minesweeper_transform(), ma_transform((0.5, -1.0, 2.0))):
        batch = window_sums_batch(src, transform, 1, 1)
        for jj in range(batch.shape[0]):
            for ii in range(batch.shape[1]):
                matrix = configuration_matrix(src, ii + 1, jj + 1, transform)
                expected = block_factor_value(transform, matrix)
                assert batch[jj, ii] == pytest.approx(expected)


@pytest.mark.parametrize("name", sorted(TRANSFORM_CATALOG))
def test_configuration_matrix_oracle_matches_the_kernel_for_every_catalog_transform(name):
    """Kernel site ``(i, j)`` is the transform of the window at first column ``i``, lowest row ``j``."""
    transform = catalog_transform(name, **({"coeffs": [0.3, -0.1, 0.5]} if name == "ma" else {}))
    rng = np.random.default_rng(5)
    src = rng.integers(-3, 4, size=(2, 6, 9)).astype(np.int64)
    batch = window_sums_batch(src, transform, 1, 1)
    assert batch.shape == (2, 7 - transform.c2, 10 - transform.c1)
    for b in range(2):
        for jj in range(batch.shape[1]):
            for ii in range(batch.shape[2]):
                matrix = configuration_matrix(src[b], ii + 1, jj + 1, transform)
                expected = block_factor_value(transform, matrix)
                assert batch[b, jj, ii] == pytest.approx(expected, rel=1e-12)


def test_derived_values_depend_only_on_their_window():
    """Changing source cells outside the c2 x c1 window never moves X_{i,j}."""
    rng = np.random.default_rng(123)
    t = minesweeper_transform()
    base = rng.integers(0, 2, size=(8, 8)).astype(np.int64)
    out = window_sums_batch(base, t, 1, 1)
    jj, ii = 2, 3
    perturbed = base.copy()
    mask = np.ones((8, 8), dtype=bool)
    mask[jj : jj + 3, ii : ii + 3] = False
    perturbed[mask] = 1 - perturbed[mask]
    out2 = window_sums_batch(perturbed, t, 1, 1)
    assert out[jj, ii] == out2[jj, ii]


def test_minesweeper_marginal_is_binomial():
    p = 0.3
    reps = 20_000
    rng = SeedSpec(31).generator()
    src = MarginalDistribution.bernoulli(p).sample(rng, (reps, 6, 6))
    derived = window_sums_batch(src, minesweeper_transform(), 1, 1)
    for site in ((0, 0), (3, 3)):
        observed = np.bincount(derived[:, site[0], site[1]], minlength=9)
        expected = stats.binom.pmf(np.arange(9), 8, p) * reps
        assert stats.chisquare(observed, expected).pvalue > 0.001


def test_batch_shape_and_window_mismatch_raise():
    with pytest.raises(GeometryError):
        window_sums_batch(np.zeros(6), identity_transform(), 1, 1)
    cases = (
        (np.zeros((2, 5, 2)), minesweeper_transform(), "source_cols"),
        (np.zeros((2, 2, 5)), minesweeper_transform(), "source_rows"),
        (np.zeros((1, 2)), ma_transform((1.0, 2.0, 3.0)), "source_cols"),
    )
    for source, transform, field in cases:
        with pytest.raises(GeometryError) as err:
            window_sums_batch(source, transform, 1, 1)
        assert err.value.field == field
    # a window as large as the source leaves one derived value
    assert window_sums_batch(np.ones((3, 3)), minesweeper_transform(), 1, 1).shape == (1, 1)


def test_catalog_lookup():
    t = catalog_transform("minesweeper")
    assert t.name == "minesweeper" and (t.c1, t.c2) == (3, 3)
    t = catalog_transform("ma", coeffs=[0.3, 0.1, 0.5])
    assert (t.c1, t.c2) == (3, 1)
    t = catalog_transform("identity")
    assert (t.c1, t.c2) == (1, 1)
    for name in ("sobel", ["ma"], None):
        with pytest.raises(ParameterError) as err:
            catalog_transform(name)
        assert err.value.field == "transform"
    with pytest.raises(ParameterError):
        catalog_transform("ma")
    with pytest.raises(ParameterError):
        catalog_transform("minesweeper", radius=2)


def test_narrow_int_bounds_the_dtype_not_the_data():
    assert narrow_int(np.int8, 8) == np.int16  # minesweeper over Bernoulli
    assert narrow_int(np.int8, 255) == np.int16  # 128 * 255 = 32640
    assert narrow_int(np.int8, 256) == np.int32  # 128 * 256 = 32768
    assert narrow_int(np.int16, 9) == np.int32
    assert narrow_int(np.int32, 9) == np.int64
    assert narrow_int(np.int64, 1) == np.int64
    assert narrow_int(np.bool_, 9) == np.int8
    assert narrow_int(np.uint8, 128) == np.int16  # 255 * 128 = 32640
    assert narrow_int(np.bool_, 127) == np.int8  # 1 * 127
    assert narrow_int(np.int8, 200) == np.int16  # 128 * 200
    assert narrow_int(np.float64, 9) == np.float64


def test_linear_batch_dtype_holds_int8_extremes():
    """Weights summing to 255 (int16) and 256 (int32) over all -128 / all 127 sources."""
    for total, dtype in ((255, np.int16), (256, np.int32)):
        weights = np.array([[64, 64], [64, total - 192]], dtype=np.int64)
        t = BlockFactorTransform(name="wide", weights=weights)
        for fill in (-128, 127):
            out = window_sums_batch(np.full((2, 4, 4), fill, dtype=np.int8), t, 1, 1)
            assert out.dtype == dtype
            assert np.all(out == fill * total)
    minesweeper = window_sums_batch(
        np.ones((2, 5, 5), dtype=np.int8), minesweeper_transform(), 1, 1
    )
    assert minesweeper.dtype == np.int16 and np.all(minesweeper == 8)


def _owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_buffers_keep_named_bytes_and_lay_them_out_in_one_block():
    buffers = Buffers({"a": 100, "b": 24})
    a, b = buffers.take("a", 50, np.int16), buffers.take("b", 3, np.float64)
    assert a.dtype == np.int16 and a.shape == (50,) and b.shape == (3,)
    assert _owner(a) is _owner(b) and not np.shares_memory(a, b)
    assert (b.ctypes.data - a.ctypes.data) % 64 == 0
    # the same name reuses its bytes in any dtype; a larger take or a new name gets its own
    assert np.shares_memory(buffers.take("a", 12, np.float64), a)
    assert not np.shares_memory(buffers.take("a", 51, np.int16), a)
    c = buffers.take("c", 10, np.int8)
    assert _owner(c) is not _owner(b)
    assert buffers.taken == {"a": 102, "b": 24, "c": 10}
    assert np.shares_memory(buffers.take("c", 4, np.int16), c)
    # a fresh Buffers hands out fresh arrays
    assert not np.shares_memory(Buffers().take("a", 50, np.int16), a)


@pytest.mark.parametrize("sizes", [(1,), (100, 24), (7, 64, 65, 1, 300)])
def test_every_slot_of_the_block_starts_at_a_cache_line(sizes):
    """The block starts at a multiple of 64 bytes wherever malloc put it, and so does every slot."""
    for _ in range(20):  # fresh blocks at different heap addresses
        buffers = Buffers({f"slot{k}": n for k, n in enumerate(sizes)})
        for k, n in enumerate(sizes):
            slot = buffers.take(f"slot{k}", n, np.uint8)
            assert slot.ctypes.data % 64 == 0
