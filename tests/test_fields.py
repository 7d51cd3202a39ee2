import math

import numpy as np
import pytest
from scipy import stats

from blockscan import MarginalDistribution, SeedSpec, generate_field
from blockscan.errors import ParameterError


def test_bernoulli_p0_all_zero():
    field = generate_field(MarginalDistribution.bernoulli(0.0), 4, 4, SeedSpec(1))
    assert np.all(field.values == 0)


def test_bernoulli_p1_all_one():
    field = generate_field(MarginalDistribution.bernoulli(1.0), 4, 4, SeedSpec(1))
    assert np.all(field.values == 1)


def test_bernoulli_law_of_large_numbers():
    field = generate_field(MarginalDistribution.bernoulli(0.5), 1000, 100, SeedSpec(7))
    assert abs(field.values.mean() - 0.5) <= 3 * np.sqrt(0.25 / 1e5)


def test_generation_is_deterministic():
    dist = MarginalDistribution.poisson(2.5)
    a = generate_field(dist, 30, 20, SeedSpec(123, 4))
    b = generate_field(dist, 30, 20, SeedSpec(123, 4))
    assert np.array_equal(a.values, b.values)


def test_distinct_streams_differ():
    dist = MarginalDistribution.gaussian(0.0, 1.0)
    a = generate_field(dist, 10, 10, SeedSpec(5, 0))
    b = generate_field(dist, 10, 10, SeedSpec(5, 1))
    assert not np.array_equal(a.values, b.values)


def test_stream_independence_proxy():
    dist = MarginalDistribution.gaussian(0.0, 1.0)
    a = generate_field(dist, 100, 100, SeedSpec(99, 0)).values.ravel()
    b = generate_field(dist, 100, 100, SeedSpec(99, 1)).values.ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(a.size)


def test_bernoulli_chisquare_goodness_of_fit():
    p = 0.3
    values = generate_field(MarginalDistribution.bernoulli(p), 1000, 100, SeedSpec(17)).values
    ones = int(values.sum())
    n = values.size
    result = stats.chisquare([n - ones, ones], [n * (1 - p), n * p])
    assert result.pvalue > 0.001


def test_poisson_chisquare_goodness_of_fit():
    mean = 3.0
    values = generate_field(MarginalDistribution.poisson(mean), 1000, 100, SeedSpec(18)).values
    n = values.size
    # bin the tail so every expected count stays comfortably large
    upper = 10
    observed = np.bincount(np.minimum(values.ravel(), upper), minlength=upper + 1)
    expected = np.array([stats.poisson.pmf(k, mean) for k in range(upper)])
    expected = np.append(expected, 1.0 - expected.sum()) * n
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


@pytest.mark.parametrize(
    "build",
    [
        lambda: MarginalDistribution.bernoulli(-0.1),
        lambda: MarginalDistribution.bernoulli(1.5),
        lambda: MarginalDistribution.binomial(0, 0.5),
        lambda: MarginalDistribution.binomial(3, 2.0),
        lambda: MarginalDistribution.poisson(0.0),
        lambda: MarginalDistribution.poisson(-1.0),
        lambda: MarginalDistribution.gaussian(0.0, 0.0),
        lambda: MarginalDistribution("triangular", p=0.5),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(ParameterError):
        build()


def test_invalid_dimensions_rejected():
    with pytest.raises(ParameterError):
        generate_field(MarginalDistribution.bernoulli(0.5), 0, 4, SeedSpec(1))


def test_at_uses_column_row_convention():
    field = generate_field(MarginalDistribution.poisson(4.0), 5, 3, SeedSpec(2))
    assert field.cols == 5 and field.rows == 3
    assert field.at(2, 3) == field.values[2, 1]
    with pytest.raises(IndexError):
        field.at(6, 1)


_RAW_DRAW_PS = [
    0.0, 1.0, 2.0**-53, 3 * 2.0**-53, 1.0 - 2.0**-53, 0.1, 0.5,
    float(np.nextafter(0.1, 0.0)), float(np.nextafter(0.1, 1.0)),
]


@pytest.mark.parametrize("p", _RAW_DRAW_PS)
@pytest.mark.parametrize("size", [(300, 7, 9), (0, 4)])
def test_bernoulli_from_raw_draws_equals_uniform_compare(p, size):
    """Raw-draw Bernoulli is ``rng.random(size) < p``: same values, bool, same stream position."""
    dist = MarginalDistribution.bernoulli(p)
    fast_rng, slow_rng = SeedSpec(2014, 9).generator(), SeedSpec(2014, 9).generator()
    fast = dist.sample(fast_rng, size)
    slow = slow_rng.random(size) < p
    assert fast.dtype == np.bool_ and fast.shape == size
    assert np.array_equal(fast, slow)
    assert fast_rng.random() == slow_rng.random()


class _RawDraws:
    """Stands in for a Generator whose bit generator returns the given raw draws."""

    def __init__(self, raw):
        self.bit_generator = self
        self.raw = raw

    def random_raw(self, size):
        return self.raw.reshape(size)


def test_bernoulli_cut_is_exact_at_the_draw_boundary():
    """Raw draws on either side of each cut give what ``random() < p`` gives for them."""
    for p in _RAW_DRAW_PS[2:]:
        cut = math.ceil(p * 2.0**53) << 11
        near = [cut + d for d in (-2049, -2048, -1, 0, 2047, 2048) if 0 <= cut + d < 2**64]
        raw = np.array(near + [0, 2**64 - 1], dtype=np.uint64)
        # what Generator.random() makes of each raw draw, computed in float64
        uniform = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        drawn = MarginalDistribution.bernoulli(p).sample(_RawDraws(raw), raw.shape)
        assert np.array_equal(drawn, uniform < p)
