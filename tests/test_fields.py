import math

import numpy as np
import pytest
from scipy import stats

from blockscan import MarginalDistribution, SeedSpec
from blockscan.errors import ParameterError
from blockscan.pipeline import _stream_id

_MASK64 = 2**64 - 1

# NumPy's Generator.poisson rejects a mean above int64 max - 10 * sqrt(int64 max)
_NUMPY_POISSON_MAX = 9.223372006484771e18


def test_bernoulli_p0_all_zero():
    field = MarginalDistribution.bernoulli(0.0).sample(SeedSpec(1).generator(), (4, 4))
    assert np.all(field == 0)


def test_bernoulli_p1_all_one():
    field = MarginalDistribution.bernoulli(1.0).sample(SeedSpec(1).generator(), (4, 4))
    assert np.all(field == 1)


def test_bernoulli_law_of_large_numbers():
    field = MarginalDistribution.bernoulli(0.5).sample(SeedSpec(7).generator(), (100, 1000))
    assert abs(field.mean() - 0.5) <= 3 * np.sqrt(0.25 / 1e5)


def test_generation_is_deterministic():
    dist = MarginalDistribution.poisson(2.5)
    a = dist.sample(SeedSpec(123, 4).generator(), (20, 30))
    b = dist.sample(SeedSpec(123, 4).generator(), (20, 30))
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    dist = MarginalDistribution.gaussian(0.0, 1.0)
    a = dist.sample(SeedSpec(5, 0).generator(), (10, 10))
    b = dist.sample(SeedSpec(5, 1).generator(), (10, 10))
    assert not np.array_equal(a, b)


def test_stream_independence_proxy():
    dist = MarginalDistribution.gaussian(0.0, 1.0)
    a = dist.sample(SeedSpec(99, 0).generator(), (100, 100)).ravel()
    b = dist.sample(SeedSpec(99, 1).generator(), (100, 100)).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(a.size)


@pytest.mark.parametrize(
    "master, stream", [(0, 0), (42, 7), (2014, 2**64 - 1), (-1, 3), (2**64 + 5, -2)]
)
def test_a_stream_is_sfc64_seeded_by_a_seed_sequence(master, stream):
    words = SeedSpec(master, stream).bit_generator().random_raw(8)
    entropy = np.random.SeedSequence(master & _MASK64, spawn_key=(stream & _MASK64,))
    assert np.array_equal(words, np.random.SFC64(entropy).random_raw(8))


def test_stream_words_are_pinned():
    """Fixed literals, so every NumPy version seeds each stream, and draws every table, alike."""
    assert SeedSpec(42, 7).bit_generator().random_raw(4).tolist() == [
        0xD6AA0DC21EC20A58, 0xA1FA4451CAAB2E69, 0xE2EB353ADBBCFBE2, 0x02351CB97EC24287,
    ]


@pytest.mark.parametrize("master", [-1, 2**64 + 5])
def test_seeds_outside_64_bits_draw_as_their_low_64_bits(master):
    drawn = MarginalDistribution.bernoulli(0.5).sample(SeedSpec(master).generator(), 64)
    again = MarginalDistribution.bernoulli(0.5).sample(SeedSpec(master & _MASK64).generator(), 64)
    assert np.array_equal(drawn, again)


def _chunk_stream(k):
    """The generator ``pipeline._accumulate`` gives chunk ``k`` of a ``quv`` tally at seed 42."""
    return SeedSpec(42).with_stream(_stream_id("quv", k)).generator()


@pytest.mark.parametrize("k", [0, 96])
def test_adjacent_chunk_streams_give_uniform_bytes(k):
    # a quv-sparse chunk: 3640 replicas of 12 x 12 cells, one byte each
    cells = 3640 * 144
    for rng in (_chunk_stream(k), _chunk_stream(k + 1)):
        words = rng.bit_generator.random_raw(-(-cells // 8))
        cell_bytes = words.astype("<u8", copy=False).view(np.uint8)[:cells]
        assert stats.chisquare(np.bincount(cell_bytes, minlength=256)).pvalue > 0.001


@pytest.mark.parametrize("k", [0, 96])
def test_adjacent_chunk_streams_are_uncorrelated(k):
    dist = MarginalDistribution.bernoulli(0.5)
    a, b = (dist.sample(_chunk_stream(j), (3640, 12, 12)).ravel() for j in (k, k + 1))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(a.size)


def test_bernoulli_chisquare_goodness_of_fit():
    p = 0.3
    values = MarginalDistribution.bernoulli(p).sample(SeedSpec(17).generator(), (100, 1000))
    ones = int(values.sum())
    n = values.size
    result = stats.chisquare([n - ones, ones], [n * (1 - p), n * p])
    assert result.pvalue > 0.001


def test_poisson_chisquare_goodness_of_fit():
    mean = 3.0
    values = MarginalDistribution.poisson(mean).sample(SeedSpec(18).generator(), (100, 1000))
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
        # past what NumPy draws: its Poisson mean limit and int64 trials
        lambda: MarginalDistribution.poisson(1e20),
        lambda: MarginalDistribution.poisson(float(np.nextafter(_NUMPY_POISSON_MAX, math.inf))),
        lambda: MarginalDistribution.binomial(10**30, 0.5),
        lambda: MarginalDistribution.binomial(2**63, 0.5),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(ParameterError):
        build()


def test_largest_accepted_parameters_draw():
    """The largest Poisson mean and binomial trials accepted are ones NumPy draws."""
    rng = SeedSpec(4).generator()
    for dist in (
        MarginalDistribution.poisson(_NUMPY_POISSON_MAX),
        MarginalDistribution.binomial(2**63 - 1, 0.5),
    ):
        assert dist.sample(rng, 3).dtype == np.int64
    with pytest.raises(ValueError):
        rng.poisson(float(np.nextafter(_NUMPY_POISSON_MAX, math.inf)))


@pytest.mark.parametrize("mean", [1e-3, 0.2, 3.0, 1e3, 1e9, 1e15])
def test_poisson_cell_bound_is_a_2_to_minus_64_tail(mean):
    bound = MarginalDistribution.poisson(mean).cell_bound
    assert stats.poisson.sf(bound, mean) < 2.0**-64
    assert bound < mean + 20.0 * math.sqrt(mean) + 40.0


_RAW_DRAW_PS = [
    0.0, 1.0, 2.0**-53, 3 * 2.0**-53, 1.0 - 2.0**-53, 0.1, 0.5,
    float(np.nextafter(0.1, 0.0)), float(np.nextafter(0.1, 1.0)),
]
_LOW = 2**45 - 1


def _uniform_compare(rng, p, size):
    """Reference Bernoulli cells, one at a time, from the raw draws of ``rng``.

    Cell ``i`` reads byte ``i`` of the raw words, little-endian; a byte equal
    to ``top`` takes the low 45 bits of the next word drawn after them.  The
    cell is ``U < p`` for the uniform ``U = (byte * 2**45 + low) / 2**53``
    (low 0 for the other cells, whose byte alone decides the comparison).
    """
    cells = math.prod(size)
    words = [int(w) for w in rng.bit_generator.random_raw(-(-cells // 8))]
    cell_bytes = [(w >> (8 * k)) & 0xFF for w in words for k in range(8)][:cells]
    top = math.ceil(p * 2.0**53) >> 45
    ties = [i for i, b in enumerate(cell_bytes) if b == top]
    low = dict(zip(ties, (int(w) & _LOW for w in rng.bit_generator.random_raw(len(ties)))))
    uniform = [(b * 2**45 + low.get(i, 0)) * 2.0**-53 for i, b in enumerate(cell_bytes)]
    return np.array([u < p for u in uniform], dtype=bool).reshape(size)


@pytest.mark.parametrize("p", _RAW_DRAW_PS)
@pytest.mark.parametrize("size", [(300, 7, 9), (0, 4)])
def test_bernoulli_from_raw_draws_equals_uniform_compare(p, size):
    """Byte Bernoulli equals a per-cell uniform compare: same values, bool, same stream position."""
    dist = MarginalDistribution.bernoulli(p)
    fast_rng, slow_rng = SeedSpec(2014, 9).generator(), SeedSpec(2014, 9).generator()
    fast = dist.sample(fast_rng, size)
    slow = _uniform_compare(slow_rng, p, size)
    assert fast.dtype == np.bool_ and fast.shape == size
    assert np.array_equal(fast, slow)
    assert fast_rng.random() == slow_rng.random()


class _RawWords:
    """Stands in for a Generator whose bit generator hands out the given raw words in turn."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0

    def random_raw(self, size):
        if self.used + size > self.words.size:
            raise AssertionError("sampler asked for more raw words than it should")
        self.used += size
        return self.words[self.used - size : self.used]


def _pack(cell_bytes):
    """Little-endian 64-bit words holding the given bytes, the last one padded with 0xAB."""
    padded = list(cell_bytes) + [0xAB] * (-len(cell_bytes) % 8)
    return [
        sum(b << (8 * k) for k, b in enumerate(padded[i : i + 8]))
        for i in range(0, len(padded), 8)
    ]


def test_bernoulli_cut_is_exact_at_the_draw_boundary():
    """Bytes at top - 1, top, top + 1 and tie words at rest - 1, rest, rest + 1 give
    exactly ``(byte << 45 | low45) < cut``, drawing ceil(cells / 8) words plus one per tie."""
    # 2**-9 and 3 * 2**-10 have top == 0 < rest; 0.999 and 1 - 2**-53 have top == 255
    for p in [0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, 0.1, 0.5, 2.0**-9, 3 * 2.0**-10, 0.999]:
        cut = math.ceil(p * 2.0**53)
        top, rest = cut >> 45, cut & _LOW
        lows = [r for r in (rest - 1, rest, rest + 1, 0, _LOW) if 0 <= r <= _LOW]
        others = [b for b in (top - 1, top + 1, 0, 255) if 0 <= b <= 255 and b != top]
        cell_bytes = others + [top] * len(lows) if top <= 255 else others
        # high bits above the 45 low ones must not matter
        tie_words = [low | (0x5A5A5 << 45) for low in lows[: cell_bytes.count(top)]]
        stand_in = _RawWords(_pack(cell_bytes) + tie_words)
        drawn = MarginalDistribution.bernoulli(p).sample(stand_in, (len(cell_bytes),))
        low_of = iter(lows)
        expected = [(b << 45 | (next(low_of) if b == top else 0)) < cut for b in cell_bytes]
        assert drawn.tolist() == expected, p
        assert stand_in.used == -(-len(cell_bytes) // 8) + len(tie_words), p


def test_bernoulli_reads_bytes_little_endian():
    """Word 0x0807060504030201 gives cells from bytes 1, 2, ..., 8 in that order."""
    p = 4.5 / 256  # top 4, rest 2**44: bytes 1-3 succeed, 4 ties, 5-8 fail
    stand_in = _RawWords([0x0807060504030201, 0])  # the tie word's low bits 0 < rest
    drawn = MarginalDistribution.bernoulli(p).sample(stand_in, 8)
    assert drawn.tolist() == [True] * 4 + [False] * 4
    assert stand_in.used == 2


@pytest.mark.parametrize(
    "dist",
    [
        MarginalDistribution.bernoulli(0.3),
        MarginalDistribution.binomial(4, 0.2),
        MarginalDistribution.poisson(1.5),
        MarginalDistribution.gaussian(0.4, 2.3),
    ],
    ids=lambda d: d.kind,
)
def test_sample_into_out_equals_a_fresh_sample(dist):
    size = (5, 6, 7)
    fresh = dist.sample(SeedSpec(8).generator(), size)
    out = np.full(size, 7, dtype=dist.dtype)
    filled = dist.sample(SeedSpec(8).generator(), size, out=out)
    assert filled is out and fresh.dtype == dist.dtype
    assert np.array_equal(fresh, out)


def test_gaussian_sample_is_numpys_normal():
    """mean + sd * z over standard normals rounds like ``Generator.normal``, bit for bit."""
    for mean, variance in [(0.0, 1.0), (0.4, 2.3), (-1e6, 0.017)]:
        dist = MarginalDistribution.gaussian(mean, variance)
        drawn = dist.sample(SeedSpec(3).generator(), (40, 50))
        normal = SeedSpec(3).generator().normal(mean, np.sqrt(variance), (40, 50))
        assert np.array_equal(drawn.view(np.uint64), normal.view(np.uint64))


class _Zeros:
    """Stands in for a Generator whose standard normals are all ``-0.0``."""

    def standard_normal(self, out):
        out.fill(-0.0)


def test_a_standard_gaussian_sample_is_standard_normal():
    """``gaussian(0, 1)`` runs no affine pass: its draws are ``standard_normal``'s, bit for bit."""
    dist = MarginalDistribution.gaussian(0.0, 1.0)
    drawn = dist.sample(SeedSpec(3).generator(), (40, 50))
    standard = SeedSpec(3).generator().standard_normal((40, 50))
    assert np.array_equal(drawn.view(np.uint64), standard.view(np.uint64))
    # adding 0.0 would turn -0.0 into +0.0
    assert np.all(np.signbit(dist.sample(_Zeros(), 6)))


@pytest.mark.parametrize(
    "out",
    [
        np.empty((4, 5), dtype=np.int64),
        np.empty((5, 4), dtype=bool),
        np.empty((4, 10), dtype=bool)[:, ::2],
    ],
    ids=["dtype", "shape", "strided"],
)
def test_sample_rejects_an_unusable_out(out):
    with pytest.raises(ParameterError):
        MarginalDistribution.bernoulli(0.5).sample(SeedSpec(1).generator(), (4, 5), out=out)
