import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence
from scipy import stats

from blockscan import MarginalDistribution, SeedSpec
from blockscan.errors import ParameterError

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


class _Digest(ISeedSequence):
    """Hands NumPy's own SFC64 seeding the BLAKE2b words of a (seed, stream) pair."""

    def __init__(self, master, stream):
        key = (master & _MASK64).to_bytes(8, "little") + (stream & _MASK64).to_bytes(8, "little")
        self.words = np.frombuffer(hashlib.blake2b(key, digest_size=24).digest(), dtype="<u8")

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (3, np.dtype(np.uint64))
        return self.words.astype(np.uint64)


@pytest.mark.parametrize(
    "master, stream", [(0, 0), (42, 7), (2014, 2**64 - 1), (-1, 3), (2**64 + 5, -2)]
)
def test_a_stream_is_sfc64_seeded_by_a_seed_sequence(master, stream):
    """SFC64 seeded as NumPy seeds it (counter 1, 12 words skipped) from the pair's digest."""
    words = SeedSpec(master, stream).bit_generator().random_raw(8)
    assert np.array_equal(words, np.random.SFC64(_Digest(master, stream)).random_raw(8))


def test_stream_words_are_pinned():
    """Fixed literals, so every NumPy version seeds each stream, and draws every table, alike."""
    assert SeedSpec(42, 7).bit_generator().random_raw(4).tolist() == [
        0x4E5A8E6CB15E794F, 0x135A6636DA1038FA, 0x36162F4DC62941CD, 0xD8BA653D6BD7284F,
    ]


def test_a_reseeded_generator_draws_like_a_fresh_one():
    """Reseeding drops whatever the last stream left, a half-used 32-bit word too."""
    rng = SeedSpec(5, 1).generator()
    rng.integers(1 << 32, dtype=np.uint32)  # keeps the other half of a word
    SeedSpec(42, 7).reseed(rng.bit_generator)
    fresh = SeedSpec(42, 7).generator()
    assert rng.integers(1 << 32, size=5, dtype=np.uint32).tolist() == fresh.integers(
        1 << 32, size=5, dtype=np.uint32
    ).tolist()
    assert rng.standard_normal(3).tolist() == fresh.standard_normal(3).tolist()


@pytest.mark.parametrize("master", [-1, 2**64 + 5])
def test_seeds_outside_64_bits_draw_as_their_low_64_bits(master):
    drawn = MarginalDistribution.bernoulli(0.5).sample(SeedSpec(master).generator(), 64)
    again = MarginalDistribution.bernoulli(0.5).sample(SeedSpec(master & _MASK64).generator(), 64)
    assert np.array_equal(drawn, again)


def _chunk_stream(k):
    """The generator ``pipeline._accumulate`` gives chunk ``k`` of a ``quv`` tally at seed 42."""
    return SeedSpec.for_chunk(42, "quv", k).generator()


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


_NOT_FINITE = (10**400, Fraction(10**400), math.nan, math.inf, -math.inf, np.float32("inf"), True)
# each build and the field its rejection names
_INVALID = [
    (lambda: MarginalDistribution.bernoulli(-0.1), "p"),
    (lambda: MarginalDistribution.bernoulli(1.5), "p"),
    (lambda: MarginalDistribution.binomial(0, 0.5), "trials"),
    (lambda: MarginalDistribution.binomial(3, 2.0), "p"),
    (lambda: MarginalDistribution.poisson(0.0), "mean"),
    (lambda: MarginalDistribution.poisson(-1.0), "mean"),
    (lambda: MarginalDistribution.gaussian(0.0, 0.0), "variance"),
    (lambda: MarginalDistribution("triangular", p=0.5), "distribution"),
    # past what NumPy draws: its Poisson mean limit and int64 trials
    (lambda: MarginalDistribution.poisson(1e20), "mean"),
    (lambda: MarginalDistribution.poisson(float(np.nextafter(_NUMPY_POISSON_MAX, math.inf))),
     "mean"),
    (lambda: MarginalDistribution.binomial(10**30, 0.5), "trials"),
    (lambda: MarginalDistribution.binomial(2**63, 0.5), "trials"),
    # not a finite real number, or not an integer
    (lambda: MarginalDistribution.bernoulli("0.1"), "p"),
    (lambda: MarginalDistribution.bernoulli(True), "p"),
    (lambda: MarginalDistribution.binomial(2.5, 0.1), "trials"),
    (lambda: MarginalDistribution.gaussian(math.nan, 1.0), "mean"),
    (lambda: MarginalDistribution.gaussian(math.inf, 1.0), "mean"),
    (lambda: MarginalDistribution.gaussian("0", 1.0), "mean"),
    (lambda: MarginalDistribution.gaussian(0.0, math.inf), "variance"),
    # past the float range or not finite, whatever the type; a bool is no number
    *[(lambda bad=bad: MarginalDistribution.bernoulli(bad), "p") for bad in _NOT_FINITE],
    *[(lambda bad=bad: MarginalDistribution.gaussian(bad, 1.0), "mean") for bad in _NOT_FINITE],
    *[(lambda bad=bad: MarginalDistribution.gaussian(0.0, bad), "variance") for bad in _NOT_FINITE],
]


@pytest.mark.parametrize("build", [build for build, _ in _INVALID])
def test_invalid_parameters_rejected(build):
    with pytest.raises(ParameterError) as err:
        build()
    assert err.value.field == dict(_INVALID)[build]


# the parameters each kind takes, at valid values
_TAKEN = {
    "bernoulli": {"p": 0.1},
    "binomial": {"trials": 7, "p": 0.1},
    "poisson": {"mean": 3.0},
    "gaussian": {"mean": 0.0, "variance": 1.0},
}


@pytest.mark.parametrize("kind", sorted(_TAKEN))
def test_a_parameter_the_kind_does_not_take_is_rejected(kind):
    """A table records every parameter set, so one that no draw reads would misstate the run."""
    taken = _TAKEN[kind]
    MarginalDistribution(kind, **taken)
    strays = {"p": 0.5, "trials": 7, "mean": 3.0, "variance": 1.0}
    for name in set(strays) - set(taken):
        with pytest.raises(ParameterError, match=f"^{kind} takes no {name}$") as err:
            MarginalDistribution(kind, **taken, **{name: strays[name]})
        assert err.value.field == name


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
    2.0**-9, 0.75, 0.95, 0.999, float(np.nextafter(0.5, 1.0)),
]


def _reference_bernoulli(rng, p, size):
    """Reference Bernoulli cells, one at a time, from the draws of ``rng``.

    Above ``cut = 2**52`` the cells drawn are the failures, at ``2**53 - cut``.
    Cell ``i`` is drawn when byte ``i`` of the raw words, read little-endian,
    is below ``top`` (a compare of the top 8 bits of a uniform draw), or when
    an extra success lands on it: those sit at the running sums of
    ``geometric(q)`` gaps, counted from cell -1, drawn after the byte words in
    batches of ``ceil(n q + 4 sqrt(n q)) + 1`` until a sum passes the last
    cell.  Python ints, so no sum can wrap.
    """
    n = math.prod(size)
    cut = math.ceil(p * 2.0**53)
    failures = cut > 2**52
    top, rest = divmod(2**53 - cut if failures else cut, 2**45)
    words = [int(w) for w in rng.bit_generator.random_raw(-(-n // 8))]
    drawn = [(w >> (8 * k)) & 0xFF < top for w in words for k in range(8)][:n]
    if rest:
        q = rest / ((256 - top) * 2.0**45)
        cell = -1
        while cell < n:
            for gap in rng.geometric(q, math.ceil(n * q + 4.0 * math.sqrt(n * q)) + 1).tolist():
                cell += gap
                if cell < n:
                    drawn[cell] = True
    return np.array([d != failures for d in drawn], dtype=bool).reshape(size)


@pytest.mark.parametrize("p", _RAW_DRAW_PS)
@pytest.mark.parametrize("size", [(300, 7, 9), (0, 4)])
def test_bernoulli_from_raw_draws_equals_uniform_compare(p, size):
    """Byte compare, then geometric gaps: the reference's cells, bool, same stream position."""
    dist = MarginalDistribution.bernoulli(p)
    fast_rng, slow_rng = SeedSpec(2014, 9).generator(), SeedSpec(2014, 9).generator()
    fast = dist.sample(fast_rng, size)
    slow = _reference_bernoulli(slow_rng, p, size)
    assert fast.dtype == np.bool_ and fast.shape == size
    assert np.array_equal(fast, slow)
    assert fast_rng.random() == slow_rng.random()


class _StandIn:
    """Stands in for a Generator: raw words from ``words``, or else from a real
    generator, and each ``geometric`` call recorded, its gaps taken in turn from
    ``gaps`` when given."""

    def __init__(self, words=None, gaps=None):
        self.rng = SeedSpec(1).generator()
        self.bit_generator, self.gaps, self.calls, self.used = self, gaps, [], 0
        self.words = None if words is None else np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        if self.words is None:
            return self.rng.bit_generator.random_raw(size)
        if self.used + size > self.words.size:
            raise AssertionError("sampler asked for more raw words than it should")
        self.used += size
        return self.words[self.used - size : self.used]

    def geometric(self, q, size):
        self.calls.append((q, size))
        if self.gaps is None:
            return self.rng.geometric(q, size)
        return np.resize(np.array(self.gaps, dtype=np.int64), size)


def _pack(cell_bytes):
    """Little-endian 64-bit words holding the given bytes, the last one padded with 0xAB."""
    padded = list(cell_bytes) + [0xAB] * (-len(cell_bytes) % 8)
    return [
        sum(b << (8 * k) for k, b in enumerate(padded[i : i + 8]))
        for i in range(0, len(padded), 8)
    ]


def test_bernoulli_cut_is_exact_at_the_draw_boundary():
    """Bytes at top - 1, top and top + 1 give exactly ``byte < top`` (inverted above
    p = 1/2) from ceil(cells / 8) words; an extra success turns any cell into a success
    (a failure above 1/2); ``rest == 0`` draws no gap."""
    for p in [0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, 0.1, 0.5, 0.75, 2.0**-9, 3 * 2.0**-10, 0.999]:
        cut = math.ceil(p * 2.0**53)
        failures = cut > 2**52
        top, rest = divmod(2**53 - cut if failures else cut, 2**45)
        cell_bytes = [b for b in (top - 1, top, top + 1, 0, 255) if 0 <= b <= 255]
        byte_cells = [(b < top) != failures for b in cell_bytes]
        # a first gap past the last cell draws no extra success, gaps of 1 one on every cell
        for gaps, extra in (([len(cell_bytes) + 1], False), ([1], True)):
            stand_in = _StandIn(_pack(cell_bytes), gaps)
            drawn = MarginalDistribution.bernoulli(p).sample(stand_in, len(cell_bytes))
            expected = [not failures] * len(cell_bytes) if extra and rest else byte_cells
            assert drawn.tolist() == expected, p
            assert stand_in.used == -(-len(cell_bytes) // 8), p
            assert bool(stand_in.calls) == bool(rest), p


def test_bernoulli_reads_bytes_little_endian():
    """Word 0x0807060504030201 gives cells from bytes 1, 2, ..., 8 in that order."""
    p = 4.5 / 256  # top 4: bytes 1-3 succeed, 4-8 fail; a first gap of 4 hits byte 4's cell
    stand_in = _StandIn([0x0807060504030201], gaps=[4, 100])
    drawn = MarginalDistribution.bernoulli(p).sample(stand_in, 8)
    assert drawn.tolist() == [True] * 4 + [False] * 4
    assert stand_in.used == 1 and stand_in.calls == [(1 / 504, 2)]


def test_bernoulli_law_is_exact_in_fractions():
    """``top/256 + (1 - top/256) q == cut/2**53`` exactly, with ``q < 1/128``; the q drawn
    from is the one double nearest the exact q, and none is drawn when ``rest == 0``."""
    for p in _RAW_DRAW_PS + np.random.default_rng(5).random(200).tolist():
        cut = math.ceil(p * 2.0**53)
        drawn = 2**53 - cut if cut > 2**52 else cut
        top, rest = divmod(drawn, 2**45)
        q = Fraction(rest, (256 - top) * 2**45)
        assert Fraction(top, 256) + (1 - Fraction(top, 256)) * q == Fraction(drawn, 2**53), p
        assert q < Fraction(1, 128), p
        stand_in = _StandIn()
        MarginalDistribution.bernoulli(p).sample(stand_in, 1000)
        assert [c[0] for c in stand_in.calls] == ([float(q)] if rest else []), p


@pytest.mark.parametrize(
    "p", [2.0**-53, 3 * 2.0**-53, 2.0**-9, 0.1, 0.5, 0.75, 0.999, 1.0 - 2.0**-53]
)
def test_bernoulli_success_rate_z(p):
    """4M cells: the success count is within 5 standard errors of ``cut / 2**53``."""
    exact = math.ceil(p * 2.0**53) / 2.0**53
    cells = MarginalDistribution.bernoulli(p).sample(SeedSpec(31, 7).generator(), (1024, 4096))
    n, k = cells.size, int(np.count_nonzero(cells))
    z = (k - n * exact) / math.sqrt(n * exact * (1.0 - exact))
    assert abs(z) < 5.0, (p, k, z)


def test_bernoulli_gaps_cannot_wrap_int64():
    """Gaps of int64 max, which NumPy's geometric returns for its largest draws at tiny q,
    are clipped before they are summed: no sum wraps to a negative cell."""
    stand_in = _StandIn(gaps=[2**63 - 1])
    assert not MarginalDistribution.bernoulli(2.0**-53).sample(stand_in, 5000).any()
    assert stand_in.calls == [(2.0**-53, 2)]


def test_bernoulli_draws_batches_until_a_gap_passes_the_last_cell():
    """Gaps of 1 put an extra success on every cell, over as many fixed batches as it takes."""
    stand_in = _StandIn(gaps=[1])
    assert MarginalDistribution.bernoulli(0.1).sample(stand_in, 20_000).all()
    batch = stand_in.calls[0][1]
    assert stand_in.calls == [stand_in.calls[0]] * -(-20_001 // batch)


@pytest.mark.parametrize("p", [0.95, 0.999, 1.0 - 2.0**-53])
def test_bernoulli_above_one_half_draws_the_failures(p):
    """Above 1/2 the geometric draw is at the failures' q, below 1/128."""
    top, rest = divmod(2**53 - math.ceil(p * 2.0**53), 2**45)
    stand_in = _StandIn()
    MarginalDistribution.bernoulli(p).sample(stand_in, 5000)
    assert [c[0] for c in stand_in.calls] == [rest / ((256 - top) * 2.0**45)]
    assert stand_in.calls[0][0] < 1 / 128


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
