"""Generation of i.i.d. source lattices with reproducible per-stream generators.

The convention throughout the package: a lattice position is addressed as
``(i, j)`` with ``i`` the column (first coordinate) and ``j`` the row.  Arrays
are stored row-major as ``values[j - 1, i - 1]``.
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_integer, check_real

_MASK64 = (1 << 64) - 1
# a stream's key: the seed and the stream id, each as 8 little-endian bytes
_PAIR = struct.Struct("<QQ")
# SFC64's three hashed state words, read from a 24-byte digest
_WORDS = struct.Struct("<3Q")
# the largest binomial trials and Poisson mean NumPy draws from
_INT64_MAX = (1 << 63) - 1
_POISSON_MEAN_MAX = float(_INT64_MAX - math.sqrt(_INT64_MAX) * 10)
# the parameters each marginal kind takes (``MarginalDistribution``)
_PARAMETERS = {
    "bernoulli": ("p",),
    "binomial": ("trials", "p"),
    "poisson": ("mean",),
    "gaussian": ("mean", "variance"),
}
# how a call's chunk becomes draws, and its draws cells, as output tables
# name it: a seed draws other tables under another map
STREAM_MAP = (
    "chunk k (from 0) of a <task> call: stream = BLAKE2b (digest_size=8) of the UTF-8 text "
    "'<task>:<k>', read little-endian; SFC64 a, b, c = BLAKE2b (digest_size=24) of seed and "
    "stream, each mod 2**64 as 8 little-endian bytes, read as 3 little-endian words, "
    "counter 1, 12 words skipped; each group of a chunk counts as R = V * P * M replicas, "
    "V the views of the chunks line, M = 2 for Gaussian cells of mean c, else 1; a chunks "
    "line of pairs= makes field i of a chunk of h pairs a group with field i + h, of P = 4 "
    "members x, y, u = c + (x + y - 2c) / sqrt 2 and v = c + (x - y) / sqrt 2, whose view j "
    "is that of the views j of x and y; one of fields= makes each field a group of P = 1 "
    "member x; replica R * i + M * (P * j + k) + m is view j of member k of group i, and its "
    "mirror 2c - x if m = 1; view 0 is "
    "the field, and cell t of view j >= 1 is cell o_j[t] of the field, cells of a field in "
    "(row, col) order, o_j the stable argsort of the first rows * cols words of the stream "
    "of the text '<task>-view:<j>' (the same hash, seed and SFC64); chunk cells in "
    "(row, col, field) order; "
    "Bernoulli cells byte < top = cut >> 45, cut = ceil(p * 2**53), over the words' "
    "little-endian bytes, then extra successes at geometric gaps; for p > 1/2 the same draw "
    "at 2**53 - cut gives the failures"
)


@dataclass(frozen=True)
class SeedSpec:
    """A (master seed, stream id) pair mapping to one SFC64 stream.

    The map is pure: identical pairs give identical streams.  ``for_chunk``
    gives chunk ``k`` of a ``task`` call its stream id: the 8-byte BLAKE2b
    digest (``digest_size=8``, not the head of a longer digest) of the
    UTF-8 text ``"<task>:<k>"``, read little-endian.  The seed and the
    stream id are each taken modulo ``2**64`` and written as 8 little-endian
    bytes; the 24-byte BLAKE2b digest of those 16 bytes, read as three
    little-endian 64-bit words, is SFC64's ``(a, b, c)``, its fourth word
    is a counter that starts at 1, and the first 12 outputs are skipped, as
    NumPy's own SFC64 seeding does with the words of a ``SeedSequence``.
    The hash starts distinct pairs at unrelated points, as in Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11), and SFC64
    steps its counter once per word, which gives every stream a period of
    at least ``2**64`` words.  A chunk of 512 KiB of Bernoulli or Gaussian
    cells draws fewer than ``2**17`` words, so two streams overlap with
    negligible probability.  SFC64 is used for its speed: a raw word costs
    about half of what Philox's does.

    ``reseed`` moves an existing SFC64 to the start of the stream, which
    took 3-4 us against 15-20 us for building a bit generator and its
    ``Generator`` (timeit, NumPy 2.4.6, 2-core Xeon); so the pipeline
    builds one generator per worker and reseeds it before each chunk.
    ``bit_generator`` and ``generator`` build fresh ones on the same map.
    """

    master_seed: int
    stream_id: int = 0

    @classmethod
    def for_chunk(cls, seed: int, task: str, k: int) -> "SeedSpec":
        """The pair that chunk ``k`` of a ``task`` call (``quv`` or ``sim``) draws from."""
        digest = hashlib.blake2b(f"{task}:{k}".encode(), digest_size=8).digest()
        return cls(seed, int.from_bytes(digest, "little"))

    def reseed(self, bit_generator: np.random.SFC64) -> None:
        digest = hashlib.blake2b(
            _PAIR.pack(self.master_seed & _MASK64, self.stream_id & _MASK64), digest_size=24
        ).digest()
        bit_generator.state = {
            "bit_generator": "SFC64",
            "state": {"state": [*_WORDS.unpack(digest), 1]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        # random_raw(12, output=False) takes longer than drawing the 12 words
        bit_generator.random_raw(12)

    def bit_generator(self) -> np.random.SFC64:
        # the seed of the constructor is overwritten at once
        bit_generator = np.random.SFC64(0)
        self.reseed(bit_generator)
        return bit_generator

    def generator(self) -> np.random.Generator:
        return np.random.Generator(self.bit_generator())


def _bernoulli_from_bytes(rng: np.random.Generator, p: float, flat: np.ndarray) -> None:
    """Fill the bool array ``flat`` with Bernoulli(``ceil(p * 2**53) / 2**53``) cells.

    See ``MarginalDistribution.sample`` for the draws.
    """
    cut = math.ceil(p * 2.0**53)
    flip = cut > 1 << 52  # draw the failures, so that q < 1/128
    if flip:
        cut = (1 << 53) - cut
    top, rest = divmod(cut, 1 << 45)
    words = rng.bit_generator.random_raw(-(-flat.size // 8))
    # '<u8' fixes the byte order; on a little-endian machine it copies nothing
    cells = words.astype("<u8", copy=False).view(np.uint8)[: flat.size]
    np.less(cells, np.uint8(top), out=flat)
    if rest:
        n, q = flat.size, rest / ((256 - top) * 2.0**45)
        batch = math.ceil(n * q + 4.0 * math.sqrt(n * q)) + 1
        last = -1  # the cell of the last extra success drawn
        while last < n:
            # a gap past n + 1 lands past the cells all the same, and int64 holds the sums
            hits = last + np.cumsum(np.minimum(rng.geometric(q, batch), n + 1))
            flat[hits[hits < n]] = True
            last = hits[-1]
    if flip:
        np.logical_not(flat, out=flat)


@dataclass(frozen=True)
class MarginalDistribution:
    """Tagged choice of the supported marginals for the i.i.d. source lattice."""

    kind: str
    p: float | None = None
    trials: int | None = None
    mean: float | None = None
    variance: float | None = None

    def __post_init__(self):
        # each rejection names the kind, or the parameter at fault: one the kind
        # does not take, which a table would record though no draw reads it, or
        # one it takes, checked and normalised
        if not isinstance(self.kind, str) or self.kind not in _PARAMETERS:
            raise ParameterError(f"unknown distribution kind {self.kind!r}", field="distribution")
        for name in ("p", "trials", "mean", "variance"):
            if getattr(self, name) is not None and name not in _PARAMETERS[self.kind]:
                raise ParameterError(f"{self.kind} takes no {name}", field=name)
        for name in ("p", "mean", "variance"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.trials is not None:
            object.__setattr__(self, "trials", check_integer("trials", self.trials))
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ParameterError(f"bernoulli p must be in [0, 1], got {self.p}", field="p")
        elif self.kind == "binomial":
            if self.trials is None or not 1 <= self.trials <= _INT64_MAX:
                raise ParameterError(
                    f"binomial trials must be in [1, 2**63 - 1], got {self.trials}",
                    field="trials",
                )
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ParameterError(f"binomial p must be in [0, 1], got {self.p}", field="p")
        elif self.kind == "poisson":
            if self.mean is None or not 0.0 < self.mean <= _POISSON_MEAN_MAX:
                raise ParameterError(
                    f"poisson mean must be in (0, {_POISSON_MEAN_MAX:.6g}], got {self.mean}",
                    field="mean",
                )
        else:
            if self.mean is None:
                raise ParameterError("gaussian mean is required", field="mean")
            if self.variance is None or not self.variance > 0.0:
                raise ParameterError(
                    f"gaussian variance must be > 0, got {self.variance}", field="variance"
                )

    @classmethod
    def bernoulli(cls, p: float) -> "MarginalDistribution":
        return cls("bernoulli", p=p)

    @classmethod
    def binomial(cls, trials: int, p: float) -> "MarginalDistribution":
        return cls("binomial", trials=trials, p=p)

    @classmethod
    def poisson(cls, mean: float) -> "MarginalDistribution":
        return cls("poisson", mean=mean)

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "MarginalDistribution":
        return cls("gaussian", mean=mean, variance=variance)

    @property
    def integer_valued(self) -> bool:
        return self.kind in ("bernoulli", "binomial", "poisson")

    @property
    def cell_bound(self) -> int | None:
        """A bound on ``|value|`` of an integer-valued cell; ``None`` for Gaussian.

        Bernoulli gives 1 and binomial ``trials``.  Poisson gives
        ``ceil(mean + 15 + sqrt(225 + 90 * mean))``, which a cell exceeds with
        probability below ``2**-64``: Bernstein's inequality for the Poisson
        law bounds ``P(X >= mean + t)`` by ``exp(-t**2 / (2 * (mean + t / 3)))``,
        and ``t = 15 + sqrt(225 + 90 * mean)`` makes that ``exp(-45) < 2**-64``.
        Its one reader is ``ExperimentSpec``, which rejects a model whose
        integer window sums could pass int64; the kernel sizes its sums by
        the dtype alone.
        """
        if self.kind == "bernoulli":
            return 1
        if self.kind == "binomial":
            return self.trials
        if self.kind == "poisson":
            return math.ceil(self.mean + 15.0 + math.sqrt(225.0 + 90.0 * self.mean))
        return None

    @property
    def centre(self) -> float | None:
        """The ``c`` about which the marginal is symmetric, or ``None`` if it is not.

        ``X`` and ``2c - X`` then have the same law, so a linear block
        factor of such cells and its reflection do too, and the pipeline
        scores every view of a drawn field also as its mirror
        (``pipeline._tally``).
        Gaussian gives its mean; every other marginal gives ``None``.  Two
        independent fields of Gaussian cells, ``x`` and ``y``, also keep
        their joint law under any rotation of the pair about ``c``, so the
        pipeline scores a pair of them also as its rotations by 45 degrees,
        ``c + (x - c + y - c) / sqrt 2`` and ``c + (x - y) / sqrt 2``, of
        which the mirror is the one by 180 degrees.
        """
        return self.mean if self.kind == "gaussian" else None

    @property
    def dtype(self) -> np.dtype:
        """The dtype ``sample`` returns: bool, int64 or float64."""
        if self.kind == "bernoulli":
            return np.dtype(np.bool_)
        return np.dtype(np.int64 if self.integer_valued else np.float64)

    def sample(
        self, rng: np.random.Generator, size, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draw an array of i.i.d. values of the given shape, into ``out`` if given.

        ``out`` must be a C-contiguous array of shape ``size`` and dtype
        ``self.dtype``; it is filled and returned.  Binomial and Poisson draws,
        for which NumPy takes no ``out``, are copied into it.

        Bernoulli gives ``bool`` with success probability ``cut / 2**53``,
        ``cut = ceil(p * 2**53)``, but for the rounding of ``q`` below to a
        double.  ``ceil(cells / 8)`` raw 64-bit words are read as one byte
        per cell in little-endian order, the same on every platform; with
        ``top = cut >> 45`` and ``rest = cut % 2**45``, a byte below ``top``
        is a success.  Every cell is then OR-ed with an independent
        Bernoulli(``q``) cell, ``q = rest / ((256 - top) * 2**45)``, so
        ``top / 256 + (1 - top / 256) * q = cut / 2**53``.  Those sparse
        extra successes are drawn after the byte words as gaps from
        ``rng.geometric(q)`` (Devroye, "Non-Uniform Random Variate
        Generation", 1986, ch. X) in batches whose size depends only on the
        cell count and ``q``; ``rest == 0`` draws none.  For ``cut >
        2**52`` the same draw gives the failures at ``2**53 - cut``, which
        keeps ``q < 1/128``.
        Binomial and Poisson give int64, Gaussian float64 equal to
        ``rng.normal(mean, sqrt(variance), size)``.
        """
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        if out is not None and (
            out.shape != shape or out.dtype != self.dtype or not out.flags.c_contiguous
        ):
            raise ParameterError(
                f"out must be a C-contiguous {self.dtype} array of shape {shape}, "
                f"got a {out.dtype} array of shape {out.shape}"
            )
        if self.kind in ("binomial", "poisson"):
            if self.kind == "binomial":
                draws = rng.binomial(self.trials, self.p, size)
            else:
                draws = rng.poisson(self.mean, size)
            draws = draws.astype(np.int64, copy=False)
            if out is None:
                return draws
            np.copyto(out, draws)
            return out
        out = np.empty(shape, dtype=self.dtype) if out is None else out
        if self.kind == "bernoulli":
            _bernoulli_from_bytes(rng, self.p, out.reshape(-1))
        else:
            # normal() computes mean + sd * z per draw: the same two roundings;
            # z * 1.0 is z, and z + 0.0 differs from z only in the sign of a zero
            rng.standard_normal(out=out)
            if self.variance != 1.0:
                np.multiply(out, math.sqrt(self.variance), out=out)
            if self.mean != 0.0:
                np.add(out, self.mean, out=out)
        return out
