"""Generation of i.i.d. source lattices with reproducible counter-based streams.

The convention throughout the package: a lattice position is addressed as
``(i, j)`` with ``i`` the column (first coordinate) and ``j`` the row.  Arrays
are stored row-major as ``values[j - 1, i - 1]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """A (master seed, stream id) pair mapping to one Philox stream.

    The map is pure: identical pairs give identical generators, distinct
    stream ids give statistically independent streams.
    """

    master_seed: int
    stream_id: int = 0

    def bit_generator(self) -> np.random.Philox:
        key = ((self.stream_id & _MASK64) << 64) | (self.master_seed & _MASK64)
        return np.random.Philox(key=key)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(self.bit_generator())

    def with_stream(self, stream_id: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, stream_id)


@dataclass(frozen=True)
class MarginalDistribution:
    """Tagged choice of the supported marginals for the i.i.d. source lattice."""

    kind: str
    p: float | None = None
    trials: int | None = None
    mean: float | None = None
    variance: float | None = None

    def __post_init__(self):
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ParameterError(f"bernoulli p must be in [0, 1], got {self.p}")
        elif self.kind == "binomial":
            if self.trials is None or self.trials < 1:
                raise ParameterError(f"binomial trials must be >= 1, got {self.trials}")
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ParameterError(f"binomial p must be in [0, 1], got {self.p}")
        elif self.kind == "poisson":
            if self.mean is None or not self.mean > 0.0:
                raise ParameterError(f"poisson mean must be > 0, got {self.mean}")
        elif self.kind == "gaussian":
            if self.mean is None:
                raise ParameterError("gaussian mean is required")
            if self.variance is None or not self.variance > 0.0:
                raise ParameterError(f"gaussian variance must be > 0, got {self.variance}")
        else:
            raise ParameterError(f"unknown distribution kind {self.kind!r}")

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

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw an array of i.i.d. values of the given shape.

        Bernoulli gives ``bool``, exactly ``rng.random(size) < p`` from the
        same draws: ``random()`` is ``(x >> 11) * 2**-53`` of the raw 64-bit
        draw ``x``, so ``u < p`` holds exactly when ``x < ceil(p * 2**53) << 11``,
        and comparing the raw draws skips the float pass.  Binomial and
        Poisson give int64, Gaussian float64.
        """
        if self.kind == "bernoulli":
            raw = rng.bit_generator.random_raw(size)
            cut = math.ceil(self.p * 2.0**53) << 11
            # p == 1 cuts at 2**64, past uint64; the draws above still advance the stream
            return np.ones(raw.shape, dtype=np.bool_) if cut >> 64 else raw < np.uint64(cut)
        if self.kind == "binomial":
            return rng.binomial(self.trials, self.p, size).astype(np.int64)
        if self.kind == "poisson":
            return rng.poisson(self.mean, size).astype(np.int64)
        return rng.normal(self.mean, np.sqrt(self.variance), size)

    def describe(self) -> str:
        if self.kind == "bernoulli":
            return f"bernoulli(p={self.p})"
        if self.kind == "binomial":
            return f"binomial(trials={self.trials}, p={self.p})"
        if self.kind == "poisson":
            return f"poisson(mean={self.mean})"
        return f"gaussian(mean={self.mean}, variance={self.variance})"


@dataclass(frozen=True, eq=False)
class RandomField:
    """A dense real-valued lattice, stored as ``values[row, col]``.

    Public accessors use the 1-based ``(i, j)`` = (column, row) convention.
    """

    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ParameterError("field values must be a 2-D array")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def at(self, i: int, j: int):
        """Value at column ``i``, row ``j`` (both 1-based)."""
        if not (1 <= i <= self.cols and 1 <= j <= self.rows):
            raise IndexError(f"position ({i}, {j}) outside {self.cols}x{self.rows} field")
        return self.values[j - 1, i - 1]


def generate_field(
    dist: MarginalDistribution, cols: int, rows: int, seed: SeedSpec
) -> RandomField:
    """Generate an i.i.d. field; a pure function of (dist, dims, seed)."""
    if cols < 1 or rows < 1:
        raise ParameterError(f"field dimensions must be >= 1, got {cols}x{rows}")
    values = dist.sample(seed.generator(), (rows, cols))
    if not np.all(np.isfinite(values)):
        raise ParameterError("generated field contains non-finite values")
    prov = f"{dist.describe()} seed=({seed.master_seed},{seed.stream_id})"
    return RandomField(values=values, provenance=prov)
