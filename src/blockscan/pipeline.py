"""Two-step approximation of the scan-statistic distribution with error ledger.

Monte Carlo estimation of the four sub-rectangle probabilities Q_uv feeds the
rational approximant twice (block column, then block row), together with the
three-part error ledger: theory term, simulation error through the formula,
and simulation error through the bound.  Direct simulation of the full-size
scan and the non-multiple-size interpolation live here as well.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .blockfactor import BlockFactorTransform, Buffers, run_passes
from .errors import GeometryError, OrderingError, ParameterError, check_integer, check_real
from .fields import MarginalDistribution, SeedSpec
from .haiman import (
    ALPHA_MAX,
    approximant_H_with_flag,
    error_factor_F,
    theorem1_constants,
)
from .scan import running_extrema, window_sums_batch

# the (u, v) of the four Q_uv, in the order of every table's extents
UV_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3))
# bytes of source fields per chunk: small enough that a chunk's kernel passes
# read and write in about a core's 2 MiB of L2 (README, the worker blocks), large
# enough that the per-call overhead of the ufuncs and the per-chunk stream set-up
# stay small
_CHUNK_BYTES = 512 * 1024
# the most source cells one Monte Carlo call may draw (``chunk_layout``):
# days of work at the fastest rate measured, 4.5e8 drawn cells/s on 1 thread
# and 7.3e8 on 2 (``simulate`` of identity over 44 x 44 Bernoulli(0.1) cells,
# each drawn field scored as four views, on a 2-core Xeon, NumPy 2.4.6), so a
# count that no run could finish is rejected before any work starts
MAX_DRAWN_CELLS = 10**14
# the replicas a simulation draws unless told otherwise
DEFAULT_REPLICAS = 100_000
# the cell orders each drawn field is scored in (``_tally``): at 4 a given
# half-width took 1.5-2.1x fewer seconds than one field per replica on the
# benchmark configs; 8 was up to 14% ahead of 4 on that measure, about the
# host's spread, with half the groups behind each half-width (README,
# "Replica groups")
VIEWS = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """The values that decide a table, each named as its config key; a pure function input.

    ``seed`` is the master seed: every chunk draws from its own stream of
    it (``_accumulate``).  ``iterations`` is a request, rounded up to whole
    groups of replicas (``chunk_layout``).
    """

    transform: BlockFactorTransform
    distribution: MarginalDistribution
    source_cols: int
    source_rows: int
    m1: int
    m2: int
    thresholds: tuple
    iterations: int = 100_000
    confidence_z: float = 1.96
    seed: int = 0

    def __post_init__(self):
        for field in ("source_cols", "source_rows", "m1", "m2", "iterations", "seed"):
            object.__setattr__(self, field, check_integer(field, getattr(self, field)))
        for side in ("source_cols", "source_rows"):
            # the ledger counts blocks in floats
            try:
                float(getattr(self, side))
            except OverflowError:
                raise GeometryError(f"{side} is past the float range", field=side) from None
        derived_rows, derived_cols = self.transform.derived_shape(self.source_rows, self.source_cols)
        if self.one_dimensional and self.source_rows != 1:
            # the row-scan path samples one row, so it would answer for one row only
            raise GeometryError(
                f"a row scan (m2 = 1 over a one-row window) needs source_rows = 1, "
                f"got {self.source_rows}",
                field="source_rows",
            )
        for side, size in (("m1", derived_cols), ("m2", derived_rows)):
            if not 1 <= getattr(self, side) <= size:
                raise GeometryError("scan window does not fit in the derived field", field=side)
            if not self.one_dimensional and getattr(self, side) < 2:
                raise GeometryError("two-dimensional scans require m1 >= 2 and m2 >= 2", field=side)
        # window sums stay exact in int64 (integer cells under integer weights), else
        # finite in float64: a Gaussian cell passes 40 standard deviations with
        # probability below 1e-300, and a pair's rotated lanes reach twice as far
        dist, weights = self.distribution, self.transform.weights
        cell, exact = dist.cell_bound, np.issubdtype(weights.dtype, np.integer)
        if cell is None:
            cell, exact = 2.0 * (abs(dist.mean) + 40.0 * math.sqrt(dist.variance)), False
        number, top = (int, np.iinfo(np.int64).max) if exact else (float, np.finfo(float).max)
        window = number(cell) * number(self.m1) * number(self.m2)
        if window * sum(abs(number(w)) for w in weights.flat) > top:
            coeffs = self.transform.name == "ma" and window <= top
            raise ParameterError(
                f"window sums of {dist.kind} cells can pass {'int64' if exact else 'the float range'}",
                field="ma_coeffs" if coeffs else "trials" if dist.kind == "binomial" else "mean",
            )
        object.__setattr__(self, "confidence_z", check_real("confidence_z", self.confidence_z))
        if not self.confidence_z > 0.0:
            raise ParameterError(
                f"confidence_z must be > 0, got {self.confidence_z}", field="confidence_z"
            )
        if not isinstance(self.thresholds, (list, tuple)):
            raise ParameterError(
                f"thresholds must be a list, got {self.thresholds!r}", field="thresholds"
            )
        thresholds = tuple(check_real("thresholds", n) for n in self.thresholds)
        object.__setattr__(self, "thresholds", thresholds)
        # tables pair their rows by threshold
        if len(set(thresholds)) != len(thresholds):
            raise ParameterError(
                f"thresholds must not repeat, got {self.thresholds!r}", field="thresholds"
            )
        if self.block1 < 1:
            raise GeometryError("m1 + c1 - 2 must be >= 1", field="m1")
        if self.source_cols // self.block1 < 3:
            raise GeometryError(
                "source width must cover at least three block units", field="source_cols"
            )
        if not self.one_dimensional and self.source_rows // self.block2 < 3:
            raise GeometryError(
                "source height must cover at least three block units", field="source_rows"
            )
        chunk_layout(self, "quv", self.iterations)

    @property
    def mirrored(self) -> bool:
        """Whether each view also counts as its mirror (``MarginalDistribution.centre``)."""
        return self.distribution.centre is not None

    @property
    def one_dimensional(self) -> bool:
        # degenerate row scan: single-row windows over a row-independent field
        return self.m2 == 1 and self.transform.c2 == 1

    @property
    def block1(self) -> int:
        return self.m1 + self.transform.c1 - 2

    @property
    def block2(self) -> int:
        return self.m2 + self.transform.c2 - 2


@dataclass(frozen=True)
class EstimateRecord:
    """Monte Carlo estimates of the four nested sub-rectangle probabilities.

    ``sums`` and ``squares`` are the integer tallies ``sum s`` and ``sum
    s**2`` behind ``q22``, ``q23``, ``q32`` and ``q33``, in that order, over
    the ``iterations`` replicas tallied in groups of ``group``
    (``group_estimate``); empty where the record was not tallied.
    """

    n: float
    q22: float
    q23: float
    q32: float
    q33: float
    b22: float
    b23: float
    b32: float
    b33: float
    iterations: int
    sums: tuple = ()
    squares: tuple = ()
    group: int = 1


@dataclass(frozen=True)
class ApproxRow:
    """One output row: threshold, approximation, and the error ledger (``nan`` if invalid).

    ``beta0`` marks a valid row whose ``e_sf`` uses a half-width of 0, from
    group counts that are all equal and neither 0 nor ``R``
    (``group_estimate``), so ``e_sf`` understates its error.
    ``estimate`` is the record the row was assembled from: the ``Q_uv`` and
    half-widths that the ledger's ``e_sf`` is a sum of.
    """

    n: float
    approx: float
    valid: bool
    clamped: bool
    beta0: bool
    alpha1: float
    alpha2: float
    e_app: float = math.nan
    e_sf: float = math.nan
    e_sapp: float = math.nan
    t2_1: float | None = None
    t2_2: float | None = None
    bracket_low: float | None = None
    bracket_high: float | None = None
    estimate: EstimateRecord | None = None

    @property
    def e_total(self) -> float:
        return self.e_app + self.e_sf + self.e_sapp


@dataclass(frozen=True)
class SimRow:
    """Empirical CDF point from direct simulation, its half-width and their tallies (``_tally``)."""

    n: float
    prob: float
    half_width: float
    replicas: int
    sums: int
    squares: int
    group: int


def _chunk_size(replica_bytes: int) -> int:
    """Replicas per chunk: 512 KiB of source fields of ``replica_bytes``, 1 to 8192 of them."""
    return max(1, min(8192, _CHUNK_BYTES // max(replica_bytes, 1)))


def _field_dims(spec: ExperimentSpec, task: str):
    """A ``quv`` or ``sim`` call's drawn ``(cols, rows)``, anchor ``tile`` and ``extents`` (``_tally``).

    ``quv`` draws the (3, 3) field of ``Q_uv``: 2 x 2 tiles of ``block2 x
    block1`` anchors (a row scan's: 1 x 2), of which ``Q_uv`` reads the
    leading ``(v - 1) x (u - 1)``; ``sim`` draws the lattice, one tile.
    """
    if task == "sim":
        rows, cols = spec.transform.derived_shape(spec.source_rows, spec.source_cols)
        tile = (rows - spec.m2 + 1, cols - spec.m1 + 1)
        return (spec.source_cols, spec.source_rows), tile, [(1, 1)]
    if spec.one_dimensional:
        return (3 * spec.block1, 1), (1, spec.block1), [(1, u - 1) for u, _ in UV_PAIRS]
    tile, extents = (spec.block2, spec.block1), [(v - 1, u - 1) for u, v in UV_PAIRS]
    return (3 * spec.block1, 3 * spec.block2), tile, extents


class ChunkLayout(NamedTuple):
    """What a Monte Carlo call draws (``chunk_layout``).

    ``groups`` groups (``G``) of ``fields`` drawn fields, each counting as
    ``group`` replicas (``R``), ``size`` whole groups to a chunk, in
    ``count`` chunks, the last of ``last`` groups.
    """

    fields: int
    group: int
    groups: int
    size: int
    count: int
    last: int


def chunk_layout(spec: ExperimentSpec, task: str, total: int) -> ChunkLayout:
    """The groups a ``quv`` or ``sim`` call of ``total`` replicas draws, and their chunks.

    ``total`` is the call's count, ``iterations`` (``quv``) or ``replicas``
    (``sim``); the pipeline checks it here only, an integer of at least 1,
    as the ``int`` that ``check_integer`` returns, so that no NumPy integer
    wraps in the cell count.  A group is a pair of Gaussian fields where
    ``spec.mirrored`` and a chunk's bytes hold two fields or more
    (``_chunk_size``), counting as the views of its eight rotations; else a
    field, counting as its views and, where ``mirrored``, their mirrors
    (``_tally``).  The call draws ``ceil(total / R)`` groups, and a chunk
    holds as many whole groups as its bytes do.  Raises a ``ParameterError``
    naming the count if it is not such an integer or its drawn fields pass
    ``MAX_DRAWN_CELLS``.
    """
    field = "iterations" if task == "quv" else "replicas"
    total = check_integer(field, total, minimum=1)
    (cols, rows), _, _ = _field_dims(spec, task)
    size = _chunk_size(rows * cols * spec.distribution.dtype.itemsize)
    fields = 2 if spec.mirrored and size >= 2 else 1
    group = VIEWS * (8 if fields == 2 else 2 if spec.mirrored else 1)
    groups = -(-total // group)
    if groups * fields * cols * rows > MAX_DRAWN_CELLS:
        raise ParameterError(
            f"{field} = {total} draws {groups * fields} fields of {cols}x{rows} cells, past the "
            f"{MAX_DRAWN_CELLS:.0e} cells (days of work) one call may draw",
            field=field,
        )
    size //= fields
    count = -(-groups // size)
    return ChunkLayout(fields, group, groups, size, count, groups - (count - 1) * size)


def _worker_count(threads: int, n_chunks: int) -> int:
    """Threads worth starting: at most one per chunk and per usable CPU.

    ``threads`` is the count ``_tally`` resolved and checked, at least 1.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(threads, n_chunks, cpus))


def _accumulate(total: int, chunk: int, seed: int, task: str, chunk_eval, threads):
    """Sum integer tallies over chunks of ``chunk`` of ``total`` groups, one stream per chunk.

    Worker ``w`` of ``W`` (``_worker_count``) runs chunks
    ``[w * n // W, (w + 1) * n // W)`` of the ``n`` in order, in one thread,
    with one ``Generator`` of its own: before chunk ``k`` it reseeds that
    generator's SFC64 to the stream ``SeedSpec.for_chunk(seed, task, k)``
    (``SeedSpec.reseed``), then calls ``chunk_eval(state, rng, count)``
    with a dict ``state`` of its own: empty at its first chunk and kept to
    its last, so what a worker keeps there is never shared.  The chunk
    partition depends only on (total, chunk) and a chunk's stream only on
    its index, so results are bit-identical for any worker count.
    """
    n_chunks = -(-total // chunk)
    workers = _worker_count(threads, n_chunks)

    def run(w: int):
        state, tally, rng = {}, 0, SeedSpec(seed).generator()
        for k in range(w * n_chunks // workers, (w + 1) * n_chunks // workers):
            SeedSpec.for_chunk(seed, task, k).reseed(rng.bit_generator)
            tally += chunk_eval(state, rng, min(chunk, total - k * chunk))
        return tally

    if workers > 1:
        # imported here: a 1-thread run never loads the pool's modules
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(run, range(workers)))
    return run(0)


def group_estimate(sums, squares, groups: int, group: int, z: float):
    """The estimate ``q = S / N`` and its half-width from the tallies ``S = sum s``, ``Q = sum s**2``.

    ``G = groups`` groups of drawn fields each count as ``group = R``
    replicas, ``N = R G`` in all, and ``s`` is the count of a group's
    replicas that pass.  The half-width is ``z * sqrt(max(Q / G - (R
    q)**2, 0) / (R N))``: the variance of a group's count over ``G``
    groups, so the correlation of a group's replicas is in it.  At ``R =
    1`` this is the Wald half-width.  At ``q`` of 1, where every group passes
    whole, it is the exact Clopper-Pearson bound ``1 - a**(1 / G)``, ``a =
    P(Z > z)``, instead: a group passes whole with probability at most
    ``q``, and ``q**G >= a`` for any ``q`` it leaves out; ``q`` of 0 takes
    it on ``1 - q``.  Other equal counts (``G = 1``, or tiny ``G``) keep a
    half-width of 0.  Works on scalars and arrays alike.
    """
    sums, squares = np.asarray(sums, dtype=np.float64), np.asarray(squares, dtype=np.float64)
    total = group * groups
    probs = sums / total
    spread = squares / groups - (group * probs) ** 2
    wald = z * np.sqrt(np.maximum(spread, 0.0) / (group * total))
    tail = 0.5 * math.erfc(z / math.sqrt(2.0))
    whole = -math.expm1(math.log(tail) / groups) if tail else 1.0
    return probs, np.where((probs == 0.0) | (probs == 1.0), whole, wald)


def _view_orders(spec: ExperimentSpec, task: str, cells: int) -> list[np.ndarray]:
    """The cell order of each of the ``VIEWS`` views: view 0's is the field's own, ``arange(cells)``.

    View ``j >= 1`` takes a stable argsort of ``cells`` raw SFC64 words of
    the stream ``SeedSpec.for_chunk(seed, f"{task}-view", j)``, so its order
    depends on the seed, the task and ``j`` only, and on no ``Generator``
    method.
    """
    bit_generator, orders = SeedSpec(spec.seed).bit_generator(), [np.arange(cells)]
    for j in range(1, VIEWS):
        SeedSpec.for_chunk(spec.seed, f"{task}-view", j).reseed(bit_generator)
        orders.append(np.argsort(bit_generator.random_raw(cells), kind="stable"))
    return orders


def _tally(spec: ExperimentSpec, threads, task: str, total: int):
    """Monte Carlo estimates of P(max window sum <= n) over nested anchor extents.

    Each replica is one source field of the ``(cols, rows)`` that
    ``_field_dims(spec, task)`` gives, through the block factor and every
    window sum once.  The sums are cut into its ``tile = (rows, cols)``
    tiles of anchors and each tile's maximum is taken once; the running
    maxima of the tile maxima over both tile axes (``running_extrema``)
    give, at tile ``(v - 1, u - 1)``, the maximum over the leading ``v x
    u`` tiles, and one compare with every threshold scores them all.  Each
    of its extents ``(v, u)`` reads its counts at that tile.  A request of ``total`` replicas draws
    the ``G`` groups of ``chunk_layout``, which raises before any draw if
    they pass the cell limit, and tallies every replica of each, ``N = R
    G``.  Returns that ``ChunkLayout``, the thresholds and, per extent and
    threshold, the estimate, its half-width and the integer tallies ``sum
    s`` and ``sum s**2`` they are read from (``group_estimate``).  The
    chunks run on at most ``threads`` worker threads (``_worker_count``);
    the pipeline checks ``threads`` here only, an integer of at least 1,
    and makes an unset ``None`` 1.

    Replica groups (README, "Replica groups").  The cells of a field are
    i.i.d., so each drawn field counts as ``VIEWS`` views: view ``j`` its
    cells in the order ``_view_orders`` fixes for the call, view 0's the
    field's own.  Where the marginal is symmetric about a centre ``c``
    (``MarginalDistribution.centre``) each view also counts as its mirror
    ``2c - x``, whose window sums are ``2cK - S``, ``K = weights.sum() * m1
    * m2``: it passes where the running minimum of the tile minima is ``>=
    2cK - n``.  Gaussian fields come in pairs where a chunk holds two or
    more (``chunk_layout``), field ``i`` of member 0 with field ``i`` of
    member 1, and each view of a pair also counts as its rotations ``u = c
    + (x - c + y - c) / sqrt 2`` and ``v = c + (x - y) / sqrt 2``: two
    passes, each one contiguous run over a member's lanes, write ``S(x) +
    S(y)`` into member 0's lanes and ``S(x) - S(y)`` into member 1's of the
    slot the last window pass did not write, scored
    like a view against ``2cK + sqrt 2 (n - cK)`` and ``sqrt 2 (n - cK)``,
    their mirrors against those limits reflected about ``2cK`` and 0.  A
    group counts as ``R`` replicas, in the order ``fields.STREAM_MAP``
    states; they are not independent, so the tally keeps, per extent and
    threshold, the sum of each group's count ``s`` of passing replicas and
    of its square (``group_estimate``).

    A chunk is about 512 KiB of drawn fields (``chunk_layout``), a budget
    in bytes of the marginal's dtype, so the chunk partition, and with it
    the stream, depends on the model only.  Each chunk is drawn in one
    ``sample`` call into the ``drawn`` slot, a ``(members, rows, cols,
    fields)`` block that no pass writes, of 2 members where the fields are
    paired, else 1.  Per view the plan takes the view's cells into the
    ``source`` slot, then runs one view's passes, recorded once: the
    kernels over the replica-minor view ``(members, fields, rows, cols)`` of
    ``source``, so that the extrema and compares run over contiguous field
    vectors, and an add of each score, a compare into ``below``, into the
    uint8 count of each field, zero-filled by the plan's first pass.  A
    pair's two counts are added, and
    two uint32 sums over the groups, copied into the int64 tally, close the
    chunk.  The passes are recorded once per worker and chunk shape (the
    kernels' ``ops``) and run on every chunk of that shape.  A worker keeps
    its chunk's arrays in one block of ``Buffers``, laid out by one
    recording on fresh arrays that are freed before any worker places its
    block: glibc trims its heap once the free memory at its top exceeds
    twice the largest block it has mapped and freed, so separate
    temporaries freed as a call ends would be faulted in again by the next
    call.  The window sums write over slots that are dead by then
    (``window_sums_batch``), so a block on the benchmark configs is about a
    core's 2 MiB of L2 (README).
    """
    layout = chunk_layout(spec, task, total)
    threads = check_integer("threads", 1 if threads is None else threads, minimum=1)
    (cols, rows), tile, extents = _field_dims(spec, task)
    thr = np.asarray(spec.thresholds, dtype=np.float64)
    if thr.size == 0:
        empty = np.empty((len(extents), 0))
        return layout, thr, empty, empty, empty, empty
    dist, group, pair, groups = spec.distribution, layout.group, layout.fields, layout.groups
    orders = _view_orders(spec, task, rows * cols)
    grid = tuple(map(max, zip(*extents)))  # the tiles the counts are kept at
    scores = [(np.maximum, np.less_equal)]
    if spec.mirrored:
        ck = dist.centre * spec.transform.weights.sum().item() * spec.m1 * spec.m2
        two_ck = 2 * ck
        scores.append((np.minimum, np.greater_equal))
        # a pair's rotations: u lanes centre on 2cK, v lanes on 0
        reach = math.sqrt(2.0) * (thr[:, None, None] - ck)
        centres = np.array([[two_ck], [0.0]])
        rotated_bounds = [centres + reach, centres - reach]

    def record(count: int, buffers: Buffers, ops: list) -> tuple[np.ndarray, np.ndarray]:
        """Take the ``drawn`` block of a chunk of ``count`` groups; append every pass after its draw.

        Returns the ``(members, rows, cols, count)`` block and the ``(2, grid_rows,
        grid_cols, thresholds)`` int64 tally the passes write: per tile and
        threshold, ``sum s`` and ``sum s**2`` over the groups, ``s`` the
        count of a group's replicas whose running maximum at the tile is
        ``<=`` its limit (a mirror's: whose running minimum is ``>=`` it),
        from uint8 counts that the first pass zero-fills.  Every other array
        is taken from ``buffers``.
        """
        cells, shape = rows * cols, (pair, rows, cols, count)
        drawn = buffers.take("drawn", pair * cells * count, dist.dtype).reshape(shape)
        source = buffers.take("source", pair * cells * count, dist.dtype).reshape(shape)
        counts = (*grid, thr.size, pair, count)
        passes = buffers.take("passes", math.prod(counts), np.uint8).reshape(counts)
        ops.append((passes.fill, (0,), {}))
        # one view's passes, recorded once over ``source``: every view runs them after its take
        view = []

        def score(sums: np.ndarray, limits: list) -> None:
            """Append to ``view`` the passes adding each score of ``sums`` against its ``limits``."""
            for (reduce, compare), limit in zip(scores, limits):
                extrema = running_extrema(sums, tile, reduce, buffers=buffers, ops=view)
                below = buffers.take("below", passes.size, np.bool_).reshape(counts)
                view.append((compare, (extrema[:, :, None], limit), {"out": below}))
                view.append((np.add, (passes, below.view(np.uint8)), {"out": passes}))

        sums = window_sums_batch(
            np.moveaxis(source, -1, 1), spec.transform, spec.m1, spec.m2,
            buffers=buffers, ops=view,
        )
        limits = thr[:, None, None]
        if np.issubdtype(sums.dtype, np.integer):
            # integer S <= n exactly when S <= floor(n); |S| <= max < |min| makes the clip exact
            info = np.iinfo(sums.dtype)
            floors = [min(max(math.floor(n), info.min), info.max) for n in thr]
            limits = np.array(floors, dtype=sums.dtype)[:, None, None]
        # Gaussian sums are float: the mirror passes where min S >= 2cK - n
        score(sums, [limits, two_ck - limits] if spec.mirrored else [limits])
        if pair == 2:
            # of the two slots the window passes write (``window_sums_batch``),
            # the one that does not hold the sums is dead by now
            dead = "blockfactor" if np.may_share_memory(sums, source) else "source"
            # each member's lanes, from its first to its last, as one contiguous run
            lanes = sum((n - 1) * st for n, st in zip(sums.shape[1:], sums.strides[1:]))
            lanes, gap = lanes // sums.itemsize + 1, sums.strides[0] // sums.itemsize
            x, y = (as_strided(half, (lanes,), (sums.itemsize,)) for half in sums)
            out = buffers.take(dead, gap + lanes, sums.dtype)
            view.append((np.add, (x, y), {"out": out[:lanes]}))
            view.append((np.subtract, (x, y), {"out": out[gap:]}))
            score(np.ndarray(sums.shape, sums.dtype, out, strides=sums.strides), rotated_bounds)
        for order in orders:
            # 'clip' skips the bounds check for which 'raise' buffers the whole take
            ops.append((
                np.take, (drawn.reshape(pair, cells, count), order),
                {"axis": 1, "out": source.reshape(pair, cells, count), "mode": "clip"},
            ))
            ops.extend(view)
        if pair == 2:
            # a pair's count is the sum of its two fields' counts
            ops.append((np.add, (passes[..., 0, :], passes[..., 1, :]), {"out": passes[..., 0, :]}))
        passes = passes[..., 0, :]
        # s**2 <= R**2 fits uint8 up to R = 15; the last add has read ``below`` by now
        square = np.uint8 if group * group <= np.iinfo(np.uint8).max else np.uint16
        squares = buffers.take("below", passes.size, square).reshape(passes.shape)
        # a chunk's sum s**2 <= 32**2 * 8192 (R <= 32, 8192 groups, ``_chunk_size``)
        # is below 2**32: a chunk sums in uint32, half int64's cast buffer, a call in int64
        closing = np.empty((2, *passes.shape[:-1]), dtype=np.uint32)
        tally = np.empty(closing.shape, dtype=np.int64)
        ops.append((np.multiply, (passes, passes), {"out": squares, "dtype": square}))
        ops.append((np.add.reduce, (passes,), {"axis": -1, "dtype": np.uint32, "out": closing[0]}))
        ops.append((np.add.reduce, (squares,), {"axis": -1, "dtype": np.uint32, "out": closing[1]}))
        ops.append((np.copyto, (tally, closing), {}))
        return drawn, tally

    # the bytes a full chunk takes, on fresh arrays that no pass touches; they
    # are freed at once, or the heap top they leave would pass glibc's trim
    # bound and every call would fault its worker blocks in again
    probe = Buffers()
    record(layout.size, probe, [])
    taken = probe.taken
    del probe

    def chunk_eval(worker: dict, rng: np.random.Generator, count: int) -> np.ndarray:
        # ``worker`` keeps the worker's block and one recorded plan per group count
        if not worker:
            worker["buffers"] = Buffers(taken)
        if count not in worker:
            ops = []
            worker[count] = (*record(count, worker["buffers"], ops), ops)
        drawn, tally, ops = worker[count]
        dist.sample(rng, drawn.shape, out=drawn)
        run_passes(ops)
        return tally

    # per tile and threshold: sum s and sum s**2 over the groups
    tally = _accumulate(groups, layout.size, spec.seed, task, chunk_eval, threads)
    sums = np.array([tally[0, v - 1, u - 1] for v, u in extents])
    squares = np.array([tally[1, v - 1, u - 1] for v, u in extents])
    probs, beta = group_estimate(sums, squares, groups, group, spec.confidence_z)
    return layout, thr, probs, beta, sums, squares


def estimate_quv(spec: ExperimentSpec, threads: int | None = None) -> list[EstimateRecord]:
    """Monte Carlo estimates of all four Q_uv for every threshold in one pass.

    One source field of the largest (3, 3) size serves all four nested maxima
    per replica, and each drawn field counts as a group of replicas
    (``_tally``); all thresholds share the same replicas.
    """
    layout, thr, q_hat, beta, sums, squares = _tally(spec, threads, "quv", spec.iterations)
    records = []
    for t_idx, n in enumerate(thr):
        records.append(
            EstimateRecord(
                n=float(n),
                q22=float(q_hat[0, t_idx]),
                q23=float(q_hat[1, t_idx]),
                q32=float(q_hat[2, t_idx]),
                q33=float(q_hat[3, t_idx]),
                b22=float(beta[0, t_idx]),
                b23=float(beta[1, t_idx]),
                b32=float(beta[2, t_idx]),
                b33=float(beta[3, t_idx]),
                iterations=layout.group * layout.groups,
                sums=tuple(int(k) for k in sums[:, t_idx]),
                squares=tuple(int(k) for k in squares[:, t_idx]),
                group=layout.group,
            )
        )
    return records


def _check_slack(n: float, pairs) -> None:
    """Raise unless ``small <= big + 2 * (b_small + b_big)`` for each pair's estimates."""
    for small, big, b_small, b_big, label in pairs:
        if small > big + 2.0 * (b_small + b_big):
            raise OrderingError(
                f"nesting violated beyond Monte Carlo slack: {label} "
                f"({small} vs {big}, n={n})"
            )


def _error_factor(alpha: float, m: int):
    """F at the hypothesis boundary q1 = 1 - alpha with its t2; None at the exact limit."""
    if alpha <= 0.0:
        return 1.0 + 3.0 / m, None
    constants = theorem1_constants(alpha)
    return error_factor_F(constants, m, 1.0 - alpha), constants.t2


def _square(x: float) -> float:
    """``x ** 2``, or ``inf`` past the float range, where ``**`` raises and ``*`` gives ``inf``."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def two_step_approximation(rec: EstimateRecord, L1: int, L2: int) -> ApproxRow:
    """Assemble one threshold row from the four Q_uv estimates (2-D path)."""
    _check_slack(
        rec.n,
        [
            (rec.q33, rec.q23, rec.b33, rec.b23, "q33 <= q23"),
            (rec.q33, rec.q32, rec.b33, rec.b32, "q33 <= q32"),
            (rec.q23, rec.q22, rec.b23, rec.b22, "q23 <= q22"),
            (rec.q32, rec.q22, rec.b32, rec.b22, "q32 <= q22"),
        ],
    )
    q22, q23 = rec.q22, rec.q23
    q32, q33 = min(rec.q32, rec.q22), min(rec.q33, rec.q23)
    r2, cl2 = approximant_H_with_flag(q22, q32, L1)
    r3, cl3 = approximant_H_with_flag(q23, q33, L1)
    r3_ordered = min(r3, r2)
    approx, cl = approximant_H_with_flag(r2, r3_ordered, L2)
    alpha2 = 1.0 - q23
    alpha1 = 1.0 - r3
    valid = alpha1 <= ALPHA_MAX and alpha2 <= ALPHA_MAX
    ledger = {}
    if valid:
        # float sides: their product past the float range is inf, where an int's raises
        L1, L2 = float(L1), float(L2)
        f1, t2_1 = _error_factor(alpha2, L1)
        f2, t2_2 = _error_factor(alpha1, L2)
        b2_term = 1.0 - r2 + L1 * f1 * (1.0 - q22) ** 2
        c22 = 1.0 - q22 + rec.b22
        c23 = 1.0 - q23 + rec.b23
        c2_term = 1.0 - r2 + L1 * (rec.b22 + rec.b32) + L1 * f1 * _square(c22)
        ledger = dict(
            e_app=L2 * f2 * _square(b2_term) + L1 * L2 * f1 * ((1.0 - q22) ** 2 + (1.0 - q23) ** 2),
            e_sf=L1 * L2 * (rec.b22 + rec.b23 + rec.b32 + rec.b33),
            e_sapp=L2 * f2 * _square(c2_term) + L1 * L2 * f1 * (_square(c22) + _square(c23)),
            t2_1=t2_1,
            t2_2=t2_2,
        )
    return ApproxRow(
        n=rec.n,
        approx=approx,
        valid=valid,
        clamped=cl or cl2 or cl3 or (r3_ordered != r3) or (q32 != rec.q32) or (q33 != rec.q33),
        beta0=valid and 0.0 in (rec.b22, rec.b23, rec.b32, rec.b33),
        alpha1=alpha1,
        alpha2=alpha2,
        estimate=rec,
        **ledger,
    )


def one_step_approximation(rec: EstimateRecord, L1: int) -> ApproxRow:
    """Row-scan path: a single bound application over the block columns."""
    _check_slack(rec.n, [(rec.q32, rec.q22, rec.b32, rec.b22, "q32 <= q22")])
    q2 = rec.q22
    q3 = min(rec.q32, q2)
    approx, cl = approximant_H_with_flag(q2, q3, L1)
    alpha = 1.0 - q3
    valid = alpha <= ALPHA_MAX
    ledger = {}
    if valid:
        f1, t2_1 = _error_factor(alpha, L1)
        ledger = dict(
            e_app=L1 * f1 * (1.0 - q2) ** 2,
            e_sf=L1 * (rec.b22 + rec.b32),
            e_sapp=L1 * f1 * _square(1.0 - q2 + rec.b22),
            t2_1=t2_1,
        )
    return ApproxRow(
        n=rec.n,
        approx=approx,
        valid=valid,
        clamped=cl or (q3 != rec.q32),
        beta0=valid and 0.0 in (rec.b22, rec.b32),
        alpha1=alpha,
        alpha2=alpha,
        estimate=rec,
        **ledger,
    )


def _dimension_levels(n_tilde: int, block: int) -> list[tuple[int, float]]:
    """Block-count levels and interpolation weights; one level when size is exact."""
    ratio = n_tilde // block
    if n_tilde % block == 0:
        return [(ratio - 1, 1.0)]
    weight = (n_tilde - ratio * block) / block
    return [(ratio - 1, 1.0 - weight), (ratio, weight)]


def approximate(spec: ExperimentSpec, threads: int | None = None) -> list[ApproxRow]:
    """Approximation at any lattice size, exact block multiple or not.

    An exact size gives the single row assembled at its block counts.  Each
    non-multiple dimension is bracketed by the two nearest exact sizes; the
    scan CDF is monotone decreasing in size, so the brackets sandwich the
    target and the interpolant is their convex combination.  The bracket
    width is folded into the theory term of the ledger so the interpolation
    choice is covered by the reported error; a bracket with an invalid level
    is invalid, with a ``nan`` ledger.
    """
    levels1 = _dimension_levels(spec.source_cols, spec.block1)
    rows = []
    for rec in estimate_quv(spec, threads=threads):
        if spec.one_dimensional:
            combos = [(w1, one_step_approximation(rec, L1)) for L1, w1 in levels1]
        else:
            levels2 = _dimension_levels(spec.source_rows, spec.block2)
            combos = [
                (w1 * w2, two_step_approximation(rec, L1, L2))
                for L1, w1 in levels1
                for L2, w2 in levels2
            ]
        if len(combos) == 1:
            rows.append(combos[0][1])
            continue
        lo = min(row.approx for _, row in combos)
        hi = max(row.approx for _, row in combos)
        valid = all(row.valid for _, row in combos)
        ledger = {
            key: max(getattr(row, key) for _, row in combos) if valid else math.nan
            for key in ("e_app", "e_sf", "e_sapp")
        }
        ledger["e_app"] += hi - lo
        rows.append(
            replace(
                combos[0][1],
                approx=sum(w * row.approx for w, row in combos),
                valid=valid,
                clamped=any(row.clamped for _, row in combos),
                beta0=valid and any(row.beta0 for _, row in combos),
                bracket_low=lo,
                bracket_high=hi,
                **ledger,
            )
        )
    return rows


def simulate_distribution(
    spec: ExperimentSpec, replicas: int = DEFAULT_REPLICAS, threads: int | None = None
) -> list[SimRow]:
    """Direct Monte Carlo of the full-size scan over ``replicas`` rounded up to whole groups."""
    layout, thr, probs, half, sums, squares = _tally(spec, threads, "sim", replicas)
    tallied = layout.group * layout.groups
    return [
        SimRow(float(n), float(p), float(h), tallied, int(s), int(ss), layout.group)
        for n, p, h, s, ss in zip(thr, probs[0], half[0], sums[0], squares[0])
    ]
