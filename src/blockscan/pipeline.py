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

import numpy as np

from .blockfactor import BlockFactorTransform, Buffers, run_passes
from .errors import GeometryError, OrderingError, ParameterError, check_integer, check_real
from .fields import MarginalDistribution, SeedSpec
from .haiman import (
    ALPHA_MAX,
    approximant_H_with_flag,
    error_factor_F,
    theorem1_constants,
)
from .scan import tile_maxima, window_sums_batch

_UV_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3))
# bytes of source fields per chunk: small enough that a chunk's kernel
# passes read and write in L2, large enough that the per-call overhead of
# the ufuncs and the per-chunk stream set-up stay small
_CHUNK_BYTES = 512 * 1024
# the most source cells one Monte Carlo call may draw (``check_drawn_cells``):
# about a day of work at the fastest rate measured, 8.1e8 cells/s on 1 thread
# and 1.0e9 on 2 (``simulate`` of identity over Bernoulli(0.1) cells on a
# 2-core Xeon, NumPy 2.4.6), so a count that no run could finish is rejected
# before any work starts
MAX_DRAWN_CELLS = 10**14
# the replicas a simulation draws unless told otherwise
DEFAULT_REPLICAS = 100_000


@dataclass(frozen=True)
class ExperimentSpec:
    """The values that decide a table, each named as its config key; a pure function input.

    ``seed`` is the master seed: every chunk draws from its own stream of
    it (``_accumulate``).
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
            check_integer(field, getattr(self, field))
            # a NumPy integer would wrap or overflow in the size and seed arithmetic
            object.__setattr__(self, field, int(getattr(self, field)))
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
        # integer weights keep the sums exact in int64; past it they would wrap
        cell, weights = self.distribution.cell_bound, self.transform.weights
        if cell is not None and np.issubdtype(weights.dtype, np.integer):
            top = cell * int(np.abs(weights).sum()) * self.m1 * self.m2
            if top > np.iinfo(np.int64).max:
                raise ParameterError(
                    f"window sums of {self.distribution.kind} cells can reach {top}, past int64",
                    field="trials" if self.distribution.kind == "binomial" else "mean",
                )
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1", field="iterations")
        check_real("confidence_z", self.confidence_z)
        if not self.confidence_z > 0.0:
            raise ParameterError(
                f"confidence_z must be > 0, got {self.confidence_z}", field="confidence_z"
            )
        if not isinstance(self.thresholds, (list, tuple)):
            raise ParameterError(
                f"thresholds must be a list, got {self.thresholds!r}", field="thresholds"
            )
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        for n in self.thresholds:
            check_real("thresholds", n)
        # tables pair their rows by threshold
        if len({float(n) for n in self.thresholds}) != len(self.thresholds):
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
        check_drawn_cells("iterations", self.iterations, _field_dims(self, "quv"))

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
    """Monte Carlo estimates of the four nested sub-rectangle probabilities."""

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


@dataclass(frozen=True)
class ApproxRow:
    """One output row: threshold, approximation, and the error ledger (``nan`` if invalid).

    ``beta0`` marks a valid row whose ``e_sf`` uses a Wald half-width of 0,
    from an estimate of exactly 0 or 1, so ``e_sf`` understates its error.
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
    """Empirical CDF point from direct simulation, with binomial half-width."""

    n: float
    prob: float
    half_width: float
    replicas: int


def quv_field_dims(u: int, v: int, spec: ExperimentSpec) -> tuple[int, int]:
    """Minimal source (cols, rows) feeding the Q_uv sub-rectangle event."""
    if u not in (2, 3) or v not in (2, 3):
        raise ParameterError("u and v must be in {2, 3}")
    # a row scan's block2 is 0: its field is one row
    return u * spec.block1, max(1, v * spec.block2)


def _chunk_size(replica_bytes: int) -> int:
    """Replicas per chunk: 512 KiB of source fields of ``replica_bytes``, 1 to 8192 of them."""
    return max(1, min(8192, _CHUNK_BYTES // max(replica_bytes, 1)))


def _field_dims(spec: ExperimentSpec, task: str) -> tuple[int, int]:
    """Source (cols, rows) that one replica of a ``quv`` or ``sim`` call samples."""
    if task == "sim":
        return spec.source_cols, spec.source_rows
    return quv_field_dims(3, 3, spec)


def check_drawn_cells(field: str, count: int, dims: tuple[int, int]) -> None:
    """Raise, naming ``field``, if ``count`` fields of (cols, rows) ``dims`` pass the cell limit."""
    cols, rows = dims
    if count * cols * rows > MAX_DRAWN_CELLS:
        raise ParameterError(
            f"{field} = {count} fields of {cols}x{rows} cells pass the {MAX_DRAWN_CELLS:.0e} "
            "cells (about a day of work) one call may draw",
            field=field,
        )


def chunk_layout(spec: ExperimentSpec, task: str, total: int) -> tuple[int, int, int]:
    """Replicas per chunk, chunk count and last chunk's replicas of a ``quv`` or ``sim`` call."""
    cols, rows = _field_dims(spec, task)
    chunk = _chunk_size(rows * cols * spec.distribution.dtype.itemsize)
    count = -(-total // chunk)
    return chunk, count, total - (count - 1) * chunk


def _worker_count(threads: int | None, n_chunks: int) -> int:
    """Threads worth starting: the requested count, at most one per chunk and per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(threads or 1, n_chunks, cpus))


def _accumulate(total: int, chunk: int, seed: int, task: str, chunk_eval, threads):
    """Sum integer tallies over fixed-size replica chunks, one stream per chunk.

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


def _tally(spec: ExperimentSpec, threads, task: str, total: int, tile, extents):
    """Monte Carlo estimates of P(max window sum <= n) over nested anchor extents.

    Each replica samples one source field of ``_field_dims(spec, task)``,
    applies the block factor and takes every window sum once.  The sums are
    cut into ``tile = (rows, cols)`` tiles of anchors and each tile's
    maximum is taken once; the running maxima of the tile maxima over both
    tile axes give, at tile ``(v - 1, u - 1)``, the maximum over the leading
    ``v x u`` tiles, and one compare with every threshold counts them all.
    An extent ``(v, u)`` reads its counts at that tile.  Returns the
    thresholds and, per extent and threshold, the estimate and its Wald
    half-width.  The chunks run on at most ``threads`` worker threads, 1 if
    ``None`` (``_worker_count``).

    A chunk is about 512 KiB of source fields (``chunk_layout``), a budget in
    bytes of the marginal's dtype, so the chunk partition, and with it the
    stream, depends on the model only.  Each chunk is drawn in one
    ``sample`` call into a ``(rows, cols, replicas)`` block and then goes
    through the kernels in one pass.  They take its replica-minor
    view ``(replicas, rows, cols)``: no flat lane wraps across a replica,
    and the maxima, compares and counts run over contiguous replica
    vectors.  Every pass after the draw, from the block factor to the
    compares, is recorded into one list of passes (the kernels' ``ops``)
    once per worker and chunk shape, and run again on each chunk, so a
    chunk pays no interpreter work that is the same every time; only the
    counts are a fresh array.
    Each worker keeps its chunk's source and temporaries in one block of
    ``Buffers``, laid out by one recording at a full chunk on fresh arrays,
    which runs no pass; those arrays are freed before any worker places its
    block.  The window sums write into slots that are dead by then
    (``window_sums_batch``): the row pass over the source, which the block
    factor has read, and the column pass over the block factor, which the
    row pass has read; a one-row window has no column pass, and its sums go
    over the source.  So a chunk's passes stay in L2 on the benchmark
    configs, unless one field alone passes the budget.  One block, not one
    allocation per temporary: glibc trims its heap once the free memory at
    the top exceeds twice the largest block it has mapped and freed, so
    separate temporaries, all freed as this call ends, would be faulted in
    again by the next call, while one freed block stays under that bound.
    """
    threads = 1 if threads is None else threads
    check_integer("threads", threads, minimum=1)
    thr = np.asarray(spec.thresholds, dtype=np.float64)
    if thr.size == 0:
        empty = np.empty((len(extents), 0))
        return thr, empty, empty
    cols, rows = _field_dims(spec, task)
    dist = spec.distribution
    chunk = chunk_layout(spec, task, total)[0]

    def record(count: int, buffers: Buffers, ops: list) -> tuple[np.ndarray, np.ndarray]:
        """Take a ``(rows, cols, count)`` source block; append every pass after its draw to ``ops``.

        Returns the block and the ``(grid_rows, grid_cols, thresholds,
        replicas)`` bool view the passes write: whether each replica's
        running maximum at each tile is ``<=`` each threshold.  Every array
        is taken from ``buffers``.
        """
        block = buffers.take("source", count * rows * cols, dist.dtype).reshape(rows, cols, count)
        sums = window_sums_batch(
            np.moveaxis(block, -1, 0), spec.transform, spec.m1, spec.m2, buffers=buffers, ops=ops
        )
        # tile axes first, so every pass below runs over the replicas
        lead = np.moveaxis(tile_maxima(sums, *tile, buffers=buffers, ops=ops), 0, -1)
        for i in range(1, lead.shape[0]):
            ops.append((np.maximum, (lead[i], lead[i - 1]), {"out": lead[i]}))
        for j in range(1, lead.shape[1]):
            ops.append((np.maximum, (lead[:, j], lead[:, j - 1]), {"out": lead[:, j]}))
        limits = thr[:, None]
        if np.issubdtype(lead.dtype, np.integer):
            # integer S <= n exactly when S <= floor(n); |S| <= max < |min| makes the clip exact
            info = np.iinfo(lead.dtype)
            floors = [min(max(math.floor(n), info.min), info.max) for n in thr]
            limits = np.array(floors, dtype=lead.dtype)[:, None]
        below = buffers.take("below", lead.size * thr.size, np.bool_)
        below = below.reshape(*lead.shape[:2], thr.size, count)
        ops.append((np.less_equal, (lead[:, :, None, :], limits), {"out": below}))
        return block, below

    # the bytes a full chunk takes, on fresh arrays that no pass touches; they
    # are freed at once, or the heap top they leave would pass glibc's trim
    # bound and every call would fault its worker blocks in again
    probe = Buffers()
    record(chunk, probe, [])
    layout = probe.taken
    del probe

    def chunk_eval(worker: dict, rng: np.random.Generator, count: int) -> np.ndarray:
        # ``worker`` keeps the worker's block and one recorded plan per replica count
        if not worker:
            worker["buffers"] = Buffers(layout)
        if count not in worker:
            ops = []
            worker[count] = (*record(count, worker["buffers"], ops), ops)
        block, below, ops = worker[count]
        dist.sample(rng, block.shape, out=block)
        run_passes(ops)
        return below.sum(axis=3, dtype=np.int64)

    counts = _accumulate(total, chunk, spec.seed, task, chunk_eval, threads)
    probs = np.array([counts[v - 1, u - 1] for v, u in extents]) / total
    return thr, probs, spec.confidence_z * np.sqrt(probs * (1.0 - probs) / total)


def estimate_quv(spec: ExperimentSpec, threads: int | None = None) -> list[EstimateRecord]:
    """Monte Carlo estimates of all four Q_uv for every threshold in one pass.

    One source field of the largest (3, 3) size serves all four nested maxima
    per replica; all thresholds share the same replicas.
    """
    # the window sums of the (3, 3) field are 2 x 2 tiles of block2 x block1
    # anchors (1 x 2 tiles of one row in 1-D); Q_uv reads the leading
    # (v - 1) x (u - 1) of them
    if spec.one_dimensional:
        tile, extents = (1, spec.block1), [(1, u - 1) for u, _ in _UV_PAIRS]
    else:
        tile, extents = (spec.block2, spec.block1), [(v - 1, u - 1) for u, v in _UV_PAIRS]
    thr, q_hat, beta = _tally(spec, threads, "quv", spec.iterations, tile, extents)
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
                iterations=spec.iterations,
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
        f1, t2_1 = _error_factor(alpha2, L1)
        f2, t2_2 = _error_factor(alpha1, L2)
        b2_term = 1.0 - r2 + L1 * f1 * (1.0 - q22) ** 2
        c22 = 1.0 - q22 + rec.b22
        c23 = 1.0 - q23 + rec.b23
        c2_term = 1.0 - r2 + L1 * (rec.b22 + rec.b32) + L1 * f1 * c22**2
        ledger = dict(
            e_app=L2 * f2 * b2_term**2 + L1 * L2 * f1 * ((1.0 - q22) ** 2 + (1.0 - q23) ** 2),
            e_sf=L1 * L2 * (rec.b22 + rec.b23 + rec.b32 + rec.b33),
            e_sapp=L2 * f2 * c2_term**2 + L1 * L2 * f1 * (c22**2 + c23**2),
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
            e_sapp=L1 * f1 * (1.0 - q2 + rec.b22) ** 2,
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
    """Direct Monte Carlo of the full-size scan; returns the empirical CDF."""
    check_integer("replicas", replicas, minimum=1)
    check_drawn_cells("replicas", replicas, _field_dims(spec, "sim"))
    rows, cols = spec.transform.derived_shape(spec.source_rows, spec.source_cols)
    full = (rows - spec.m2 + 1, cols - spec.m1 + 1)
    thr, probs, half = _tally(spec, threads, "sim", replicas, full, [(1, 1)])
    return [
        SimRow(n=float(n), prob=float(p), half_width=float(h), replicas=replicas)
        for n, p, h in zip(thr, probs[0], half[0])
    ]
