"""Two-step approximation of the scan-statistic distribution with error ledger.

Monte Carlo estimation of the four sub-rectangle probabilities Q_uv feeds the
rational approximant twice (block column, then block row), together with the
three-part error ledger: theory term, simulation error through the formula,
and simulation error through the bound.  Direct simulation of the full-size
scan and the non-multiple-size interpolation live here as well.
"""
from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .blockfactor import BlockFactorTransform, LatticeGeometry, apply_block_factor_batch
from .errors import GeometryError, HypothesisError, OrderingError, ParameterError
from .fields import MarginalDistribution, SeedSpec
from .haiman import (
    ALPHA_MAX,
    approximant_H_with_flag,
    error_factor_F,
    theorem1_constants,
)
from .scan import ScanGeometry, tile_maxima, window_sums_batch

_UV_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3))
# how Theorem 1's l is chosen; see ``haiman.theorem1_constants``
L_MODES = ("boundary", "optimize")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything defining one approximation run; a pure function input."""

    geometry: LatticeGeometry
    scan: ScanGeometry
    distribution: MarginalDistribution
    transform: BlockFactorTransform
    thresholds: tuple
    iterations: int = 100_000
    confidence_z: float = 1.96
    seed: SeedSpec = SeedSpec(0)
    l_mode: str = "boundary"
    threads: int = 1

    def __post_init__(self):
        g, s = self.geometry, self.scan
        if (self.transform.c1, self.transform.c2) != (g.c1, g.c2):
            raise GeometryError("transform window does not match geometry")
        if not (1 <= s.m1 <= g.derived_cols and 1 <= s.m2 <= g.derived_rows):
            raise GeometryError("scan window does not fit in the derived field")
        if not self.one_dimensional and (s.m1 < 2 or s.m2 < 2):
            raise GeometryError("two-dimensional scans require m1 >= 2 and m2 >= 2")
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if not 0.0 < self.confidence_z < math.inf:
            raise ParameterError(f"confidence_z must be finite and > 0, got {self.confidence_z}")
        if self.l_mode not in L_MODES:
            raise ParameterError(f"l_mode must be one of {L_MODES}, got {self.l_mode!r}")
        if self.block1 < 1:
            raise GeometryError("m1 + c1 - 2 must be >= 1")
        if self.geometry.source_cols // self.block1 < 3:
            raise GeometryError("source width must cover at least three block units")
        if not self.one_dimensional and self.geometry.source_rows // self.block2 < 3:
            raise GeometryError("source height must cover at least three block units")

    @property
    def one_dimensional(self) -> bool:
        # degenerate row scan: single-row windows over a row-independent field
        return self.scan.m2 == 1 and self.geometry.c2 == 1

    @property
    def block1(self) -> int:
        return self.scan.m1 + self.geometry.c1 - 2

    @property
    def block2(self) -> int:
        return self.scan.m2 + self.geometry.c2 - 2


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
    """One output row: threshold, approximation, and the error ledger (``nan`` if invalid)."""

    n: float
    approx: float
    valid: bool
    clamped: bool
    alpha1: float
    alpha2: float
    q2: float
    q3: float
    e_app: float = math.nan
    e_sf: float = math.nan
    e_sapp: float = math.nan
    l1: float | None = None
    l2: float | None = None
    t2_1: float | None = None
    t2_2: float | None = None
    alpha1_conservative: bool = False
    bracket_low: float | None = None
    bracket_high: float | None = None

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


def quv_field_dims(
    u: int, v: int, geometry: LatticeGeometry, scan: ScanGeometry
) -> tuple[int, int]:
    """Minimal source (cols, rows) feeding the Q_uv sub-rectangle event."""
    if u not in (2, 3) or v not in (2, 3):
        raise ParameterError("u and v must be in {2, 3}")
    b1 = scan.m1 + geometry.c1 - 2
    b2 = scan.m2 + geometry.c2 - 2
    cols = u * b1
    rows = v * b2 if b2 >= 1 else 1
    return cols, rows


def _stream_id(task: str, index: int) -> int:
    digest = hashlib.blake2b(f"{task}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _chunk_size(cells: int) -> int:
    """Replicas per chunk: about 4e6 source cells, at most 8192 and at least one replica."""
    return max(1, min(8192, 4_000_000 // max(cells, 1)))


def _worker_count(threads: int | None, n_chunks: int) -> int:
    """Threads worth starting: the requested count, at most one per chunk."""
    return max(1, min(threads or 1, n_chunks))


def _accumulate(total: int, chunk: int, seed: SeedSpec, task: str, chunk_eval, threads):
    """Sum integer tallies over fixed-size replica chunks, one stream per chunk.

    The chunk partition depends only on (total, chunk), so results are
    bit-identical for any worker count.
    """
    n_chunks = -(-total // chunk)
    workers = _worker_count(threads, n_chunks)

    def one(k: int):
        count = chunk if (k + 1) * chunk <= total else total - k * chunk
        rng = seed.with_stream(_stream_id(task, k)).generator()
        return chunk_eval(rng, count)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(one, range(n_chunks)))
    return sum(map(one, range(n_chunks)))


def _tally(
    spec: ExperimentSpec, thresholds, threads, task: str, total: int, geometry, tile, extents
):
    """Monte Carlo estimates of P(max window sum <= n) over nested anchor extents.

    Each replica samples one source field of ``geometry``, applies the block
    factor and takes every window sum once.  The sums are cut into
    ``tile = (rows, cols)`` tiles of anchors and each tile's maximum is taken
    once; an extent ``(v, u)`` is the leading ``v x u`` tiles, so its maximum
    is entry ``[v - 1, u - 1]`` of the running maxima of the tile maxima
    over both tile axes.  Returns
    the thresholds and, per extent and threshold, the estimate and its Wald
    half-width.
    """
    thr = np.asarray(spec.thresholds if thresholds is None else thresholds, dtype=np.float64)
    if thr.size == 0:
        empty = np.empty((len(extents), 0))
        return thr, empty, empty
    threads = spec.threads if threads is None else threads
    cols, rows = geometry.source_cols, geometry.source_rows
    m1, m2 = spec.scan.m1, spec.scan.m2

    def chunk_eval(rng: np.random.Generator, count: int) -> np.ndarray:
        source = spec.distribution.sample(rng, (count, rows, cols))
        derived = apply_block_factor_batch(source, spec.transform, geometry)
        sums = window_sums_batch(derived, m1, m2)
        # tile axes first, so every step below runs over the replicas
        lead = np.moveaxis(tile_maxima(sums, *tile), 0, -1)
        for i in range(1, lead.shape[0]):
            np.maximum(lead[i], lead[i - 1], out=lead[i])
        for j in range(1, lead.shape[1]):
            np.maximum(lead[:, j], lead[:, j - 1], out=lead[:, j])
        maxima = np.stack([lead[v - 1, u - 1] for v, u in extents])
        return (maxima[:, None, :] <= thr[:, None]).sum(axis=2, dtype=np.int64)

    counts = _accumulate(total, _chunk_size(rows * cols), spec.seed, task, chunk_eval, threads)
    probs = counts / total
    return thr, probs, spec.confidence_z * np.sqrt(probs * (1.0 - probs) / total)


def estimate_quv(
    spec: ExperimentSpec, thresholds=None, threads: int | None = None
) -> list[EstimateRecord]:
    """Monte Carlo estimates of all four Q_uv for every threshold in one pass.

    One source field of the largest (3, 3) size serves all four nested maxima
    per replica; all thresholds share the same replicas.
    """
    cols, rows = quv_field_dims(3, 3, spec.geometry, spec.scan)
    # the window sums of the (3, 3) field are 2 x 2 tiles of block2 x block1
    # anchors (1 x 2 tiles of one row in 1-D); Q_uv reads the leading
    # (v - 1) x (u - 1) of them
    if spec.one_dimensional:
        tile, extents = (1, spec.block1), [(1, u - 1) for u, _ in _UV_PAIRS]
    else:
        tile, extents = (spec.block2, spec.block1), [(v - 1, u - 1) for u, v in _UV_PAIRS]
    sub_geom = spec.geometry.with_source(cols, rows)
    thr, q_hat, beta = _tally(
        spec, thresholds, threads, "quv", spec.iterations, sub_geom, tile, extents
    )
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


def _error_factor(alpha: float, m: int, l_mode: str):
    """F at the hypothesis boundary q1 = 1 - alpha with its l and t2; None at the exact limit."""
    if alpha <= 0.0:
        return 1.0 + 3.0 / m, None, None
    constants = theorem1_constants(alpha, l_mode=l_mode, m=m)
    return error_factor_F(constants, m, 1.0 - alpha), constants.l, constants.t2


def two_step_approximation(
    rec: EstimateRecord, L1: int, L2: int, l_mode: str = "boundary"
) -> ApproxRow:
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
        f1, l1, t2_1 = _error_factor(alpha2, L1, l_mode)
        f2, l2, t2_2 = _error_factor(alpha1, L2, l_mode)
        b2_term = 1.0 - r2 + L1 * f1 * (1.0 - q22) ** 2
        c22 = 1.0 - q22 + rec.b22
        c23 = 1.0 - q23 + rec.b23
        c2_term = 1.0 - r2 + L1 * (rec.b22 + rec.b32) + L1 * f1 * c22**2
        ledger = dict(
            e_app=L2 * f2 * b2_term**2 + L1 * L2 * f1 * ((1.0 - q22) ** 2 + (1.0 - q23) ** 2),
            e_sf=L1 * L2 * (rec.b22 + rec.b23 + rec.b32 + rec.b33),
            e_sapp=L2 * f2 * c2_term**2 + L1 * L2 * f1 * (c22**2 + c23**2),
            l1=l1,
            l2=l2,
            t2_1=t2_1,
            t2_2=t2_2,
        )
    return ApproxRow(
        n=rec.n,
        approx=approx,
        valid=valid,
        clamped=cl or cl2 or cl3 or (r3_ordered != r3) or (q32 != rec.q32) or (q33 != rec.q33),
        alpha1=alpha1,
        alpha2=alpha2,
        q2=r2,
        q3=r3,
        alpha1_conservative=r3 < q33,
        **ledger,
    )


def one_step_approximation(
    rec: EstimateRecord, L1: int, l_mode: str = "boundary"
) -> ApproxRow:
    """Row-scan path: a single bound application over the block columns."""
    _check_slack(rec.n, [(rec.q32, rec.q22, rec.b32, rec.b22, "q32 <= q22")])
    q2 = rec.q22
    q3 = min(rec.q32, q2)
    approx, cl = approximant_H_with_flag(q2, q3, L1)
    alpha = 1.0 - q3
    valid = alpha <= ALPHA_MAX
    ledger = {}
    if valid:
        f1, l1, t2_1 = _error_factor(alpha, L1, l_mode)
        ledger = dict(
            e_app=L1 * f1 * (1.0 - q2) ** 2,
            e_sf=L1 * (rec.b22 + rec.b32),
            e_sapp=L1 * f1 * (1.0 - q2 + rec.b22) ** 2,
            l1=l1,
            t2_1=t2_1,
        )
    return ApproxRow(
        n=rec.n,
        approx=approx,
        valid=valid,
        clamped=cl or (q3 != rec.q32),
        alpha1=alpha,
        alpha2=alpha,
        q2=q2,
        q3=q3,
        **ledger,
    )


def _assemble(spec: ExperimentSpec, rec: EstimateRecord, L1: int, L2: int) -> ApproxRow:
    if spec.one_dimensional:
        return one_step_approximation(rec, L1, l_mode=spec.l_mode)
    return two_step_approximation(rec, L1, L2, l_mode=spec.l_mode)


def _dimension_levels(n_tilde: int, block: int) -> list[tuple[int, float]]:
    """Block-count levels and interpolation weights; one level when size is exact."""
    ratio = n_tilde // block
    if n_tilde % block == 0:
        return [(ratio - 1, 1.0)]
    weight = (n_tilde - ratio * block) / block
    return [(ratio - 1, 1.0 - weight), (ratio, weight)]


def interpolated_approximation(spec: ExperimentSpec, threads: int | None = None) -> list[ApproxRow]:
    """Approximation at any lattice size, exact block multiple or not.

    An exact size gives the single row assembled at its block counts.  Each
    non-multiple dimension is bracketed by the two nearest exact sizes; the
    scan CDF is monotone decreasing in size, so the brackets sandwich the
    target and the interpolant is their convex combination.  The bracket
    width is folded into the theory term of the ledger so the interpolation
    choice is covered by the reported error; a bracket with an invalid level
    is invalid, with a ``nan`` ledger.
    """
    levels1 = _dimension_levels(spec.geometry.source_cols, spec.block1)
    if spec.one_dimensional:
        levels2 = [(1, 1.0)]
    else:
        levels2 = _dimension_levels(spec.geometry.source_rows, spec.block2)
    rows = []
    for rec in estimate_quv(spec, threads=threads):
        combos = [
            (w1 * w2, _assemble(spec, rec, L1, L2)) for L1, w1 in levels1 for L2, w2 in levels2
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
                bracket_low=lo,
                bracket_high=hi,
                **ledger,
            )
        )
    return rows


def approximate(spec: ExperimentSpec, threads: int | None = None) -> list[ApproxRow]:
    """Full pipeline: estimate Q_uv once, assemble one row per threshold."""
    return interpolated_approximation(spec, threads=threads)


def simulate_distribution(
    spec: ExperimentSpec,
    thresholds=None,
    replicas: int = 100_000,
    threads: int | None = None,
) -> list[SimRow]:
    """Direct Monte Carlo of the full-size scan; returns the empirical CDF."""
    if replicas < 1:
        raise ParameterError("replicas must be >= 1")
    g, s = spec.geometry, spec.scan
    full = (g.derived_rows - s.m2 + 1, g.derived_cols - s.m1 + 1)
    thr, probs, half = _tally(spec, thresholds, threads, "sim", replicas, g, full, [(1, 1)])
    return [
        SimRow(n=float(n), prob=float(p), half_width=float(h), replicas=replicas)
        for n, p, h in zip(thr, probs[0], half[0])
    ]


@dataclass(frozen=True, eq=False)
class MATheory:
    """Closed-form moments of the moving sums of a moving-average sequence."""

    coeffs: np.ndarray
    window: int
    mean_source: float
    variance_source: float
    b: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.b.sum() * self.mean_source)

    @property
    def variance(self) -> float:
        return float((self.b**2).sum() * self.variance_source)

    @property
    def max_lag(self) -> int:
        # covariance support: lags 0 .. window + order - 1
        return self.b.size - 1

    def covariance(self, lag: int) -> float:
        lag = abs(int(lag))
        if lag > self.max_lag:
            return 0.0
        return float((self.b[: self.b.size - lag] * self.b[lag:]).sum() * self.variance_source)


def ma_theory(coeffs, m1: int, mean: float = 0.0, variance: float = 1.0) -> MATheory:
    """Moments of width-m1 moving sums over the order-q moving average.

    The aggregated coefficients come from the general convolution
    ``b_k = sum(a_j, j in [max(1, k-m1+1), min(k, q+1)])`` for k = 1..m1+q.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ParameterError("coefficients must be a non-empty vector")
    q = a.size - 1
    if m1 < q:
        raise HypothesisError(f"window m1={m1} must be >= moving-average order q={q}")
    b = np.array(
        [a[max(0, k - m1) : min(k, q + 1)].sum() for k in range(1, m1 + q + 1)]
    )
    return MATheory(coeffs=a, window=m1, mean_source=mean, variance_source=variance, b=b)
