"""Configuration-driven experiment runner.

Subcommands: ``approximate``, ``simulate``, ``plotdata``, ``validate-config``.
Configs are flat JSON key-value documents; command-line flags override file
keys.  Output tables are tab-separated with a ``#``-prefixed metadata header,
probabilities printed with 6 decimals (``--raw`` switches to full precision).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields as dataclass_fields

import numpy as np

from . import __version__
from .blockfactor import catalog_transform
from .errors import AlignmentError, BlockScanError, ConfigError, ParameterError, check_integer
from .fields import MarginalDistribution, stream_map
from .pipeline import (
    DEFAULT_REPLICAS,
    UV_PAIRS,
    VIEWS,
    ApproxRow,
    ExperimentSpec,
    SimRow,
    approximate,
    chunk_layout,
    simulate_distribution,
)

# the estimates and half-widths each ``# row`` note of an approximation carries,
# in the order of the extents of ``EstimateRecord.sums``
_EXTENTS = tuple(f"{u}{v}" for u, v in UV_PAIRS)
_ESTIMATES = tuple(f"{name}{uv}" for name in ("q", "b") for uv in _EXTENTS)


def _reject_constant(name: str):
    """``json.load`` hook for the non-standard ``NaN``, ``Infinity`` and ``-Infinity`` literals."""
    raise ConfigError("<file>", f"non-finite number {name} is not allowed")


@dataclass(frozen=True)
class RunConfig:
    """The config keys, as given; each value is checked by the type that uses it (``build_spec``)."""

    transform: str
    distribution: str
    source_cols: int
    source_rows: int
    m1: int
    thresholds: list
    ma_coeffs: list | None = None
    p: float | None = None
    trials: int | None = None
    mean: float | None = None
    variance: float | None = None
    m2: int = 1
    iterations: int = ExperimentSpec.iterations
    replicas: int = DEFAULT_REPLICAS
    seed: int = ExperimentSpec.seed
    confidence_z: float = ExperimentSpec.confidence_z
    threads: int | None = None

    @classmethod
    def from_mapping(cls, raw: dict, overrides: dict | None = None) -> "RunConfig":
        data = dict(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                data[key] = value
        schema = dataclass_fields(cls)
        unknown = set(data) - {f.name for f in schema}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown key")
        for f in schema:
            if f.name not in data and f.default is MISSING:
                raise ConfigError(f.name, "required key is missing")
        config = cls(**data)
        # validate eagerly so failures name their key
        config.build_spec()
        return config

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        with open(path, encoding="utf-8") as handle:
            try:
                raw = json.load(handle, parse_constant=_reject_constant)
            except ConfigError:
                raise
            except (ValueError, RecursionError) as exc:
                # not UTF-8, not JSON, an integer past Python's digit limit, or nested past
                # the stack
                raise ConfigError("<file>", f"{path} is not a readable JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("<file>", f"{path} is not a JSON object")
        return cls.from_mapping(raw, overrides)

    def build_spec(self) -> ExperimentSpec:
        """The run's spec, built and checked on the first call; later calls return that object."""
        if "_spec" not in self.__dict__:
            # a frozen dataclass: the cache bypasses its __setattr__
            object.__setattr__(self, "_spec", self._make_spec())
        return self.__dict__["_spec"]

    def _make_spec(self) -> ExperimentSpec:
        if (self.transform == "ma") != (self.ma_coeffs is not None):
            raise ConfigError("ma_coeffs", "required for the ma transform, and only for it")
        try:
            check_integer("replicas", self.replicas, minimum=1)
            if self.threads is not None:  # unset, the pipeline runs one worker
                check_integer("threads", self.threads, minimum=1)
            params = {} if self.ma_coeffs is None else {"coeffs": self.ma_coeffs}
            spec = ExperimentSpec(
                transform=catalog_transform(self.transform, **params),
                distribution=MarginalDistribution(
                    self.distribution, p=self.p, trials=self.trials,
                    mean=self.mean, variance=self.variance,
                ),
                source_cols=self.source_cols,
                source_rows=self.source_rows,
                m1=self.m1,
                m2=self.m2,
                thresholds=self.thresholds,
                iterations=self.iterations,
                confidence_z=self.confidence_z,
                seed=self.seed,
            )
            if spec.distribution.integer_valued and np.issubdtype(
                spec.transform.weights.dtype, np.integer
            ):
                for n in spec.thresholds:
                    if int(n) != n:
                        raise ParameterError(
                            f"integer-valued model needs integer thresholds, got {n}",
                            field="thresholds",
                        )
            return spec
        except BlockScanError as exc:
            raise _key_error(exc) from exc


def _key_error(exc: BlockScanError) -> ConfigError:
    """A library error as a ``ConfigError`` naming the config key of its field."""
    return ConfigError(exc.field or "<spec>", str(exc))


def _fmt(value, raw: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value) if raw else f"{value:.6f}"  # both print nan as "nan"
    return str(value)


def _fmt_threshold(n: float) -> str:
    return str(int(n)) if float(n) == int(n) else repr(float(n))


def _write_table(
    path: str,
    command: str,
    columns: tuple,
    rows,
    raw: bool = False,
    config: RunConfig | None = None,
    notes=(),
    wall_time: float | None = None,
    call: tuple | None = None,
) -> None:
    """Write a ``#`` header and one line per ``(threshold, *values)`` row.

    The header holds the version line, with a ``config`` the stream map,
    NumPy version, chunk layout of the Monte Carlo ``call`` (a ``(task,
    replicas)`` pair, see ``pipeline.chunk_layout``) and config keys that
    are set (lists as JSON), then the ``notes`` lines, the wall time and
    the column names, in that order.
    """
    lines = [f"# blockscan {command} v{__version__}"]
    if config is not None:
        spec = config.build_spec()
        layout = chunk_layout(spec, *call)
        unit = "pairs" if layout.fields == 2 else "fields"
        rng_map = stream_map(spec.distribution.kind, layout.fields == 2)
        lines += [f"# rng = {rng_map}", f"# numpy = {np.__version__}"]
        lines.append(
            f"# chunks = {call[0]}: {unit}={layout.size} count={layout.count} "
            f"last={layout.last} mirrored={'yes' if spec.mirrored else 'no'} views={VIEWS}"
        )
        for f in dataclass_fields(config):
            value = getattr(config, f.name)
            if value is not None:
                shown = json.dumps(value) if isinstance(value, (list, tuple)) else value
                lines.append(f"# {f.name} = {shown}")
    lines.extend(notes)
    if wall_time is not None:
        lines.append(f"# wall_time_s = {wall_time:.3f}")
    lines.append("# columns: " + "\t".join(columns))
    for n, *values in rows:
        lines.append("\t".join([_fmt_threshold(n)] + [_fmt(value, raw) for value in values]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_approx_table(
    path: str,
    rows: list[ApproxRow],
    config: RunConfig,
    raw: bool = False,
    wall_time: float | None = None,
) -> None:
    notes = []
    for row in rows:
        details = [f"alpha1={row.alpha1:.6g}", f"alpha2={row.alpha2:.6g}"]
        if row.estimate is not None:
            # the budget's inputs, exact, so a reader can re-derive e_sf, and the
            # integers they are read from (``pipeline.group_estimate``)
            rec = row.estimate
            details += [f"{name}={getattr(rec, name)!r}" for name in _ESTIMATES]
            for name, tally in (("s", rec.sums), ("ss", rec.squares)):
                details += [f"{name}{uv}={k}" for uv, k in zip(_EXTENTS, tally)]
            details += [f"N={rec.iterations}", f"R={rec.group}"]
        for label, value in (("t2_1", row.t2_1), ("t2_2", row.t2_2)):
            if value is not None:
                details.append(f"{label}={value:.6g}")
        if row.bracket_low is not None:
            details.append(f"bracket=[{row.bracket_low:.6g},{row.bracket_high:.6g}]")
        if row.clamped:
            details.append("clamped")
        if row.beta0:
            details.append("beta0")
        notes.append(f"# row n={_fmt_threshold(row.n)}: " + " ".join(details))
    columns = ("n", "approx", "e_app", "e_sf", "e_sapp", "e_total", "valid")
    cells = [[getattr(row, name) for name in columns] for row in rows]
    _write_table(
        path, "approximate", columns, cells, raw, config, notes, wall_time,
        ("quv", config.iterations),
    )


def write_sim_table(
    path: str,
    rows: list[SimRow],
    config: RunConfig,
    raw: bool = False,
    wall_time: float | None = None,
) -> None:
    # the integers each row is read from (``pipeline.group_estimate``), and
    # ``beta0`` where its half-width is 0, as on an ``approximate`` row
    notes = [
        f"# row n={_fmt_threshold(r.n)}: s={r.sums} ss={r.squares} N={r.replicas} R={r.group}"
        + (" beta0" if r.half_width == 0.0 else "")
        for r in rows
    ]
    cells = [(row.n, row.prob, row.half_width) for row in rows]
    _write_table(
        path, "simulate", ("n", "sim", "half_width"), cells, raw, config, notes, wall_time,
        ("sim", config.replicas),
    )


def read_table(path: str) -> tuple[list[str], list[str], list[dict]]:
    """Parse a written table back into (metadata, columns, row dicts).

    Every data line must hold one cell per column of the ``# columns:``
    line above it (so none before it), each empty (``None``) or a number.
    """
    metadata, columns, rows = [], [], []
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise AlignmentError(f"{path}: not UTF-8 text: {exc}") from None
    for number, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        if line.startswith("#"):
            metadata.append(line)
            if line.startswith("# columns: "):
                columns = line[len("# columns: ") :].split("\t")
            continue
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise AlignmentError(
                f"{path} line {number}: {len(cells)} cells under {len(columns)} columns"
            )
        try:
            rows.append({n: None if c == "" else float(c) for n, c in zip(columns, cells)})
        except ValueError:
            raise AlignmentError(f"{path} line {number}: a cell is not a number") from None
    return metadata, columns, rows


def _read_series(path: str, needed: tuple) -> list[dict]:
    """The rows of a table that has a number in each ``needed`` column of every row."""
    _, columns, rows = read_table(path)
    for name in needed:
        if name not in columns:
            raise AlignmentError(f"{path}: no {name!r} column among {columns}")
        if any(row.get(name) is None for row in rows):
            raise AlignmentError(f"{path}: empty {name!r} cell")
    return rows


def emit_plotdata(approx_path: str, out_path: str, sim_path: str | None = None) -> None:
    """Pair approximation and simulation series, with the error band."""
    approx_rows = _read_series(approx_path, ("n", "approx", "e_total"))
    sim_by_n = {}
    if sim_path is not None:
        sim_rows = _read_series(sim_path, ("n", "sim"))
        sim_by_n = {row["n"]: row["sim"] for row in sim_rows}
        approx_ns = [row["n"] for row in approx_rows]
        if sorted(sim_by_n) != sorted(approx_ns):
            raise AlignmentError(
                f"threshold mismatch: approx {approx_ns} vs sim {sorted(sim_by_n)}"
            )
    cells = []
    for row in approx_rows:
        approx = row["approx"]
        e_total = row["e_total"]
        if math.isnan(e_total):
            lower = upper = float("nan")
        else:
            lower = max(0.0, approx - e_total)
            upper = min(1.0, approx + e_total)
        cells.append((row["n"], sim_by_n.get(row["n"]), approx, lower, upper))
    _write_table(out_path, "plotdata", ("n", "sim", "approx", "lower", "upper"), cells)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockscan")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, count):
        p.add_argument("-c", "--config", required=True, help="path to JSON config")
        p.add_argument("-o", "--output", default=None, help="output table path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--raw", action="store_true", help="full-precision output")
        p.add_argument(f"--{count}", type=int, default=None)

    add_common(sub.add_parser("approximate"), "iterations")
    add_common(sub.add_parser("simulate"), "replicas")

    plot = sub.add_parser("plotdata")
    plot.add_argument("--approx", required=True, help="approximation table path")
    plot.add_argument("--sim", default=None, help="simulation table path")
    plot.add_argument("-o", "--output", required=True)

    val = sub.add_parser("validate-config")
    val.add_argument("-c", "--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plotdata":
            emit_plotdata(args.approx, args.output, sim_path=args.sim)
            return 0
        names = {f.name for f in dataclass_fields(RunConfig)}
        overrides = {key: value for key, value in vars(args).items() if key in names}
        config = RunConfig.from_file(args.config, overrides=overrides)
        spec = config.build_spec()
        if args.command == "validate-config":
            # the config must suit simulate too, whose replicas draw the whole source
            chunk_layout(spec, "sim", config.replicas)
            print("ok")
            return 0
        start = time.perf_counter()
        if args.command == "approximate":
            rows = approximate(spec, threads=config.threads)
            write = write_approx_table
        else:
            rows = simulate_distribution(spec, replicas=config.replicas, threads=config.threads)
            write = write_sim_table
        out = args.output or f"blockscan-{args.command}.tsv"
        write(out, rows, config, raw=args.raw, wall_time=time.perf_counter() - start)
        return 0
    except (BlockScanError, OSError) as exc:
        if getattr(exc, "field", None):
            # a check past the config's own, such as a count past the cell limit
            exc = _key_error(exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
