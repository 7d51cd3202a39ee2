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
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .blockfactor import LatticeGeometry, catalog_transform
from .errors import AlignmentError, BlockScanError, ConfigError, ParameterError
from .fields import STREAM_MAP, MarginalDistribution, SeedSpec
from .pipeline import (
    ApproxRow,
    ExperimentSpec,
    SimRow,
    approximate,
    chunk_layout,
    simulate_distribution,
)
from .scan import ScanGeometry

_THREADS_ENV = "BLOCKSCAN_THREADS"
# the estimates and half-widths each ``# row`` note of an approximation carries
_ESTIMATES = ("q22", "q23", "q32", "q33", "b22", "b23", "b32", "b33")


def _check_number(key: str, value) -> None:
    """Raise unless ``value`` is an int or float (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, infinities and ints past the float range
        raise ConfigError(key, f"expected a finite number, got {value!r}")


def _reject_constant(name: str):
    """``json.load`` hook for the non-standard ``NaN``, ``Infinity`` and ``-Infinity`` literals."""
    raise ConfigError("<file>", f"non-finite number {name} is not allowed")


@dataclass(frozen=True)
class RunConfig:
    transform: str
    distribution: str
    source_cols: int
    source_rows: int
    m1: int
    thresholds: tuple
    ma_coeffs: tuple | None = None
    p: float | None = None
    trials: int | None = None
    mean: float | None = None
    variance: float | None = None
    m2: int = 1
    iterations: int = 100_000
    replicas: int = 100_000
    seed: int = 0
    confidence_z: float = 1.96
    threads: int | None = None
    include_sim: bool = False

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
        hints = get_type_hints(cls)
        coerced = {}
        for f in schema:
            key = f.name
            if key not in data:
                if f.default is MISSING:
                    raise ConfigError(key, "required key is missing")
                continue
            value = data[key]
            # an ``X | None`` field checks against X; a tuple field takes a JSON list
            typ = next((a for a in get_args(hints[key]) if a is not type(None)), hints[key])
            if typ in (int, float):
                _check_number(key, value)
                if typ is int and int(value) != value:
                    raise ConfigError(key, f"expected an integer, got {value!r}")
                value = typ(value)
            elif typ is tuple:
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(key, f"expected a list, got {value!r}")
                for item in value:
                    _check_number(key, item)
                value = tuple(value)
            elif not isinstance(value, typ):
                raise ConfigError(key, f"expected a {typ.__name__}, got {value!r}")
            coerced[key] = value
        config = cls(**coerced)
        config.build_spec()  # validate eagerly so failures name their key
        return config

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        with open(path) as handle:
            try:
                raw = json.load(handle, parse_constant=_reject_constant)
            except json.JSONDecodeError as exc:
                raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("<file>", "config must be a JSON object")
        return cls.from_mapping(raw, overrides)

    def resolved_threads(self) -> int:
        threads = self.threads
        if threads is None:
            env = os.environ.get(_THREADS_ENV)
            try:
                threads = int(env) if env else 1
            except ValueError:
                raise ConfigError("threads", f"{_THREADS_ENV}={env!r} is not an integer") from None
        if threads < 1:
            raise ConfigError("threads", f"must be >= 1, got {threads}")
        return threads

    def build_spec(self) -> ExperimentSpec:
        if self.replicas < 1:
            raise ConfigError("replicas", f"must be >= 1, got {self.replicas}")
        params = {}
        if self.transform == "ma":
            if self.ma_coeffs is None:
                raise ConfigError("ma_coeffs", "required for the ma transform")
            params["coeffs"] = list(self.ma_coeffs)
        try:
            transform = catalog_transform(self.transform, **params)
        except ParameterError as exc:
            # only the ma transform takes parameters; any other name is unknown
            raise ConfigError("ma_coeffs" if params else "transform", str(exc)) from exc
        try:
            geometry = LatticeGeometry(self.source_cols, self.source_rows)
            scan = ScanGeometry(self.m1, self.m2)
            dist = MarginalDistribution(
                self.distribution, p=self.p, trials=self.trials,
                mean=self.mean, variance=self.variance,
            )
            if dist.integer_valued and np.issubdtype(transform.weights.dtype, np.integer):
                for n in self.thresholds:
                    if float(n) != int(n):
                        raise ConfigError(
                            "thresholds", f"integer-valued model needs integer thresholds, got {n}"
                        )
            return ExperimentSpec(
                geometry=geometry,
                scan=scan,
                distribution=dist,
                transform=transform,
                thresholds=tuple(float(n) for n in self.thresholds),
                iterations=self.iterations,
                confidence_z=self.confidence_z,
                seed=SeedSpec(self.seed),
                threads=self.resolved_threads(),
            )
        except ConfigError:
            raise
        except BlockScanError as exc:
            raise ConfigError(exc.field or "<spec>", str(exc)) from exc


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
    calls=(),
) -> None:
    """Write a ``#`` header and one line per ``(threshold, *values)`` row.

    The header holds the version line, with a ``config`` the stream map,
    NumPy version, chunk layout of each Monte Carlo call in ``calls`` (a
    ``(task, replicas)`` pair, see ``pipeline.chunk_layout``) and config
    keys that are set (lists as JSON), then the ``notes`` lines, the wall
    time and the column names, in that order.
    """
    lines = [f"# blockscan {command} v{__version__}"]
    if config is not None:
        lines += [f"# rng = {STREAM_MAP}", f"# numpy = {np.__version__}"]
        spec = config.build_spec()
        layouts = []
        for task, total in calls:
            size, count, last = chunk_layout(spec, task, total)
            layouts.append(f"{task}: size={size} count={count} last={last}")
        lines.append("# chunks = " + "; ".join(layouts))
        for f in dataclass_fields(config):
            value = getattr(config, f.name)
            if value is not None:
                shown = json.dumps(value) if isinstance(value, tuple) else value
                lines.append(f"# {f.name} = {shown}")
    lines.extend(notes)
    if wall_time is not None:
        lines.append(f"# wall_time_s = {wall_time:.3f}")
    lines.append("# columns: " + "\t".join(columns))
    for n, *values in rows:
        lines.append("\t".join([_fmt_threshold(n)] + [_fmt(value, raw) for value in values]))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_approx_table(
    path: str,
    rows: list[ApproxRow],
    config: RunConfig,
    sim_rows: list[SimRow] | None = None,
    raw: bool = False,
    wall_time: float | None = None,
) -> None:
    sim_by_n = {row.n: row.prob for row in (sim_rows or [])}
    notes = []
    for row in rows:
        details = [f"alpha1={row.alpha1:.6g}", f"alpha2={row.alpha2:.6g}"]
        if row.estimate is not None:
            # the budget's inputs, exact, so a reader can re-derive e_sf
            details += [f"{name}={getattr(row.estimate, name)!r}" for name in _ESTIMATES]
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
    columns = ("n", "sim", "approx", "e_app", "e_sf", "e_sapp", "e_total", "valid")
    cells = [
        [row.n, sim_by_n.get(row.n)] + [getattr(row, name) for name in columns[2:]]
        for row in rows
    ]
    calls = [("quv", config.iterations)]
    if sim_rows is not None:
        calls.append(("sim", config.replicas))
    _write_table(path, "approximate", columns, cells, raw, config, notes, wall_time, calls)


def write_sim_table(
    path: str,
    rows: list[SimRow],
    config: RunConfig,
    raw: bool = False,
    wall_time: float | None = None,
) -> None:
    cells = [(row.n, row.prob, row.half_width) for row in rows]
    _write_table(
        path, "simulate", ("n", "sim", "half_width"), cells, raw, config, (), wall_time,
        [("sim", config.replicas)],
    )


def read_table(path: str) -> tuple[list[str], list[str], list[dict]]:
    """Parse a written table back into (metadata, columns, row dicts).

    Every data line must hold one cell per column of the ``# columns:``
    line above it (so none before it), each empty (``None``) or a number.
    """
    metadata, columns, rows = [], [], []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
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
        cells.append((row["n"], sim_by_n.get(row["n"], row.get("sim")), approx, lower, upper))
    _write_table(out_path, "plotdata", ("n", "sim", "approx", "lower", "upper"), cells)


def run_approx(config: RunConfig, out_path: str, raw: bool = False) -> list[ApproxRow]:
    spec = config.build_spec()
    start = time.perf_counter()
    rows = approximate(spec)
    sim_rows = None
    if config.include_sim:
        sim_rows = simulate_distribution(spec, replicas=config.replicas)
    write_approx_table(
        out_path, rows, config, sim_rows=sim_rows, raw=raw,
        wall_time=time.perf_counter() - start,
    )
    return rows


def run_sim(config: RunConfig, out_path: str, raw: bool = False) -> list[SimRow]:
    spec = config.build_spec()
    start = time.perf_counter()
    rows = simulate_distribution(spec, replicas=config.replicas)
    write_sim_table(out_path, rows, config, raw=raw, wall_time=time.perf_counter() - start)
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockscan")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_iter=False):
        p.add_argument("-c", "--config", required=True, help="path to JSON config")
        p.add_argument("-o", "--output", default=None, help="output table path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--raw", action="store_true", help="full-precision output")
        if with_iter:
            p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--replicas", type=int, default=None)

    add_common(sub.add_parser("approximate"), with_iter=True)
    add_common(sub.add_parser("simulate"))

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
        if args.command == "validate-config":
            RunConfig.from_file(args.config)
            print("ok")
            return 0
        if args.command == "plotdata":
            emit_plotdata(args.approx, args.output, sim_path=args.sim)
            return 0
        names = {f.name for f in dataclass_fields(RunConfig)}
        overrides = {key: value for key, value in vars(args).items() if key in names}
        config = RunConfig.from_file(args.config, overrides=overrides)
        out = args.output or f"blockscan-{args.command}.tsv"
        run = run_approx if args.command == "approximate" else run_sim
        run(config, out, raw=args.raw)
        return 0
    except (BlockScanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
