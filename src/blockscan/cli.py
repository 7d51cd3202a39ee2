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
from .fields import MarginalDistribution, SeedSpec
from .pipeline import ApproxRow, ExperimentSpec, SimRow, approximate, simulate_distribution
from .scan import ScanGeometry

_THREADS_ENV = "BLOCKSCAN_THREADS"


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
    l_mode: str = "boundary"
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
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(key, f"expected a number, got {value!r}")
                if typ is int and int(value) != value:
                    raise ConfigError(key, f"expected an integer, got {value!r}")
                value = typ(value)
            elif typ is tuple:
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(key, f"expected a list, got {value!r}")
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
                raw = json.load(handle)
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
        params = {}
        if self.transform == "ma":
            if self.ma_coeffs is None:
                raise ConfigError("ma_coeffs", "required for the ma transform")
            params["coeffs"] = list(self.ma_coeffs)
        try:
            transform, (x1, x2, y1, y2) = catalog_transform(self.transform, **params)
            geometry = LatticeGeometry(self.source_cols, self.source_rows, x1, x2, y1, y2)
            scan = ScanGeometry(self.m1, self.m2)
            try:
                dist = MarginalDistribution(
                    self.distribution, p=self.p, trials=self.trials,
                    mean=self.mean, variance=self.variance,
                )
            except ParameterError as exc:
                raise ConfigError("distribution", str(exc)) from exc
            weights = transform.weights
            integer_weights = weights is not None and np.issubdtype(weights.dtype, np.integer)
            if dist.integer_valued and integer_weights:
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
                l_mode=self.l_mode,
                threads=self.resolved_threads(),
            )
        except ConfigError:
            raise
        except BlockScanError as exc:
            raise ConfigError("<spec>", str(exc)) from exc

    def to_metadata(self) -> list[tuple[str, object]]:
        out = []
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out.append((f.name, value))
        return out


def _fmt(value, raw: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value) if raw else f"{value:.6f}"
    return str(value)


def _fmt_threshold(n: float) -> str:
    return str(int(n)) if float(n) == int(n) else repr(float(n))


_COLUMNS = ("n", "sim", "approx", "e_app", "e_sf", "e_sapp", "e_total", "valid")


def write_approx_table(
    path: str,
    rows: list[ApproxRow],
    config: RunConfig,
    sim_rows: list[SimRow] | None = None,
    raw: bool = False,
    wall_time: float | None = None,
) -> None:
    sim_by_n = {row.n: row for row in (sim_rows or [])}
    lines = [f"# blockscan approximate v{__version__}"]
    for key, value in config.to_metadata():
        lines.append(f"# {key} = {json.dumps(value) if isinstance(value, tuple) else value}")
    for row in rows:
        details = [f"alpha1={row.alpha1:.6g}", f"alpha2={row.alpha2:.6g}"]
        for label, value in (("l1", row.l1), ("l2", row.l2), ("t2_1", row.t2_1), ("t2_2", row.t2_2)):
            if value is not None:
                details.append(f"{label}={value:.6g}")
        if row.bracket_low is not None:
            details.append(f"bracket=[{row.bracket_low:.6g},{row.bracket_high:.6g}]")
        if row.clamped:
            details.append("clamped")
        lines.append(f"# row n={_fmt_threshold(row.n)}: " + " ".join(details))
    if wall_time is not None:
        lines.append(f"# wall_time_s = {wall_time:.3f}")
    lines.append("# columns: " + "\t".join(_COLUMNS))
    for row in rows:
        sim = sim_by_n.get(row.n)
        cells = (
            _fmt_threshold(row.n),
            _fmt(None if sim is None else sim.prob, raw),
            _fmt(row.approx, raw),
            _fmt(row.e_app, raw),
            _fmt(row.e_sf, raw),
            _fmt(row.e_sapp, raw),
            _fmt(row.e_total, raw),
            _fmt(row.valid, raw),
        )
        lines.append("\t".join(cells))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_sim_table(
    path: str,
    rows: list[SimRow],
    config: RunConfig,
    raw: bool = False,
    wall_time: float | None = None,
) -> None:
    lines = [f"# blockscan simulate v{__version__}"]
    for key, value in config.to_metadata():
        lines.append(f"# {key} = {json.dumps(value) if isinstance(value, tuple) else value}")
    if wall_time is not None:
        lines.append(f"# wall_time_s = {wall_time:.3f}")
    lines.append("# columns: n\tsim\thalf_width")
    for row in rows:
        lines.append(
            "\t".join(
                (_fmt_threshold(row.n), _fmt(row.prob, raw), _fmt(row.half_width, raw))
            )
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_table(path: str) -> tuple[list[str], list[str], list[dict]]:
    """Parse a written table back into (metadata, columns, row dicts)."""
    metadata, columns, rows = [], [], []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                metadata.append(line)
                if line.startswith("# columns: "):
                    columns = line[len("# columns: ") :].split("\t")
                continue
            cells = line.split("\t")
            row = {}
            for name, cell in zip(columns, cells):
                row[name] = None if cell == "" else float(cell)
            rows.append(row)
    return metadata, columns, rows


def emit_plotdata(approx_path: str, out_path: str, sim_path: str | None = None) -> None:
    """Pair approximation and simulation series, with the error band."""
    _, _, approx_rows = read_table(approx_path)
    sim_by_n = {}
    if sim_path is not None:
        _, _, sim_rows = read_table(sim_path)
        sim_by_n = {row["n"]: row["sim"] for row in sim_rows}
        approx_ns = [row["n"] for row in approx_rows]
        if sorted(sim_by_n) != sorted(approx_ns):
            raise AlignmentError(
                f"threshold mismatch: approx {approx_ns} vs sim {sorted(sim_by_n)}"
            )
    lines = [f"# blockscan plotdata v{__version__}", "# columns: n\tsim\tapprox\tlower\tupper"]
    for row in approx_rows:
        approx = row["approx"]
        e_total = row["e_total"]
        if e_total is None or math.isnan(e_total):
            lower = upper = float("nan")
        else:
            lower = max(0.0, approx - e_total)
            upper = min(1.0, approx + e_total)
        sim = sim_by_n.get(row["n"], row.get("sim"))
        lines.append(
            "\t".join(
                (
                    _fmt_threshold(row["n"]),
                    "" if sim is None else f"{sim:.6f}",
                    f"{approx:.6f}",
                    f"{lower:.6f}",
                    f"{upper:.6f}",
                )
            )
        )
    with open(out_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _common_overrides(args) -> dict:
    return {
        "seed": args.seed,
        "iterations": getattr(args, "iterations", None),
        "replicas": getattr(args, "replicas", None),
        "threads": args.threads,
        "l_mode": getattr(args, "l_mode", None),
    }


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

    def add_common(p, with_iter=False, with_replicas=False):
        p.add_argument("-c", "--config", required=True, help="path to JSON config")
        p.add_argument("-o", "--output", default=None, help="output table path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--raw", action="store_true", help="full-precision output")
        if with_iter:
            p.add_argument("--iterations", type=int, default=None)
            p.add_argument("--l-mode", dest="l_mode", choices=("boundary", "optimize"), default=None)
        if with_replicas:
            p.add_argument("--replicas", type=int, default=None)

    add_common(sub.add_parser("approximate"), with_iter=True, with_replicas=True)
    add_common(sub.add_parser("simulate"), with_replicas=True)

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
        config = RunConfig.from_file(args.config, overrides=_common_overrides(args))
        out = args.output or f"blockscan-{args.command}.tsv"
        if args.command == "approximate":
            run_approx(config, out, raw=args.raw)
        else:
            run_sim(config, out, raw=args.raw)
        return 0
    except (BlockScanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
