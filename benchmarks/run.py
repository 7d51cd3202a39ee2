"""Benchmark of blockscan's user path on the paper's workloads.

Usage (from the repository root)::

    python3 benchmarks/run.py                          # every workload, in turn
    python3 benchmarks/run.py --workload quv-sparse --seed 42 --seconds 35 --trace 0

One operation is what a CLI user waits for: the flat JSON config is read and
validated (``cli.RunConfig.from_file`` -> ``build_spec``), the Monte Carlo
call runs (``pipeline.approximate`` or ``pipeline.simulate_distribution``)
and the table is written at raw precision (``cli.write_approx_table`` or
``cli.write_sim_table``).  Operations repeat on the same inputs until
``--seconds`` have passed; every written table goes through the correctness
gate in ``workloads.py`` and must equal the run's 1-thread reference table
byte for byte.  A failing operation counts in ``failed``; it does not stop
the run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Times
are normalised for the machine's speed of the moment: operations by a fixed
NumPy kernel timed after each one, set-up by a baseline interpreter timed
next to it.  The unnormalised figures are printed and recorded too.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  The last
line of standard output is the JSON result; run details, the environment
record and the spans go to ``.bench_out/`` under the repository root.
``benchmarks/NOTES.md`` describes the workloads, metrics and noise.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from spans import Span, Tracer, descendants, self_times
from workloads import WORKLOADS, Workload, check_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up is timed this many times per run, spread over the run, because its
# speed drifts with the machine's over seconds
SETUP_RUNS = 8
MIN_OPS = 4
# typical times of the reference kernel and of the baseline interpreter on the
# 2-core Xeon this benchmark was defined on; normalised times are scaled to
# the machine speed at which they take this long
REF_KERNEL_S = 0.14
BASELINE_SETUP_S = 0.22
# what every CLI invocation pays before any work: interpreter, import, config check
SETUP_CODE = "import sys\nfrom blockscan.cli import RunConfig\nRunConfig.from_file(sys.argv[1])\n"
# the same interpreter start and NumPy import, without blockscan
BASELINE_CODE = "import numpy\n"


def load_package():
    """Import blockscan from this checkout's ``src``, never from elsewhere."""
    package = SRC / "blockscan"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no blockscan sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import blockscan
    from blockscan import cli, pipeline

    if Path(blockscan.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported blockscan from {blockscan.__file__}, not {package}")
    return blockscan, cli, pipeline


def read_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def time_interpreter(code: str, *args: str) -> float:
    """Wall time of a fresh interpreter running ``code`` with this checkout's ``src``."""
    start = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def time_setup(config_path: Path) -> dict:
    """Set-up time, next to a baseline interpreter that only imports NumPy.

    Interpreter start-up drifts with the machine by up to 30% between runs,
    and a NumPy kernel does not follow it; the baseline does, so set-up is
    reported as its ratio to the baseline times ``BASELINE_SETUP_S``.
    """
    return {
        "baseline_s": time_interpreter(BASELINE_CODE),
        "setup_s": time_interpreter(SETUP_CODE, str(config_path)),
    }


def reference_kernel() -> float:
    """Seconds taken by a fixed NumPy job: Monte Carlo-shaped blocks, then fresh big arrays.

    It shares no code with blockscan, so its time follows only the machine's
    speed of the moment (other tenants of a shared host, clock changes).  Run
    after every operation, it lets the end-to-end times be divided by that
    speed: on a shared 2-core host the medians of 20-second runs drift by
    10-15% over minutes, and the normalised ones by 2-4%.  The second part
    allocates, faults in and streams 8 MB arrays, which the full-size
    simulation's noise follows.  Blocks stay small enough that the kernel
    adds nothing to peak RSS.
    """
    rng = np.random.Generator(np.random.Philox(0))
    start = time.perf_counter()
    for _ in range(8):
        ints = (rng.random((2048, 12, 12)) < 0.1).astype(np.int64)
        ints.cumsum(axis=1).cumsum(axis=2).max(axis=(1, 2))
        rng.normal(size=(2048, 64)).cumsum(axis=1, dtype=np.longdouble).max(axis=1)
    for _ in range(8):
        fresh = np.empty(1_000_000, dtype=np.int64)
        fresh.fill(1)
        fresh.cumsum().max()
    return time.perf_counter() - start


def run_op(cli, pipeline, workload: Workload, config_path: Path, table_path: Path,
           tracer: Tracer | None = None, threads: int | None = None):
    """One user-path operation; returns (rows, call seconds, wall seconds)."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    call = "pipeline.simulate_distribution" if workload.simulate else "pipeline.approximate"
    start = time.perf_counter()
    with span("op"):
        with span("cli.config"):
            config = cli.RunConfig.from_file(str(config_path))
            spec = config.build_spec()
        with span(call):
            call_start = time.perf_counter()
            if workload.simulate:
                rows = pipeline.simulate_distribution(
                    spec, replicas=config.replicas, threads=threads
                )
            else:
                rows = pipeline.approximate(spec, threads=threads)
            call_s = time.perf_counter() - call_start
        with span("cli.write"):
            write = cli.write_sim_table if workload.simulate else cli.write_approx_table
            write(str(table_path), rows, config, raw=True)
    return rows, call_s, time.perf_counter() - start


def check_op(cli, workload: Workload, table_path: Path, size: int, reference: bytes | None):
    """Gate problems of a written table, and its bytes."""
    table = table_path.read_bytes()
    problems = check_table(workload, cli.read_table(str(table_path))[2], size)
    if reference is not None and table != reference:
        problems.append("table bytes differ from the 1-thread reference at the same seed")
    return problems, table


def chunk_working_set(spans: list[Span]) -> int:
    """Largest per-chunk sum of the arrays returned by fields, blockfactor and scan."""
    per_chunk = defaultdict(int)
    for s in spans:
        if s.chunk is not None and s.layer in ("fields", "blockfactor", "scan"):
            per_chunk[s.chunk] += s.bytes_out
    return max(per_chunk.values(), default=0)


def layer_metrics(spans: list[Span], call_s: float) -> dict[str, float]:
    """Per-layer figures of one traced operation whose call took ``call_s``."""
    root = next(s for s in spans if s.name == "op")
    children = [s for s in spans if s.parent == root.id]
    call = next(s for s in children if s.layer == "pipeline")
    tree = descendants(spans, call)
    self_t = self_times(tree)
    busy, calls, nbytes = defaultdict(float), defaultdict(int), defaultdict(int)
    for s in tree:
        busy[s.layer] += self_t[s.id]
        calls[s.layer] += 1
        nbytes[s.layer] += s.bytes_in + s.bytes_out
    chunks = [s for s in tree if s.name == "pipeline.chunk"]
    accumulators = [s for s in tree if s.name == "pipeline.accumulate"]
    total_self = sum(busy.values())
    m = {
        "pipeline.self_s": busy["pipeline"],
        "pipeline.chunks": len(chunks),
        "pipeline.parallel_busy": (
            sum(c.duration for c in chunks) / sum(a.duration for a in accumulators)
        ),
        # Q_uv -> rows (approximant and ledger) or counts -> SimRows
        "pipeline.assemble_s": call.end - max(a.end for a in accumulators),
        "haiman.calls": calls["haiman"],
        "cli.config_s": next(s.duration for s in children if s.name == "cli.config"),
        "cli.write_s": next(s.duration for s in children if s.name == "cli.write"),
        "trace.call_s": call.duration,
        # 1 on one thread when every span has its parent; above 1 with workers
        "trace.self_sum_ratio": total_self / call_s,
        "trace.spans": len(spans),
    }
    for layer in ("fields", "blockfactor", "scan"):
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.bytes"] = nbytes[layer]
        m[f"{layer}.gb_per_s"] = nbytes[layer] / busy[layer] / 1e9 if busy[layer] else 0.0
    for layer in ("fields", "blockfactor", "scan", "pipeline"):
        m[f"{layer}.share_pct"] = 100.0 * busy[layer] / total_self
    return m


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict[str, str]:
    """Cache sizes of cpu0, read-only from sysfs; empty where it is not available."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def environment(blockscan, workload: Workload, seed: int, size: int, ws: int, chunks: int) -> dict:
    """What the run's figures depend on, recorded with every run."""
    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "threads": workload.threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blockscan": blockscan.__version__,
        "git_sha": git_sha(),
        "longdouble_precision": int(np.finfo(np.longdouble).precision),
        "cpu_cache": cache_sizes(),
        "chunks_per_op": chunks,
        "chunk_working_set_bytes_computed": ws,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 size: int | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (all computed metrics, run record)."""
    blockscan, cli, pipeline = load_package()
    size = size or workload.size
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    config_path, table_path = OUT / f"{tag}.json", OUT / f"{tag}.tsv"
    config_path.write_text(json.dumps(workload.flat_config(seed, size)))
    time_setup(config_path)  # fills the file cache

    # a traced 1-thread operation warms up, sizes the chunk working set and
    # gives the reference table every measured table must equal
    warm = Tracer()
    warm.install()
    try:
        run_op(cli, pipeline, workload, config_path, table_path, warm, threads=1)
    finally:
        warm.uninstall()
    problems, reference = check_op(cli, workload, table_path, size, None)
    failures = [("reference", problems)] if problems else []
    env = environment(
        blockscan, workload, seed, size, chunk_working_set(warm.spans),
        sum(s.name == "pipeline.chunk" for s in warm.spans),
    )

    reference_kernel()  # first-call allocations
    tracer, ops, setup = Tracer(), [], []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() < start + seconds:
        if time.perf_counter() >= start + seconds * len(setup) / SETUP_RUNS:
            setup.append(time_setup(config_path))
        traced = trace and len(ops) % 2 == 1
        first = len(tracer.spans)
        op = {"traced": traced}
        if traced:
            tracer.install()
        try:
            rows, op["call_s"], op["wall_s"] = run_op(
                cli, pipeline, workload, config_path, table_path, tracer if traced else None
            )
            op["pipeline.rows"] = len(rows)
            op["pipeline.valid_rows"] = sum(bool(getattr(r, "valid", True)) for r in rows)
            problems, _ = check_op(cli, workload, table_path, size, reference)
        except Exception:  # a failing operation is counted, and the run goes on
            problems = [traceback.format_exc()]
        finally:
            if traced:
                tracer.uninstall()
        op["ref_s"] = reference_kernel()
        if traced and not problems:
            op.update(layer_metrics(tracer.spans[first:], op["call_s"]))
        if problems:
            failures.append((len(ops), problems))
        ops.append(op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # thread determinism: the same inputs on a 2-thread pool must write the
    # same bytes; run after peak RSS is read, which it would raise
    if workload.threads == 1:
        try:
            run_op(cli, pipeline, workload, config_path, table_path, threads=2)
            problems, _ = check_op(cli, workload, table_path, size, reference)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failures.append(("threads=2", problems))

    record = {
        "env": env,
        "setup_s": setup,
        "ops": ops,
        "failures": failures,
        "attempted": len(ops) + (2 if workload.threads == 1 else 1),
        "failed": len(failures),
        "metrics": summarize(ops, setup, tracer, size, peak_rss_mb),
        "spans": tracer.dump() if trace else [],
    }
    with open(OUT / f"{tag}.run.json", "w") as handle:
        json.dump(record, handle, indent=1)
    return record["metrics"], record


def summarize(ops: list[dict], setup: list[dict], tracer: Tracer, size: int,
              peak_rss_mb: float) -> dict:
    """Run metrics: medians over operations; per-layer ones over the traced operations."""
    timed = [op for op in ops if "call_s" in op]
    untraced = [op for op in timed if not op["traced"]]
    metrics = {
        "norm_replicas_per_s": statistics.median(
            size / op["call_s"] * op["ref_s"] / REF_KERNEL_S for op in untraced
        ),
        "norm_wall_s": statistics.median(
            op["wall_s"] * REF_KERNEL_S / op["ref_s"] for op in untraced
        ),
        "raw.replicas_per_s": statistics.median(size / op["call_s"] for op in untraced),
        "raw.wall_s": statistics.median(op["wall_s"] for op in untraced),
        "machine.ref_kernel_ms": 1e3 * statistics.median(op["ref_s"] for op in ops),
        "setup_s": BASELINE_SETUP_S * statistics.median(
            pair["setup_s"] / pair["baseline_s"] for pair in setup
        ),
        "raw.setup_s": statistics.median(pair["setup_s"] for pair in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    layered = [op for op in timed if "trace.call_s" in op]
    if layered:
        for key, value in layered[0].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[key] = statistics.median(op[key] for op in layered)
        # chunk times pooled over all traced operations, for enough samples past p90
        chunk_ms = [s.duration * 1e3 for s in tracer.spans if s.name == "pipeline.chunk"]
        p50, p90 = np.percentile(chunk_ms, [50, 90])
        metrics["pipeline.chunk_p50_ms"] = float(p50)
        metrics["pipeline.chunk_p90_ms"] = float(p90)
        metrics["trace.chunk_samples"] = len(chunk_ms)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(op["call_s"] for op in layered)
            / statistics.median(op["call_s"] for op in untraced)
            - 1.0
        )
    return metrics


def result_line(bench: dict, metrics: dict, record: dict, trace: bool) -> dict:
    """The result line: correct, attempted, failed and each listed metric with its unit."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    bench = read_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed of the inputs (default: the acceptance-test seed)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        metrics, record = run_workload(workload, seed, args.seconds, bool(args.trace))
        for where, problems in record["failures"]:
            print(f"{name} op {where} failed: " + "; ".join(problems), file=sys.stderr)
        print(f"# env {json.dumps(record['env'])}")
        raw = {k: v for k, v in metrics.items() if k.startswith(("raw.", "machine."))}
        print(f"# {name} unnormalised {json.dumps(raw)}")
        results[name] = result_line(bench, metrics, record, bool(args.trace))
        if len(names) > 1:
            print(f"# {name} {json.dumps(results[name])}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
