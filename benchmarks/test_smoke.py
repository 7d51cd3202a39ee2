"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q
"""
import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"quv-sparse": 20_000, "quv-ma": 20_000, "sim-sparse": 300, "quv-sparse-t2": 20_000}


def _run(workload, trace):
    metrics, record = run.run_workload(
        workload, workload.default_seed, 0.0, trace, size=TINY[workload.name]
    )
    return metrics, run.result_line(run.read_spec(), metrics, record, trace)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_listed_metric_is_emitted_with_its_unit(name, trace):
    metrics, result = _run(WORKLOADS[name], trace)
    listed = run.read_spec()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace and WORKLOADS[name].threads == 1:
        # layer self times account for the traced call's wall time
        assert abs(metrics["trace.self_sum_ratio"] - 1.0) <= 0.01


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_flags_a_perturbed_reference(name):
    workload = WORKLOADS[name]
    perturbed = {n: (0.3, budget) for n, (_, budget) in workload.reference.items()}
    _, result = _run(dataclasses.replace(workload, reference=perturbed), False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_fails_without_the_package_sources(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "quv-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
