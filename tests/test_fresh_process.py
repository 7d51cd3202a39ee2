"""Checks that run blockscan in a fresh interpreter, under a timeout.

A count past the drawn-cell limit must be rejected before any work starts;
run in a child process, a regression that starts the run fails on the
timeout instead of hanging the suite.  A fresh interpreter also shows which
modules one run imports.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockscan
from blockscan import ExperimentSpec, quv_field_dims
from blockscan.cli import RunConfig, main
from blockscan.errors import ConfigError, ParameterError
from blockscan.pipeline import MAX_DRAWN_CELLS, chunk_layout

SRC = str(Path(blockscan.__file__).resolve().parents[1])
CONFIG = {
    "transform": "identity",
    "distribution": "bernoulli",
    "p": 0.3,
    "source_cols": 12,
    "source_rows": 12,
    "m1": 3,
    "m2": 3,
    "thresholds": [6, 7, 8],
    "seed": 11,
}


def _run(args, cwd, timeout=60) -> subprocess.CompletedProcess:
    """Run ``python args`` in a fresh interpreter that imports blockscan from this checkout."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def _spec(**updates) -> ExperimentSpec:
    return RunConfig.from_mapping({**CONFIG, **updates}).build_spec()


@pytest.mark.parametrize(
    "call",
    [
        "estimate_quv(dataclasses.replace(spec, iterations=2**64))",
        "simulate_distribution(spec, replicas=2**64)",
    ],
    ids=["estimate_quv", "simulate_distribution"],
)
def test_the_library_rejects_a_count_past_the_cell_limit(tmp_path, call):
    code = (
        "import dataclasses\n"
        "from blockscan import estimate_quv, simulate_distribution\n"
        "from blockscan.cli import RunConfig\n"
        "from blockscan.errors import ParameterError\n"
        f"spec = RunConfig.from_mapping({CONFIG!r}).build_spec()\n"
        "try:\n"
        f"    {call}\n"
        "except ParameterError as exc:\n"
        "    print(exc.field)\n"
    )
    result = _run(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ("replicas" if "replicas" in call else "iterations")


@pytest.mark.parametrize("key", ["iterations", "replicas"])
@pytest.mark.parametrize("command", ["validate-config", "approximate", "simulate"])
def test_the_cli_rejects_a_count_past_the_cell_limit(tmp_path, command, key):
    (tmp_path / "run.json").write_text(json.dumps({**CONFIG, key: 2**64}))
    result = _run(["-m", "blockscan.cli", command, "-c", "run.json"], tmp_path)
    if (command, key) == ("approximate", "replicas"):
        # approximate draws no replicas: the count does not bound its run
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "blockscan-approximate.tsv").exists()
        return
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: config key '{key}': ")
    assert not list(tmp_path.glob("*.tsv"))


def test_approximate_runs_a_source_whose_simulation_would_pass_the_cell_limit(tmp_path):
    """8e9 columns at the default 1e5 replicas are 2e14 cells, four replicas to a drawn field.

    Approximate draws 500 (3,3) fields.
    """
    config = {
        **CONFIG, "source_cols": 8_000_000_000, "source_rows": 1, "m1": 20, "m2": 1,
        "thresholds": [4, 5],
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    approx = ["-m", "blockscan.cli", "approximate", "-c", "run.json", "--iterations", "2000"]
    result = _run(approx, tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "blockscan-approximate.tsv").exists()
    result = _run(["-m", "blockscan.cli", "simulate", "-c", "run.json"], tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: config key 'replicas': ")


def test_a_count_at_the_cell_limit_validates(tmp_path):
    """The limit counts drawn fields, each of which counts as four replicas of Bernoulli cells."""
    spec = _spec()
    cols, rows = quv_field_dims(3, 3, spec)
    iterations = 4 * (MAX_DRAWN_CELLS // (cols * rows))
    replicas = 4 * (MAX_DRAWN_CELLS // (spec.source_cols * spec.source_rows))
    assert _spec(iterations=iterations, replicas=replicas).iterations == iterations
    with pytest.raises(ConfigError) as err:
        _spec(iterations=iterations + 1)
    assert err.value.key == "iterations"
    for key, value in (("iterations", iterations), ("replicas", replicas)):
        (tmp_path / "run.json").write_text(json.dumps({**CONFIG, key: value}))
        assert main(["validate-config", "-c", str(tmp_path / "run.json")]) == 0
        (tmp_path / "run.json").write_text(json.dumps({**CONFIG, key: value + 1}))
        assert main(["validate-config", "-c", str(tmp_path / "run.json")]) == 2
    # not through simulate_distribution, which would start the run if its check let this by
    with pytest.raises(ParameterError) as err:
        chunk_layout(spec, "sim", replicas + 1)
    assert err.value.field == "replicas"


@pytest.mark.parametrize("threads", [1, 2])
def test_only_a_run_on_more_threads_imports_the_thread_pool(tmp_path, threads):
    (tmp_path / "run.json").write_text(json.dumps(CONFIG))
    code = (
        "import sys\n"
        "from blockscan.cli import main\n"
        f"assert main(['approximate', '-c', 'run.json', '--threads', '{threads}']) == 0\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    result = _run(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    # 2 requested threads start a pool only where 2 CPUs are usable
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert result.stdout.strip() == str(threads > 1 and cpus > 1)


@pytest.mark.parametrize(
    "call",
    ["main(['validate-config', '-c', 'run.json'])", "RunConfig.from_file('run.json')"],
    ids=["validate-config", "set-up"],
)
def test_reading_a_config_imports_neither_the_sampler_nor_the_thread_pool(tmp_path, call):
    """``validate-config`` and a run's set-up load neither ``numpy.random`` nor the pool.

    Importing ``numpy.random`` takes about 10 ms and loads OpenSSL (through
    ``secrets``, ``hmac`` and ``_hashlib``), so a module-level import of it
    would slow every command that only reads its config.
    """
    (tmp_path / "run.json").write_text(json.dumps(CONFIG))
    code = (
        "import sys\n"
        "from blockscan.cli import RunConfig, main\n"
        f"{call}\n"
        "print([name for name in ('numpy.random', 'concurrent.futures') if name in sys.modules])\n"
    )
    result = _run(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
