import json
import math

import pytest

from blockscan.cli import RunConfig, main, read_table, write_approx_table
from blockscan.errors import ConfigError
from blockscan.pipeline import approximate

BASE_CONFIG = {
    "transform": "identity",
    "distribution": "bernoulli",
    "p": 0.3,
    "source_cols": 12,
    "source_rows": 12,
    "m1": 3,
    "m2": 3,
    "thresholds": [6, 7, 8],
    "iterations": 2000,
    "replicas": 2000,
    "seed": 11,
}


def _write_config(tmp_path, name="config.json", **updates):
    data = dict(BASE_CONFIG)
    for key, value in updates.items():
        if value is None:
            data.pop(key, None)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# --- configuration parsing --------------------------------------------------


def test_valid_config_parses():
    config = RunConfig.from_mapping(BASE_CONFIG)
    spec = config.build_spec()
    assert spec.scan.m1 == 3 and spec.thresholds == (6.0, 7.0, 8.0)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, "window": 3})
    assert err.value.key == "window"


def test_missing_required_key_is_named():
    data = dict(BASE_CONFIG)
    del data["m1"]
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping(data)
    assert err.value.key == "m1"


def test_wrong_type_is_named():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, "iterations": "many"})
    assert err.value.key == "iterations"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, "m1": 3.5})
    assert err.value.key == "m1"


def test_integer_model_requires_integer_thresholds():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, "thresholds": [6.5]})
    assert err.value.key == "thresholds"


def test_gaussian_model_accepts_fractional_thresholds():
    data = {
        "transform": "ma",
        "ma_coeffs": [0.3, 0.1, 0.5],
        "distribution": "gaussian",
        "mean": 0.0,
        "variance": 1.0,
        "source_cols": 66,
        "source_rows": 1,
        "m1": 20,
        "m2": 1,
        "thresholds": [10.5, 14.0],
    }
    config = RunConfig.from_mapping(data)
    assert config.build_spec().one_dimensional


def test_ma_requires_coefficients():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, "transform": "ma"})
    assert err.value.key == "ma_coeffs"


def test_overrides_take_precedence():
    config = RunConfig.from_mapping(BASE_CONFIG, overrides={"seed": 99, "iterations": None})
    assert config.seed == 99 and config.iterations == 2000


def test_threads_env_fallback(monkeypatch):
    config = RunConfig.from_mapping(BASE_CONFIG)
    monkeypatch.delenv("BLOCKSCAN_THREADS", raising=False)
    assert config.resolved_threads() == 1
    monkeypatch.setenv("BLOCKSCAN_THREADS", "6")
    assert config.resolved_threads() == 6
    explicit = RunConfig.from_mapping({**BASE_CONFIG, "threads": 2})
    assert explicit.resolved_threads() == 2


def test_bad_threads_are_config_errors(monkeypatch):
    monkeypatch.delenv("BLOCKSCAN_THREADS", raising=False)
    for bad in ({"threads": 0}, {"threads": -3}):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_mapping(BASE_CONFIG, overrides=bad)
        assert err.value.key == "threads"
    config = RunConfig.from_mapping(BASE_CONFIG)
    for env in ("abc", "1.5", "0", "-2"):
        monkeypatch.setenv("BLOCKSCAN_THREADS", env)
        with pytest.raises(ConfigError) as err:
            config.resolved_threads()
        assert err.value.key == "threads"
        with pytest.raises(ConfigError):
            RunConfig.from_mapping(BASE_CONFIG)


def test_bad_threads_exit_with_code_2(tmp_path, monkeypatch, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "approx.tsv"
    monkeypatch.delenv("BLOCKSCAN_THREADS", raising=False)
    assert main(["approximate", "-c", path, "-o", str(out), "--threads", "-3"]) == 2
    assert not out.exists()
    monkeypatch.setenv("BLOCKSCAN_THREADS", "abc")
    assert main(["validate-config", "-c", path]) == 2
    assert capsys.readouterr().err.count("'threads'") == 2


def test_distribution_parameters_are_checked(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({k: v for k, v in BASE_CONFIG.items() if k != "p"})
    assert err.value.key == "distribution" and "bernoulli p" in str(err.value)
    path = _write_config(tmp_path, p=None)
    assert main(["validate-config", "-c", path]) == 2
    assert "bernoulli p" in capsys.readouterr().err


MA_CONFIG = {
    **BASE_CONFIG,
    "transform": "ma",
    "ma_coeffs": [0.3, 0.1, 0.5],
    "distribution": "gaussian",
    "p": None,
    "mean": 0.0,
    "variance": 1.0,
    "source_cols": 66,
    "source_rows": 1,
    "m1": 20,
    "m2": 1,
    "thresholds": [13, 15],
}
MINESWEEPER_CONFIG = {**BASE_CONFIG, "transform": "minesweeper", "thresholds": [31]}


@pytest.mark.parametrize(
    "base, updates, key",
    [
        (BASE_CONFIG, {"thresholds": ["a"]}, "thresholds"),
        (BASE_CONFIG, {"thresholds": [True]}, "thresholds"),
        (BASE_CONFIG, {"thresholds": [10**400]}, "thresholds"),
        (MA_CONFIG, {"ma_coeffs": ["x", 1]}, "ma_coeffs"),
        (MINESWEEPER_CONFIG, {"thresholds": [math.inf]}, "<file>"),
        (MA_CONFIG, {"thresholds": [math.nan, 13]}, "<file>"),
        (MA_CONFIG, {"mean": math.nan}, "<file>"),
    ],
    ids=["str-threshold", "bool-threshold", "huge-threshold", "str-coeff", "infinity",
         "nan-threshold", "nan-mean"],
)
@pytest.mark.parametrize("command", ["validate-config", "approximate"])
def test_bad_numbers_exit_with_code_2(tmp_path, capsys, command, base, updates, key):
    path = tmp_path / "config.json"
    data = {k: v for k, v in {**base, **updates}.items() if v is not None}
    path.write_text(json.dumps(data))  # writes NaN and Infinity literals
    out = tmp_path / "out.tsv"
    argv = [command, "-c", str(path)] + (["-o", str(out)] if command == "approximate" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["p", "confidence_z", "thresholds"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_name_their_key(key, bad):
    value = [bad] if key == "thresholds" else bad
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, key: value})
    assert err.value.key == key


@pytest.mark.parametrize(
    "updates",
    [
        {"l_mode": "bogus"},
        {"confidence_z": 0},
        {"confidence_z": -1.96},
        {"replicas": 0, "include_sim": True},
    ],
    ids=["l_mode", "zero-z", "negative-z", "zero-replicas"],
)
def test_validate_config_rejects_what_the_run_would(tmp_path, capsys, updates):
    path = _write_config(tmp_path, **updates)
    assert main(["validate-config", "-c", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(updates)) in err


# --- subcommands ------------------------------------------------------------


def test_validate_config_subcommand(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["validate-config", "-c", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_config_reports_errors(tmp_path, capsys):
    path = _write_config(tmp_path, thresholds=[6.5])
    assert main(["validate-config", "-c", path]) == 2
    assert "thresholds" in capsys.readouterr().err
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["validate-config", "-c", str(bad_json)]) == 2


@pytest.mark.parametrize("flag", ["-c", "--approx", "--sim"])
def test_missing_input_file_exits_with_code_2(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing.json")
    approx = str(tmp_path / "approx.tsv")
    plot = str(tmp_path / "plot.tsv")
    main(["approximate", "-c", _write_config(tmp_path), "-o", approx])
    argv = {
        "-c": ["simulate", "-c", missing, "-o", str(tmp_path / "sim.tsv")],
        "--approx": ["plotdata", "--approx", missing, "-o", plot],
        "--sim": ["plotdata", "--approx", approx, "--sim", missing, "-o", plot],
    }[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.json" in err


def test_approximate_round_trip(tmp_path):
    config_path = _write_config(tmp_path)
    out = tmp_path / "approx.tsv"
    assert main(["approximate", "-c", config_path, "-o", str(out)]) == 0
    metadata, columns, rows = read_table(str(out))
    assert columns == ["n", "sim", "approx", "e_app", "e_sf", "e_sapp", "e_total", "valid"]
    assert [row["n"] for row in rows] == [6.0, 7.0, 8.0]
    for row in rows:
        assert 0.0 <= row["approx"] <= 1.0
        if row["valid"]:
            assert row["e_total"] == pytest.approx(
                row["e_app"] + row["e_sf"] + row["e_sapp"], abs=1e-6
            )
    assert any(line.startswith("# seed = 11") for line in metadata)


def test_simulate_subcommand(tmp_path):
    config_path = _write_config(tmp_path)
    out = tmp_path / "sim.tsv"
    assert main(["simulate", "-c", config_path, "-o", str(out)]) == 0
    _, columns, rows = read_table(str(out))
    assert columns == ["n", "sim", "half_width"]
    probs = [row["sim"] for row in rows]
    assert probs == sorted(probs)  # CDF is monotone in the threshold


def test_simulate_rejects_bad_replicas(tmp_path, capsys):
    config_path = _write_config(tmp_path, replicas=0)
    assert main(["simulate", "-c", config_path, "-o", str(tmp_path / "x.tsv")]) == 2
    assert "replicas" in capsys.readouterr().err


def test_empty_thresholds_yield_empty_table(tmp_path):
    config_path = _write_config(tmp_path, thresholds=[])
    out = tmp_path / "empty.tsv"
    assert main(["approximate", "-c", config_path, "-o", str(out)]) == 0
    _, _, rows = read_table(str(out))
    assert rows == []


def test_degenerate_distribution_via_cli(tmp_path):
    config_path = _write_config(tmp_path, p=0.0, thresholds=[0])
    out = tmp_path / "sim0.tsv"
    assert main(["simulate", "-c", config_path, "-o", str(out)]) == 0
    _, _, rows = read_table(str(out))
    assert rows[0]["sim"] == 1.0 and rows[0]["half_width"] == 0.0


def test_seed_override_changes_simulation(tmp_path):
    config_path = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    main(["simulate", "-c", config_path, "-o", str(out_a)])
    main(["simulate", "-c", config_path, "-o", str(out_b), "--seed", "12"])
    rows_a = read_table(str(out_a))[2]
    rows_b = read_table(str(out_b))[2]
    assert [r["sim"] for r in rows_a] != [r["sim"] for r in rows_b]


def test_written_tables_identical_across_thread_counts(tmp_path):
    config = RunConfig.from_mapping(BASE_CONFIG)
    rows_by_threads = {}
    for threads in (1, 4):
        spec = RunConfig.from_mapping({**BASE_CONFIG, "threads": threads}).build_spec()
        path = tmp_path / f"t{threads}.tsv"
        write_approx_table(str(path), approximate(spec), config)
        rows_by_threads[threads] = path.read_bytes()
    assert rows_by_threads[1] == rows_by_threads[4]


def test_plotdata_pairs_series(tmp_path):
    config_path = _write_config(tmp_path)
    approx_out = tmp_path / "approx.tsv"
    sim_out = tmp_path / "sim.tsv"
    plot_out = tmp_path / "plot.tsv"
    main(["approximate", "-c", config_path, "-o", str(approx_out)])
    main(["simulate", "-c", config_path, "-o", str(sim_out)])
    assert main(["plotdata", "--approx", str(approx_out), "--sim", str(sim_out),
                 "-o", str(plot_out)]) == 0
    _, columns, rows = read_table(str(plot_out))
    assert columns == ["n", "sim", "approx", "lower", "upper"]
    for row in rows:
        if not math.isnan(row["lower"]):
            assert row["lower"] <= row["approx"] <= row["upper"]
            assert 0.0 <= row["lower"] and row["upper"] <= 1.0
        assert row["sim"] is not None


def test_plotdata_without_simulation(tmp_path):
    config_path = _write_config(tmp_path)
    approx_out = tmp_path / "approx.tsv"
    plot_out = tmp_path / "plot.tsv"
    main(["approximate", "-c", config_path, "-o", str(approx_out)])
    assert main(["plotdata", "--approx", str(approx_out), "-o", str(plot_out)]) == 0
    _, _, rows = read_table(str(plot_out))
    assert all(row["sim"] is None for row in rows)


def test_plotdata_threshold_mismatch_fails(tmp_path, capsys):
    approx_out = tmp_path / "approx.tsv"
    sim_out = tmp_path / "sim.tsv"
    main(["approximate", "-c", _write_config(tmp_path), "-o", str(approx_out)])
    main(["simulate", "-c", _write_config(tmp_path, name="other.json", thresholds=[6, 7]),
          "-o", str(sim_out)])
    code = main(["plotdata", "--approx", str(approx_out), "--sim", str(sim_out),
                 "-o", str(tmp_path / "plot.tsv")])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err
