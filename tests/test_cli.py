import dataclasses
import hashlib
import inspect
import json
import math
import struct
import sys

import numpy as np
import pytest

from blockscan.cli import RunConfig, main, read_table, write_approx_table
from blockscan.errors import AlignmentError, ConfigError
from blockscan.pipeline import (
    EstimateRecord,
    ExperimentSpec,
    approximate,
    estimate_quv,
    one_step_approximation,
    simulate_distribution,
    two_step_approximation,
)

from oracles import brute_scan_statistic

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
    assert spec.m1 == 3 and spec.thresholds == (6.0, 7.0, 8.0)
    assert config.build_spec() is spec
    # null sets nothing: an unset threads reaches the pipeline as None, one worker
    assert config.threads is None
    assert RunConfig.from_mapping({**BASE_CONFIG, "threads": None}).threads is None
    assert RunConfig.from_mapping({**BASE_CONFIG, "threads": 2}).threads == 2


def test_unset_keys_take_the_librarys_defaults():
    """A config of the keys its model needs builds the library's default spec and replicas."""
    config = RunConfig.from_mapping({
        "transform": "identity", "distribution": "bernoulli", "p": 0.3,
        "source_cols": 12, "source_rows": 1, "m1": 3, "thresholds": [1, 2],
    })
    spec = config.build_spec()
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(ExperimentSpec)
        if f.default is not dataclasses.MISSING
    }
    assert set(defaults) == {"iterations", "confidence_z", "seed"}
    assert {name: getattr(spec, name) for name in defaults} == defaults
    replicas = inspect.signature(simulate_distribution).parameters["replicas"].default
    assert config.replicas == replicas


def test_unknown_key_is_named():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, "window": 3})
    assert err.value.key == "window"


def test_a_retired_l_mode_exits_with_code_2(tmp_path, capsys):
    # Theorem 1's l is fixed; an old config or flag that chooses it fails loudly
    out = str(tmp_path / "approx.tsv")
    assert main(["approximate", "-c", _write_config(tmp_path, l_mode="boundary"), "-o", out]) == 2
    assert "'l_mode': unknown key" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        main(["approximate", "-c", _write_config(tmp_path, name="ok.json"), "-o", out,
              "--l-mode", "optimize"])
    assert exit_.value.code == 2


def test_missing_required_key_is_named():
    data = dict(BASE_CONFIG)
    del data["m1"]
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping(data)
    assert err.value.key == "m1"


def test_wrong_type_is_named():
    for key, value in (("iterations", "many"), ("m1", 3.5), ("iterations", 1e5)):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_mapping({**BASE_CONFIG, key: value})
        assert err.value.key == key


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


def test_bad_threads_are_config_errors():
    for bad in ({"threads": 0}, {"threads": -3}):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_mapping(BASE_CONFIG, overrides=bad)
        assert err.value.key == "threads"


def test_bad_threads_exit_with_code_2(tmp_path, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "approx.tsv"
    assert main(["approximate", "-c", path, "-o", str(out), "--threads", "-3"]) == 2
    assert not out.exists()
    assert main(["validate-config", "-c", _write_config(tmp_path, "zero.json", threads=0)]) == 2
    assert capsys.readouterr().err.count("'threads'") == 2


def test_distribution_parameters_are_checked(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({k: v for k, v in BASE_CONFIG.items() if k != "p"})
    assert err.value.key == "p" and "bernoulli p" in str(err.value)
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
BINOMIAL_CONFIG = {**BASE_CONFIG, "distribution": "binomial", "trials": 3}


def _base_using(key):
    """A config whose model uses ``key``."""
    if key in ("ma_coeffs", "mean", "variance"):
        return MA_CONFIG
    return BINOMIAL_CONFIG if key == "trials" else BASE_CONFIG


def _wrong_types():
    """Each config key given a string, a bool, null and a list or object."""
    cases = []
    for key in (f.name for f in dataclasses.fields(RunConfig)):
        container = {"a": 1} if key in ("thresholds", "ma_coeffs") else [1]
        for kind, value in (("str", "x"), ("bool", True), ("null", None), ("container", container)):
            if (key, kind) != ("threads", "null"):  # null is the unset threads: 1
                cases.append(pytest.param(_base_using(key), {key: value}, key, id=f"{key}-{kind}"))
    return cases


@pytest.mark.parametrize(
    "base, updates, key",
    [
        pytest.param(BASE_CONFIG, {"thresholds": ["a"]}, "thresholds", id="str-threshold"),
        pytest.param(BASE_CONFIG, {"thresholds": [True]}, "thresholds", id="bool-threshold"),
        pytest.param(BASE_CONFIG, {"thresholds": [10**400]}, "thresholds", id="huge-threshold"),
        pytest.param(MA_CONFIG, {"ma_coeffs": ["x", 1]}, "ma_coeffs", id="str-coeff"),
        pytest.param(MINESWEEPER_CONFIG, {"thresholds": [math.inf]}, "<file>", id="infinity"),
        pytest.param(MA_CONFIG, {"thresholds": [math.nan, 13]}, "<file>", id="nan-threshold"),
        pytest.param(MA_CONFIG, {"mean": math.nan}, "<file>", id="nan-mean"),
        # an integer key takes a JSON integer only
        pytest.param(BASE_CONFIG, {"iterations": 1e5}, "iterations", id="float-iterations"),
        pytest.param(BINOMIAL_CONFIG, {"trials": 2.5}, "trials", id="fraction-trials"),
        # a distribution parameter the kind does not take is rejected, though a
        # table's header would record it, as ma_coeffs is on any transform but ma
        pytest.param(BASE_CONFIG, {"mean": "0"}, "mean", id="unused-mean"),
        pytest.param(BASE_CONFIG, {"mean": 3.0}, "mean", id="stray-mean"),
        pytest.param(BASE_CONFIG, {"trials": 7}, "trials", id="stray-trials"),
        pytest.param(BASE_CONFIG, {"ma_coeffs": [0.3]}, "ma_coeffs", id="unused-coeffs"),
        *_wrong_types(),
    ],
)
@pytest.mark.parametrize("command", ["validate-config", "approximate"])
def test_bad_numbers_exit_with_code_2(tmp_path, capsys, command, base, updates, key):
    path = tmp_path / "config.json"
    data = {**{k: v for k, v in base.items() if v is not None}, **updates}
    path.write_text(json.dumps(data))  # writes NaN and Infinity literals
    out = tmp_path / "out.tsv"
    argv = [command, "-c", str(path)] + (["-o", str(out)] if command == "approximate" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{key}': ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["p", "confidence_z", "thresholds", "mean", "variance", "ma_coeffs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_name_their_key(key, bad):
    value = [0.3, bad] if key in ("thresholds", "ma_coeffs") else bad
    data = {k: v for k, v in {**_base_using(key), key: value}.items() if v is not None}
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping(data)
    assert err.value.key == key


@pytest.mark.parametrize(
    "updates",
    [
        {"l_mode": "boundary"},
        {"confidence_z": 0},
        {"confidence_z": -1.96},
        {"replicas": 0},
    ],
    ids=["l_mode", "zero-z", "negative-z", "zero-replicas"],
)
def test_validate_config_rejects_what_the_run_would(tmp_path, capsys, updates):
    path = _write_config(tmp_path, **updates)
    assert main(["validate-config", "-c", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(updates)) in err


@pytest.mark.parametrize(
    "updates, key",
    [
        ({"l_mode": "boundary"}, "l_mode"),
        ({"confidence_z": 0}, "confidence_z"),
        ({"m1": 60}, "m1"),
        ({"transform": "minesweeper", "source_cols": 8}, "source_cols"),
        ({"source_rows": 5}, "source_rows"),
        ({"m2": 0}, "m2"),
        ({"iterations": 0}, "iterations"),
        ({"transform": "nope"}, "transform"),
        ({"transform": "ma", "ma_coeffs": [0.0, 0.0]}, "ma_coeffs"),
        ({"p": 1.5}, "p"),
        ({"distribution": "binomial", "trials": 0}, "trials"),
        # BASE_CONFIG's p is unset: neither kind takes it
        ({"distribution": "poisson", "p": None, "mean": -1.0}, "mean"),
        ({"distribution": "gaussian", "p": None, "mean": 0.0, "variance": 0.0}, "variance"),
        # a transform window wider or taller than the source, named before m1 and m2 fit
        ({"transform": "minesweeper", "source_cols": 2}, "source_cols"),
        ({"transform": "minesweeper", "source_rows": 2}, "source_rows"),
        ({"transform": "ma", "ma_coeffs": [0.3, 0.1, 0.5], "source_cols": 2, "source_rows": 1,
          "m2": 1}, "source_cols"),
        # plotdata pairs the rows of two tables by threshold
        ({"thresholds": [6, 6, 8]}, "thresholds"),
        # a 2-D transform under a one-row window, and a row scan whose block is empty
        ({"transform": "minesweeper", "m2": 1}, "m2"),
        ({"source_rows": 1, "m2": 1, "m1": 1}, "m1"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_spec_rejections_name_their_config_key(tmp_path, capsys, updates, key):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_mapping({**BASE_CONFIG, **updates})
    assert err.value.key == key
    path = _write_config(tmp_path, **updates)
    assert main(["validate-config", "-c", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")


_UNRUNNABLE = {
    # a row scan samples one row, so 20 rows would be answered for one
    "row-scan-over-rows": (
        {"p": 0.2, "source_cols": 30, "source_rows": 20, "m2": 1, "thresholds": [2]},
        "source_rows",
    ),
    "poisson-mean-past-numpy": (
        {"distribution": "poisson", "p": None, "mean": 1e20}, "mean"
    ),
    "binomial-trials-past-int64": (
        {"distribution": "binomial", "trials": 10**30}, "trials"
    ),
    # draws fine, but 2x2 sums of minesweeper counts would wrap int64
    "poisson-sums-past-int64": (
        {"transform": "minesweeper", "distribution": "poisson", "p": None, "mean": 1e18,
         "m1": 2, "m2": 2, "thresholds": [5]},
        "mean",
    ),
}


@pytest.mark.parametrize("name", list(_UNRUNNABLE))
def test_unrunnable_configs_exit_2_with_one_error_line(tmp_path, capsys, name):
    updates, key = _UNRUNNABLE[name]
    path = _write_config(tmp_path, **updates)
    out = str(tmp_path / "out.tsv")
    for argv in (
        ["validate-config", "-c", path],
        ["approximate", "-c", path, "-o", out],
        ["simulate", "-c", path, "-o", out],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}': ") and err.count("\n") == 1


# --- subcommands ------------------------------------------------------------


def test_validate_config_subcommand(tmp_path, capsys):
    # and a moving-average row scan over 1e8 columns at the default counts: 1e13 drawn cells
    long_ma = {**MA_CONFIG, "source_cols": 100_000_000, "iterations": None, "replicas": None}
    for updates in ({}, long_ma):
        path = _write_config(tmp_path, **updates)
        assert main(["validate-config", "-c", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"


def test_validate_config_reports_errors(tmp_path, capsys):
    path = _write_config(tmp_path, thresholds=[6.5])
    assert main(["validate-config", "-c", path]) == 2
    assert "thresholds" in capsys.readouterr().err
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["validate-config", "-c", str(bad_json)]) == 2


_UNREADABLE_CONFIGS = {
    # a UTF-16 byte-order mark
    "utf-16": b"\xff\xfe{}",
    # a Latin-1 byte inside a string
    "latin-1": json.dumps(BASE_CONFIG).replace("bernoulli", "bernoull\xed").encode("latin-1"),
    "deep-arrays": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": pytest.param(
        b'{"seed": ' + b"7" * 5000 + b"}",
        marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
        ),
    ),
    # JSON, but not an object of keys
    "array": b"[1, 2]",
    "null": b"null",
    "string": b'"run.json"',
}


@pytest.mark.parametrize(
    "content", list(_UNREADABLE_CONFIGS.values()), ids=list(_UNREADABLE_CONFIGS)
)
@pytest.mark.parametrize("command", ["validate-config", "approximate", "simulate"])
def test_an_unreadable_config_exits_with_code_2_naming_the_file(tmp_path, capsys, command, content):
    """Not UTF-8, nested past the stack, an integer past Python's digit limit or not an object."""
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    argv = [command, "-c", str(path)]
    if command != "validate-config":
        argv += ["-o", str(tmp_path / "out.tsv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key '<file>': ") and str(path) in err
    assert err.count("\n") == 1


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
    out, raw_out = tmp_path / "approx.tsv", tmp_path / "raw.tsv"
    assert main(["approximate", "-c", config_path, "-o", str(out)]) == 0
    assert main(["approximate", "-c", config_path, "-o", str(raw_out), "--raw"]) == 0
    metadata, columns, rows = read_table(str(out))
    _, raw_columns, raw_rows = read_table(str(raw_out))
    assert columns == raw_columns == [
        "n", "approx", "e_app", "e_sf", "e_sapp", "e_total", "valid"
    ]
    assert [row["n"] for row in rows] == [6.0, 7.0, 8.0]
    for row, raw in zip(rows, raw_rows, strict=True):
        assert 0.0 <= raw["approx"] <= 1.0
        if raw["valid"]:
            assert raw["e_total"] == pytest.approx(
                raw["e_app"] + raw["e_sf"] + raw["e_sapp"], rel=1e-12, abs=0.0
            )
        # the 6-decimal table prints each full-precision value rounded; repr matches nan too
        rounded = {k: None if v is None else float(f"{v:.6f}") for k, v in raw.items()}
        assert [repr(row[k]) for k in columns] == [repr(rounded[k]) for k in columns]
    assert any(row["valid"] for row in raw_rows)
    assert any(line.startswith("# seed = 11") for line in metadata)


@pytest.mark.parametrize("command", ["approximate", "simulate"])
def test_header_names_the_stream_map_and_numpy(tmp_path, command):
    out = tmp_path / "table.tsv"
    assert main([command, "-c", _write_config(tmp_path), "-o", str(out)]) == 0
    metadata, _, _ = read_table(str(out))
    assert metadata[1:3] == [
        "# rng = chunk k (from 0) of a <task> call: stream = BLAKE2b (digest_size=8) of the "
        "UTF-8 text '<task>:<k>', read little-endian; SFC64 a, b, c = BLAKE2b (digest_size=24) "
        "of seed and stream, each mod 2**64 as 8 little-endian bytes, read as 3 little-endian "
        "words, counter 1, 12 words skipped; each group of a chunk counts as R = V * P * M "
        "replicas, V the views of the chunks line, M = 2 for Gaussian cells of mean c, else 1; "
        "a chunks line of pairs= makes field i of a chunk of h pairs a group with field i + h, "
        "of P = 4 members x, y, u = c + (x + y - 2c) / sqrt 2 and v = c + (x - y) / sqrt 2, "
        "whose view j is that of the views j of x and y; one of fields= makes each field a "
        "group of P = 1 member x; replica R * i + M * (P * j + k) + m is view j of member k of "
        "group i, and its mirror 2c - x if m = 1; view 0 is "
        "the field, and cell t of view j >= 1 is cell o_j[t] of the field, cells of a field in "
        "(row, col) order, o_j the stable argsort of the first rows * cols words of the stream "
        "of the text '<task>-view:<j>' (the same hash, seed and SFC64); "
        "chunk cells in (row, col, field) order; Bernoulli cells byte < top = cut >> 45, "
        "cut = ceil(p * 2**53), over the words' little-endian bytes, then extra successes at "
        "geometric gaps; for p > 1/2 the same draw "
        "at 2**53 - cut gives the failures",
        f"# numpy = {np.__version__}",
    ]


def test_the_header_alone_redraws_the_row_notes(tmp_path):
    """The ``# rng``, ``# seed`` and ``# chunks`` lines give every ``# row`` note's tallies and estimates.

    Identity in one chunk.  Over Bernoulli(0.5), ``cut = 2**52``: a cell is
    one byte ``< 128`` and no extra successes are drawn.  Over Gaussian
    cells, NumPy's ``Generator.normal`` on the stream
    (``MarginalDistribution.sample``); the fields come in pairs, whose
    rotations ``u`` and ``v`` are built cell by cell, and each member also
    counts as its mirror ``2c - x``.  Each drawn field counts as its views,
    whose cell orders are rebuilt from their own streams, grouped as the
    ``# rng`` line states, at a request that ``R`` does not divide, which
    tallies every replica of its last group.  The streams are
    rebuilt with ``hashlib`` and NumPy's SFC64 only, the window maxima come
    from the per-site oracle, and ``sum s``, ``sum s**2``, ``q`` and ``b``
    are recomputed from them.
    """
    for marginal in ("bernoulli", "gaussian"):
        mirrored = marginal == "gaussian"
        if mirrored:
            config = _write_config(
                tmp_path, name="gaussian.json", distribution="gaussian", p=None, mean=0.2,
                variance=1.0, seed=-7, thresholds=[4, 6, 8], iterations=501,
            )
        else:
            config = _write_config(
                tmp_path, name="bernoulli.json", p=0.5, seed=-7, thresholds=[5, 6, 7],
                iterations=502,
            )
        out = tmp_path / f"{marginal}.tsv"
        assert main(["approximate", "-c", config, "-o", str(out)]) == 0
        metadata = read_table(str(out))[0]
        header = dict(line[2:].split(" = ", 1) for line in metadata if " = " in line)
        rng_map = header["rng"]
        for step in (
            "stream = BLAKE2b (digest_size=8) of the UTF-8 text '<task>:<k>', read little-endian",
            "SFC64 a, b, c = BLAKE2b (digest_size=24) of seed and stream, each mod 2**64 as "
            "8 little-endian bytes, read as 3 little-endian words, counter 1, 12 words skipped",
            "each group of a chunk counts as R = V * P * M replicas, V the views of the chunks "
            "line, M = 2 for Gaussian cells of mean c, else 1",
            "a chunks line of pairs= makes field i of a chunk of h pairs a group with field "
            "i + h, of P = 4 members x, y, u = c + (x + y - 2c) / sqrt 2 and v = c + (x - y) / "
            "sqrt 2, whose view j is that of the views j of x and y",
            "replica R * i + M * (P * j + k) + m is view j of member k of group i, and its "
            "mirror 2c - x if m = 1",
            "cell t of view j >= 1 is cell o_j[t] of the field, cells of a field in (row, col) "
            "order, o_j the stable argsort of the first rows * cols words of the stream of the "
            "text '<task>-view:<j>' (the same hash, seed and SFC64)",
            "chunk cells in (row, col, field) order",
            "Bernoulli cells byte < top = cut >> 45, cut = ceil(p * 2**53), over the words' "
            "little-endian bytes",
        ):
            assert step in rng_map
        task, layout = header["chunks"].split(": ")
        layout = dict(item.split("=") for item in layout.split())
        assert task == "quv" and layout["count"] == "1"
        assert layout["mirrored"] == ("yes" if mirrored else "no")
        assert list(layout)[0] == ("pairs" if mirrored else "fields")
        views, mirrors = int(layout["views"]), 2 if mirrored else 1
        members = 4 if mirrored else 1
        group = views * members * mirrors
        requested, groups = int(header["iterations"]), int(layout["last"])
        assert groups == -(-requested // group) and requested % group
        replicas = group * groups
        drawn = groups * (2 if mirrored else 1)
        seed, m1, m2 = int(header["seed"]), int(header["m1"]), int(header["m2"])
        z = float(header["confidence_z"])

        def stream(text):
            digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
            key = struct.pack("<QQ", seed % 2**64, int.from_bytes(digest, "little"))
            words = struct.unpack("<3Q", hashlib.blake2b(key, digest_size=24).digest())
            sfc = np.random.SFC64(0)
            sfc.state = {
                "bit_generator": "SFC64", "state": {"state": [*words, 1]},
                "has_uint32": 0, "uinteger": 0,
            }
            sfc.random_raw(12)
            return sfc

        # a block is m + c - 2 cells each way, c = 1 for identity; the Q_33 field is 3 x 3 blocks
        rows, cols = 3 * (m2 - 1), 3 * (m1 - 1)
        sfc = stream(f"{task}:0")
        if mirrored:
            mean, sd = float(header["mean"]), math.sqrt(float(header["variance"]))
            fields = np.random.Generator(sfc).normal(mean, sd, (rows, cols, drawn))
        else:
            top = math.ceil(float(header["p"]) * 2**53) >> 45
            assert top == 128
            cells = rows * cols * drawn
            raw = np.array(sfc.random_raw(-(-cells // 8)), dtype="<u8").view(np.uint8)[:cells]
            fields = (raw < top).astype(np.int64).reshape(rows, cols, drawn)
        orders = [np.arange(rows * cols)] + [
            np.argsort(stream(f"{task}-view:{j}").random_raw(rows * cols), kind="stable")
            for j in range(1, views)
        ]
        # replica R * i + M * (P * j + k) + m: view j of member k of group i,
        # its mirror if m = 1; a pair is field i and field i + groups
        sources = []
        for i in range(groups):
            for order in orders:
                x, y = (fields[:, :, f].reshape(-1)[order].reshape(rows, cols) for f in (
                    i, i + groups if mirrored else i
                ))
                if not mirrored:
                    sources.append(x)
                    continue
                for member in (
                    x, y, mean + (x - mean + y - mean) / math.sqrt(2), mean + (x - y) / math.sqrt(2)
                ):
                    sources += [member, 2 * mean - member]
        assert len(sources) == replicas

        notes = [line for line in metadata if line.startswith("# row n=")]
        assert len(notes) == 3
        for note in notes:
            n = float(note.split(":", 1)[0].split("=", 1)[1])
            items = note.split(": ", 1)[1].split()
            values = dict(item.split("=", 1) for item in items if "=" in item)
            assert (values["N"], values["R"]) == (str(replicas), str(group))
            for u, v in ((2, 2), (2, 3), (3, 2), (3, 3)):
                below = [
                    brute_scan_statistic(source[: v * (m2 - 1), : u * (m1 - 1)], m1, m2) <= n
                    for source in sources
                ]
                counts = [sum(below[g : g + group]) for g in range(0, replicas, group)]
                total, squares = sum(counts), sum(s * s for s in counts)
                assert (values[f"s{u}{v}"], values[f"ss{u}{v}"]) == (str(total), str(squares))
                q = total / replicas
                assert 0.0 < q < 1.0 and values[f"q{u}{v}"] == repr(q)
                # the spread of the groups' counts about R q, over N / R groups
                spread = max(squares / groups - (group * q) ** 2, 0.0)
                assert values[f"b{u}{v}"] == repr(z * math.sqrt(spread / (group * replicas)))


def test_row_notes_carry_the_budgets_inputs(tmp_path):
    """Each ``# row`` note gives q22..q33 and b22..b33 exactly, enough to re-derive ``e_sf``."""
    config_path, out = _write_config(tmp_path), tmp_path / "approx.tsv"
    assert main(["approximate", "-c", config_path, "-o", str(out), "--raw"]) == 0
    metadata, _, rows = read_table(str(out))
    records = estimate_quv(RunConfig.from_file(config_path).build_spec())
    notes = [line for line in metadata if line.startswith("# row n=")]
    assert len(notes) == len(records) == len(rows)
    names = ("q22", "q23", "q32", "q33", "b22", "b23", "b32", "b33")
    for note, rec, row in zip(notes, records, rows):
        values = dict(item.split("=", 1) for item in note.split(": ", 1)[1].split() if "=" in item)
        assert [float(values[name]) for name in names] == [getattr(rec, name) for name in names]
        # 12 x 12 cells in blocks of 2: L1 = L2 = 12 / 2 - 1
        assert row["e_sf"] == 5 * 5 * (rec.b22 + rec.b23 + rec.b32 + rec.b33) or not row["valid"]
    assert any(row["valid"] for row in rows)


def test_a_zero_half_width_is_noted_and_changes_no_value(tmp_path):
    config = RunConfig.from_file(_write_config(tmp_path))
    rec = EstimateRecord(
        n=5.0, q22=0.99, q23=0.985, q32=0.989, q33=0.984,
        b22=1e-4, b23=1e-4, b32=1e-4, b33=0.0, iterations=100_000,
    )
    row = two_step_approximation(rec, 10, 10)
    paths = [str(tmp_path / name) for name in ("flagged.tsv", "plain.tsv")]
    write_approx_table(paths[0], [row], config)
    write_approx_table(paths[1], [dataclasses.replace(row, beta0=False)], config)
    (flagged, _, values), (plain, _, plain_values) = (read_table(path) for path in paths)
    [note] = [line for line in flagged if line.startswith("# row n=5:")]
    assert note.endswith(" beta0") and "beta0" not in "".join(plain)
    assert values == plain_values


def test_a_clamped_row_is_noted_and_changes_no_value(tmp_path):
    config = RunConfig.from_file(_write_config(tmp_path))
    # q32 a hair above q22, within the Monte Carlo slack: clamped to q22
    rec = EstimateRecord(
        n=5.0, q22=0.99, q23=0.985, q32=0.9901, q33=0.984,
        b22=1e-4, b23=1e-4, b32=1e-4, b33=1e-4, iterations=100_000,
    )
    row = one_step_approximation(rec, 10)
    assert row.clamped
    paths = [str(tmp_path / name) for name in ("clamped.tsv", "plain.tsv")]
    write_approx_table(paths[0], [row], config)
    write_approx_table(paths[1], [dataclasses.replace(row, clamped=False)], config)
    (noted, _, values), (plain, _, plain_values) = (read_table(path) for path in paths)
    [note] = [line for line in noted if line.startswith("# row n=5:")]
    assert note.endswith(" clamped") and "clamped" not in "".join(plain)
    assert values == plain_values


def test_a_ledger_past_the_float_range_is_written_as_inf(tmp_path, capsys):
    """A half-width multiplier of 1e300 squares past the float range: the run still ends in 0."""
    config_path = _write_config(tmp_path, **{**MA_CONFIG, "confidence_z": 1e300})
    approx_out, plot_out = tmp_path / "approx.tsv", tmp_path / "plot.tsv"
    assert main(["approximate", "-c", config_path, "-o", str(approx_out), "--raw"]) == 0
    assert main(["plotdata", "--approx", str(approx_out), "-o", str(plot_out)]) == 0
    assert capsys.readouterr().err == ""
    _, _, rows = read_table(str(approx_out))
    _, _, bands = read_table(str(plot_out))
    infinite = [i for i, row in enumerate(rows) if row["e_sapp"] == math.inf]
    assert infinite
    for i in infinite:
        assert rows[i]["valid"] and rows[i]["e_total"] == math.inf
        # an infinite budget is the band [0, 1]
        assert (bands[i]["lower"], bands[i]["upper"]) == (0.0, 1.0)


def test_simulate_subcommand(tmp_path):
    config_path = _write_config(tmp_path)
    out = tmp_path / "sim.tsv"
    assert main(["simulate", "-c", config_path, "-o", str(out)]) == 0
    _, columns, rows = read_table(str(out))
    assert columns == ["n", "sim", "half_width"]
    probs = [row["sim"] for row in rows]
    assert probs == sorted(probs)  # CDF is monotone in the threshold


def test_sim_row_notes_give_each_row_exactly(tmp_path):
    """A simulate ``# row`` note's ``s``, ``ss``, ``N`` and ``R`` give ``sim`` and ``half_width``.

    A request of 2001 replicas draws 501 fields and tallies all four
    replicas of each, 2004 in all (``pipeline.group_estimate``).
    """
    config, out = _write_config(tmp_path, replicas=2001), tmp_path / "sim.tsv"
    assert main(["simulate", "-c", config, "-o", str(out), "--raw"]) == 0
    metadata, _, rows = read_table(str(out))
    notes = [line for line in metadata if line.startswith("# row n=")]
    assert len(notes) == len(rows) == 3
    for note, row in zip(notes, rows):
        head, items = note.split(": ", 1)
        assert float(head[len("# row n=") :]) == row["n"]
        values = dict(item.split("=") for item in items.split())
        assert list(values) == ["s", "ss", "N", "R"]
        sums, squares, total, group = (int(value) for value in values.values())
        assert (total, group) == (2004, 4)
        q = sums / total
        assert 0.0 < q < 1.0 and row["sim"] == q
        spread = squares / (total // group) - (group * q) ** 2
        assert spread > 0.0 and row["half_width"] == 1.96 * math.sqrt(spread / (group * total))


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
        spec = config.build_spec()
        path = tmp_path / f"t{threads}.tsv"
        write_approx_table(str(path), approximate(spec, threads=threads), config)
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


@pytest.mark.parametrize("flag", ["--approx", "--sim"])
@pytest.mark.parametrize(
    "table", ["no-columns", "wrong-columns", "non-numeric", "not-utf8", "empty-cell"]
)
def test_plotdata_rejects_a_table_it_cannot_read(tmp_path, capsys, flag, table):
    config_path = _write_config(tmp_path)
    approx_out, sim_out = tmp_path / "approx.tsv", tmp_path / "sim.tsv"
    main(["approximate", "-c", config_path, "-o", str(approx_out)])
    main(["simulate", "-c", config_path, "-o", str(sim_out)])
    good = approx_out if flag == "--approx" else sim_out
    bad = tmp_path / "bad.tsv"
    if table == "no-columns":
        bad.write_text("6\t0.5\n7\t0.6\n")
    elif table == "wrong-columns":
        # a simulate table has no approx column, an approximate table no sim column
        bad.write_bytes((sim_out if flag == "--approx" else approx_out).read_bytes())
    elif table == "not-utf8":
        # a Latin-1 byte in the header
        bad.write_bytes(good.read_bytes().replace(b"# blockscan", b"# \xe9 blockscan", 1))
    else:
        lines = good.read_text().splitlines()
        cells = lines[-1].split("\t")
        if table == "non-numeric":
            cells[2 if flag == "--approx" else 1] = "abc"
        else:
            # an empty e_total or sim cell: read_table takes it, plotdata has no band or point
            cells[5 if flag == "--approx" else 1] = ""
        bad.write_text("\n".join(lines[:-1] + ["\t".join(cells)]) + "\n")
    tables = {"--approx": str(approx_out), "--sim": str(sim_out), flag: str(bad)}
    argv = ["plotdata", "--approx", tables["--approx"], "--sim", tables["--sim"]]
    assert main(argv + ["-o", str(tmp_path / "plot.tsv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.tsv" in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["extra-cells", "short-row", "before-columns"])
def test_plotdata_names_the_line_of_a_ragged_or_headless_row(tmp_path, capsys, case):
    """A row with more or fewer cells than columns, or a row before them, is an error at its line."""
    approx_out, bad = tmp_path / "approx.tsv", tmp_path / "bad.tsv"
    main(["approximate", "-c", _write_config(tmp_path), "-o", str(approx_out)])
    lines = approx_out.read_text().splitlines()
    first = next(k for k, text in enumerate(lines) if not text.startswith("#"))
    if case == "extra-cells":
        lines[first] += "\t0.5\t0.5"
    elif case == "short-row":
        lines[first] = "\t".join(lines[first].split("\t")[:3])
    else:
        lines.insert(0, lines[first])
        first = 0
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(AlignmentError, match=f"bad.tsv line {first + 1}: "):
        read_table(str(bad))
    assert main(["plotdata", "--approx", str(bad), "-o", str(tmp_path / "plot.tsv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} line {first + 1}: ") and err.count("\n") == 1


def _chunk_header(metadata):
    """``{task: (unit, size, count, last, mirrored, views)}`` read back from the ``# chunks = ...`` line.

    ``unit`` is ``fields`` or ``pairs``, the groups that ``size`` and ``last`` count.
    """
    [line] = [line for line in metadata if line.startswith("# chunks = ")]
    layouts = {}
    for part in line[len("# chunks = ") :].split("; "):
        task, fields = part.split(": ")
        values = dict(field.split("=") for field in fields.split())
        unit = next(iter(values))
        assert unit in ("fields", "pairs")
        assert list(values) == [unit, "count", "last", "mirrored", "views"]
        layouts[task] = (
            unit,
            *(int(values[key]) for key in (unit, "count", "last")),
            {"yes": True, "no": False}[values["mirrored"]],
            int(values["views"]),
        )
    return layouts


@pytest.mark.parametrize("command", ["approximate", "simulate"])
def test_header_gives_the_chunk_layout_the_pipeline_ran(tmp_path, command, monkeypatch):
    from blockscan import pipeline

    ran, accumulate = [], pipeline._accumulate

    def recording(total, chunk, seed, task, chunk_eval, threads):
        ran.append((task, total, chunk))
        return accumulate(total, chunk, seed, task, chunk_eval, threads)

    monkeypatch.setattr(pipeline, "_accumulate", recording)
    # a drawn field counts as four views; a pair of Gaussian fields as the
    # views of its eight rotations; a Gaussian field that fills a chunk alone
    # as its views and their mirrors: the accumulator and the header count
    # the groups, fields or pairs
    gaussian = {"distribution": "gaussian", "p": None, "mean": 0.0, "variance": 1.0}

    def several(nbytes):
        # several chunks per call, the last one short: at least two groups to a chunk
        return max(1, 5000 // nbytes)

    cases = (
        ({}, several, 4, "fields"),
        (gaussian, several, 32, "pairs"),
        (gaussian, lambda nbytes: 1, 8, "fields"),
    )
    for updates, chunk_size, group, unit in cases:
        monkeypatch.setattr(pipeline, "_chunk_size", chunk_size)
        config = _write_config(tmp_path, iterations=2001, replicas=2001, **updates)
        headers = []
        for threads in (1, 2):
            ran.clear()
            out = tmp_path / f"table-t{threads}.tsv"
            assert main([command, "-c", config, "-o", str(out), "--threads", str(threads)]) == 0
            metadata, _, _ = read_table(str(out))
            assert metadata[3].startswith("# chunks = ")
            headers.append(metadata[3])
            layouts = _chunk_header(metadata)
            assert list(layouts) == [task for task, _, _ in ran]
            for task, groups, chunk in ran:
                count = -(-groups // chunk)
                assert groups == -(-2001 // group)
                # a chunk of one group is never short
                assert count > 2 and (groups % chunk if chunk_size is several else chunk == 1)
                last = groups - (count - 1) * chunk
                assert layouts[task] == (unit, chunk, count, last, updates == gaussian, 4)
                notes = [line for line in metadata if line.startswith("# row ")]
                assert notes and all(f" N={group * groups} R={group}" in n for n in notes)
        assert list(layouts) == (["quv"] if command == "approximate" else ["sim"])
        assert headers[0] == headers[1]


def test_one_spec_is_built_per_command(tmp_path, monkeypatch):
    """Validation, the run and the header's chunk layout share one spec."""
    from blockscan import cli

    built, spec_type = [], cli.ExperimentSpec

    def counting(**kwargs):
        built.append(spec_type(**kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "ExperimentSpec", counting)
    config = _write_config(tmp_path)
    assert main(["approximate", "-c", config, "-o", str(tmp_path / "approx.tsv")]) == 0
    assert len(built) == 1


def test_a_lattice_past_the_float_range_of_the_approximant_runs(tmp_path):
    """At L1 of about 4.76M the approximant's denominator passes the float range: H is 0."""
    config = _write_config(tmp_path, **{**MA_CONFIG, "source_cols": 100_000_000})
    out = tmp_path / "approx.tsv"
    assert main(["approximate", "-c", config, "-o", str(out), "--iterations", "20000"]) == 0
    rows = read_table(str(out))[2]
    assert [row["n"] for row in rows] == [13.0, 15.0]
    assert all(row["approx"] == 0.0 for row in rows)
    assert "\t0.000000\t" in out.read_text()
