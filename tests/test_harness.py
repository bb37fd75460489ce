"""CLI front end: argument handling, output files, sweeps, exit codes."""

import argparse
import csv

import numpy as np
import pytest

from fct.driver import FctConfig
from fct.errors import ConfigError
from fct.harness import (
    DEFAULTS,
    SWEEPABLE,
    _load_config_file,
    _merge_options,
    _parser,
    build_config,
    main,
    parse_segments,
    run_sweep,
)

METRICS_HEADER = ("window_end,windowed_acc,overall_acc,forest_bytes,"
                  "repo_bytes,winner_source,winner_id")


def run_cli(*args):
    return main(list(args))


def small_run_args(out, **overrides):
    opts = {"segments": "2x400x2", "delay": "50", "window": "200",
            "bits-per-attr": "2", "seed": "3", "noise": "0.05"}
    opts.update(overrides)
    argv = ["run", "--out", str(out)]
    for k, v in opts.items():
        argv += [f"--{k}", v]
    return argv


def test_parse_segments():
    assert parse_segments("4x5000x25") == (4, 5000, 25)
    assert parse_segments("2X10X1") == (2, 10, 1)
    for bad in ("4x5000", "x", "axbxc", "0x10x1", "4x-1x2"):
        with pytest.raises(ConfigError):
            parse_segments(bad)


def test_run_writes_all_output_files(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli(*small_run_args(out)) == 0
    for name in ("metrics.csv", "drifts.csv", "plotdata.csv", "summary.txt"):
        assert (out / name).exists()
    assert (out / "repository" / "index.csv").exists()
    assert "accuracy=" in capsys.readouterr().out

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 1600 // 200
    first = lines[1].split(",")
    assert first[0] == "200"
    assert 0.0 <= float(first[1]) <= 1.0
    assert first[5] in ("forest", "repository")

    summary = (out / "summary.txt").read_text()
    assert "total_instances=1600" in summary
    assert "scored_instances=1550" in summary
    assert "node_bytes=48" in summary
    assert "final_winner=" in summary


def test_drift_file_flags_are_binary(tmp_path):
    out = tmp_path / "r"
    assert run_cli(*small_run_args(out)) == 0
    with open(out / "drifts.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["true_boundary"] in ("0", "1") for r in rows)


def test_cbdt_run_exports_an_empty_repository(tmp_path):
    # an fct run into the same directory first leaves a stored spectrum
    out = tmp_path / "r"
    assert run_cli(*small_run_args(out)) == 0
    assert list((out / "repository").glob("spectrum_*.txt"))
    assert run_cli(*small_run_args(out, mode="cbdt")) == 0
    index = (out / "repository" / "index.csv").read_text().splitlines()
    assert len(index) == 1  # header only
    assert not list((out / "repository").glob("spectrum_*.txt"))


def test_same_seed_reproduces_metrics_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*small_run_args(a)) == 0
    assert run_cli(*small_run_args(b)) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_file_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        fh.write("a,b,class\n")
        for _ in range(300):
            x, y = rng.uniform(0, 1, size=2)
            fh.write(f"{x:.4f},{y:.4f},{'p' if x > 0.5 else 'q'}\n")
    out = tmp_path / "r"
    code = run_cli("run", "--dataset", "file", "--file", str(path),
                   "--delay", "20", "--window", "100", "--out", str(out))
    assert code == 0
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("rows,message", [
    (b"3,4,y\n5,6,\xff\n", "line 4: not UTF-8 text"),
    (b"3,4,y\n5," + b"6" * 140_000 + b",y\n",
     "line 4: field larger than field limit"),
    # the quoted row spans lines 3 and 4, so the bad row is on line 5
    (b'1,2,"x\nx"\n5,oops,y\n',
     "line 5: could not convert string to float: 'oops'"),
], ids=["undecodable-byte", "oversized-field", "quoted-line-break"])
def test_bad_file_rows_exit_1_with_their_line(tmp_path, capsys, rows, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b,label\n1,2,x\n" + rows)
    assert run_cli("run", "--dataset", "file", "--file", str(path),
                   "--out", str(tmp_path / "r")) == 1
    assert message in capsys.readouterr().err


def test_invalid_values_exit_2(tmp_path, capsys):
    out = str(tmp_path / "r")
    for noise in ("1.5", "nan"):
        assert run_cli(*small_run_args(out, noise=noise)) == 2
        # the option check names the key, before the stream is built
        assert "error: noise: " in capsys.readouterr().err
    assert run_cli(*small_run_args(out, segments="9x100x1")) == 2
    assert run_cli(*small_run_args(out, energy="0")) == 2
    assert run_cli(*small_run_args(out, window="0")) == 2
    assert run_cli(*small_run_args(out, seed="-1")) == 2
    # wider codes cannot add a threshold over 1000 calibration rows
    assert run_cli(*small_run_args(out, **{"bits-per-attr": "17"})) == 2
    assert "error: bits_per_attr: " in capsys.readouterr().err
    assert run_cli("run", "--dataset", "file", "--out", out) == 2
    assert run_cli("run", "--dataset", "file", "--file",
                   str(tmp_path / "nope.csv"), "--out", out) == 2


def test_unknown_dataset_rejected_by_the_parser(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("run", "--dataset", "bogus", "--out", str(tmp_path))


def test_unknown_mode_rejected_by_the_parser_and_the_config_file(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("run", "--mode", "bogus", "--out", str(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nmode = bogus\n")
    with pytest.raises(ConfigError) as info:
        _load_config_file(str(cfg))
    assert str(info.value).startswith(f"{cfg} line 2: mode: ")


def test_default_options_build_the_default_driver_config():
    assert build_config(DEFAULTS) == FctConfig()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# smoke settings\n"
        "noise = 0.0\n"
        "segments = 2x300x2\n"
        "bits-per-attr = 2\n"
        "\n")
    ns = argparse.Namespace(config=str(cfg), noise=0.25)
    opts = _merge_options(ns)
    assert opts["segments"] == "2x300x2"   # from the file
    assert opts["bits_per_attr"] == 2      # dashed key normalized
    assert opts["noise"] == 0.25           # command line wins
    assert opts["mode"] == "fct"           # untouched default


def test_config_file_errors(tmp_path, capsys):
    # each error names the file and the 1-based line, after comments and
    # blank lines, and keeps the key it is about
    for name, text, key, lineno in (
            ("a.cfg", "seed = 3\nfrobnicate = 1\n", "frobnicate", 2),
            ("b.cfg", "# comment\n\ndelay = soon\n", "delay", 3),
            ("c.cfg", "delay\n", "delay", 1)):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            _load_config_file(str(path))
        assert info.value.key == key
        assert str(info.value).startswith(f"{path} line {lineno}: {key}: ")
    bad_value = tmp_path / "b.cfg"
    assert run_cli("run", "--config", str(bad_value),
                   "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error: {bad_value} line 3: delay: cannot parse 'soon'\n")


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_every_option_is_a_flag_and_a_config_key(tmp_path, key):
    # each key parses the same way as --key on both commands and as a
    # config-file key, so a full option set can be passed either way
    text = "data.csv" if DEFAULTS[key] is None else str(DEFAULTS[key])
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {text}\n")
    from_file = _load_config_file(str(cfg))[key]
    assert DEFAULTS[key] is None or from_file == DEFAULTS[key]
    flag = "--" + key.replace("_", "-")
    for argv in (["run", flag, text],
                 ["sweep", flag, text, "--parameter", "seed", "--values", "1"]):
        value = getattr(_parser().parse_args(argv), key)
        assert type(value) is type(from_file) and value == from_file
    assert set(SWEEPABLE) <= DEFAULTS.keys()


def test_config_file_drives_a_run(tmp_path):
    out = tmp_path / "r"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("segments = 2x300x1\ndelay = 30\nwindow = 150\n"
                   f"out = {out}\nbits-per-attr = 2\n")
    assert run_cli("run", "--config", str(cfg)) == 0
    assert (out / "metrics.csv").exists()


def test_sweep_writes_summary_and_per_value_runs(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--parameter", "energy", "--values", "0.4,0.95",
                   *small_run_args(out)[1:])
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["energy"] for r in rows] == ["0.4", "0.95"]
    for r in rows:
        assert 0.0 <= float(r["overall_acc"]) <= 1.0
    assert (out / "energy=0.4" / "metrics.csv").exists()
    assert (out / "energy=0.95" / "metrics.csv").exists()


def test_sweep_checks_every_value_before_the_first_run(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--parameter", "energy", "--values", "0.4,0",
                   *small_run_args(out)[1:])
    assert code == 2
    assert not (out / "energy=0.4").exists()
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_nan_noise_before_the_first_run(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--parameter", "noise", "--values", "0.1,nan",
                   *small_run_args(out)[1:])
    assert code == 2
    assert not out.exists()


def test_sweep_rejects_a_negative_seed_before_the_first_run(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--parameter", "seed", "--values", "1,-1",
                   *small_run_args(out)[1:])
    assert code == 2
    assert not (out / "seed=1").exists()


def test_sweep_rejects_too_many_bits_before_the_first_run(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--parameter", "bits_per_attr", "--values", "3,17",
                   *small_run_args(out)[1:])
    assert code == 2
    assert not out.exists()


def test_a_run_that_scores_nothing_reports_nan_accuracy(tmp_path, capsys):
    # every label would arrive after the stream ends
    args = small_run_args(tmp_path / "r", segments="1x10x1", delay="100")
    assert run_cli(*args) == 0
    assert "accuracy=nan " in capsys.readouterr().out
    summary = (tmp_path / "r" / "summary.txt").read_text().splitlines()
    assert "scored_instances=0" in summary
    assert "overall_accuracy=nan" in summary
    # a window without labels has no accuracy either
    rows = (tmp_path / "r" / "metrics.csv").read_text().splitlines()
    assert rows[1].startswith("10,nan,nan,")

    out = tmp_path / "sweep"
    assert run_cli("sweep", "--parameter", "seed", "--values", "1",
                   *small_run_args(out, segments="1x10x1", delay="100")[1:]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["overall_acc"] == "nan"
    assert row["scored_instances"] == "0"


def test_sweep_rejects_unknown_parameter(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep({"out": str(tmp_path)}, "threads", "1,2")
    with pytest.raises(ConfigError):
        run_sweep({"out": str(tmp_path)}, "energy", " , ")
    assert run_cli("sweep", "--parameter", "threads", "--values", "1",
                   *small_run_args(tmp_path / "s")[1:]) == 2


def test_sweep_value_parse_failure_exits_2(tmp_path):
    assert run_cli("sweep", "--parameter", "delay", "--values", "10,slow",
                   *small_run_args(tmp_path / "s")[1:]) == 2
