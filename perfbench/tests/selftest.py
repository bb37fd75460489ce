"""Self-test of the benchmark at a tiny stream length.

Run from the repository root: python3 -m pytest -q perfbench/tests/selftest.py

The file name is outside pytest's ``test_*.py`` pattern, so a bare ``pytest``
run of the repository does not collect it; it is run by naming it.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(BENCH / "reference")]

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from fct import harness  # noqa: E402

TINY = "4x500x1"  # 2000 instances; rbf-churn drifts and stores spectra within it
ARGS = ["--workload", "rbf-churn", "--seed", "3", "--seconds", "1"]


@pytest.fixture
def tiny_rbf_churn(monkeypatch):
    """rbf-churn shortened to TINY, one stream per run."""
    w = bench.WORKLOADS["rbf-churn"]
    monkeypatch.setitem(bench.WORKLOADS, "rbf-churn", dataclasses.replace(
        w, options=dict(w.options, segments=TINY), pass_seconds=1.0))


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code(declared):
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == \
        bench.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(declared, tiny_rbf_churn, capsys, trace):
    code = bench.main(ARGS + ["--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = dict(wanted) if trace else dict(wanted, **dict(bench.REPORT_ONLY))
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1]), name
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    assert report["seed"] == 3 and report["options"]["segments"] == TINY
    assert report["machine"]["nproc"] >= 1 and report["src_sha256"]
    assert report["failed_share"] == 0.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), *ARGS, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert time.monotonic() - started < 180


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One pass through ``harness.run_once`` whose outputs the gate inspects."""
    out = tmp_path_factory.mktemp("tiny") / "run"
    opts = dict(bench.workload_options("rbf-churn", 3000), segments=TINY, out=str(out))
    report = harness.run_once(opts)
    assert len(report.state.repository) >= 1, "no spectra stored: the round-trip check would be vacuous"
    return out, report, opts["delay"], bench.expected_total(opts)


def corrupted_copy(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_gate_holds_on_intact_outputs(tiny_run):
    out, report, delay, total = tiny_run
    assert checks.check_pass(out, report, delay, total) == \
        {"scored": None, "accuracy": None, "spectra": None}
    assert checks.check_identical(out, out) is None


def test_gate_trips_on_wrong_scored_count(tiny_run, tmp_path):
    out, report, delay, total = tiny_run
    bad = corrupted_copy(out, tmp_path / "bad", "summary.txt",
                         lambda t: t.replace(f"scored_instances={report.scored_instances}",
                                             f"scored_instances={report.scored_instances + 1}"))
    assert checks.check_pass(bad, report, delay, total)["scored"] is not None


def test_gate_trips_on_accuracy_out_of_range(tiny_run, tmp_path):
    out, report, delay, total = tiny_run

    def edit(text):
        lines = text.splitlines(keepends=True)
        cols = lines[1].split(",")
        cols[1] = "1.500000"
        lines[1] = ",".join(cols)
        return "".join(lines)

    bad = corrupted_copy(out, tmp_path / "bad", "metrics.csv", edit)
    assert checks.check_pass(bad, report, delay, total)["accuracy"] is not None


def test_gate_trips_on_corrupted_spectrum(tiny_run, tmp_path):
    out, report, delay, total = tiny_run
    entry = report.state.repository.entries[0]
    name = f"repository/spectrum_{entry.entry_id:04d}.txt"
    bad = corrupted_copy(out, tmp_path / "bad", name,
                         lambda t: t + "coeff 0 0.25\n")
    assert checks.check_pass(bad, report, delay, total)["spectra"] is not None


def test_gate_trips_on_changed_metrics_bytes(tiny_run, tmp_path):
    out, _, _, _ = tiny_run
    bad = corrupted_copy(out, tmp_path / "bad", "metrics.csv", lambda t: t + "\n")
    assert checks.check_identical(bad, out) is not None


def test_gate_trips_on_missing_output(tiny_run, tmp_path):
    out, report, delay, total = tiny_run
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    (bad / "summary.txt").unlink()
    failed = checks.check_pass(bad, report, delay, total)
    assert failed["scored"] is not None and failed["accuracy"] is not None


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.002)

    traced_child = tracer.wrap("hoeffding.train", child)

    def parent():
        traced_child()
        traced_child()

    tracer.wrap("forest.train", parent)()
    stats = tracer.stats()
    f, h = stats["forest.train"], stats["hoeffding.train"]
    assert (f.calls, h.calls) == (1, 2)
    assert f.self_ns == f.total_ns - h.total_ns
    assert h.self_ns == h.total_ns >= 4_000_000


def test_tracer_restores_the_library():
    from fct.driver import FctState
    from fct import driver, spectrum
    before = (FctState.step, driver.dft, spectrum.inverse_classify, harness.build_stream)
    with tracing.Tracer():
        assert FctState.step is not before[0] and driver.dft is not before[1]
    assert (FctState.step, driver.dft, spectrum.inverse_classify, harness.build_stream) == before
