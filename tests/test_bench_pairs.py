"""Summary arithmetic of ``tools/bench_pairs.py``, the script that writes the
``BENCH_*.json`` files: pairing, quartiles, wins and failed checks."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "rate", "better": "higher"},
           {"name": "latency", "better": "lower"}]


def _run(workload, seed, side, failed=0, **values):
    metrics = {name: {"value": v} for name, v in values.items()}
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"failed": failed, "metrics": metrics}}


def test_single_value_gives_three_equal_quartiles():
    assert bench_pairs.quartiles([2.5]) == [2.5, 2.5, 2.5]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]


def test_incomplete_pair_is_skipped():
    runs = [_run("w", 1, "parent", rate=1.0), _run("w", 1, "change", rate=2.0),
            _run("w", 2, "parent", rate=9.0)]
    out = bench_pairs.summarize(runs, ["w", "unrun"], METRICS)
    assert list(out) == ["w"]  # a workload with no pair has no summary
    assert out["w"]["pairs"] == 1
    assert out["w"]["rate"]["parent_q1_median_q3"] == [1.0, 1.0, 1.0]
    assert out["w"]["rate"]["change_q1_median_q3"] == [2.0, 2.0, 2.0]
    assert "latency" not in out["w"]  # no pair reported it


def test_change_wins_follow_better_and_skip_ties():
    runs = []
    # (parent, change) per seed: a change win, a loss and a tie on each metric
    for seed, (rate, latency) in enumerate([((1.0, 2.0), (5.0, 4.0)),
                                            ((3.0, 2.0), (4.0, 5.0)),
                                            ((2.0, 2.0), (3.0, 3.0))]):
        runs.append(_run("w", seed, "parent", rate=rate[0], latency=latency[0]))
        runs.append(_run("w", seed, "change", rate=rate[1], latency=latency[1]))
    out = bench_pairs.summarize(runs, ["w"], METRICS)["w"]
    assert out["pairs"] == 3
    assert out["rate"]["change_wins"] == 1
    assert out["latency"]["change_wins"] == 1


def test_failed_checks_are_summed_per_side():
    runs = [_run("w", 1, "parent", failed=1, rate=1.0),
            _run("w", 1, "change", failed=0, rate=1.0),
            _run("w", 2, "change", failed=2, rate=1.0),
            _run("w", 2, "parent", failed=3, rate=1.0),
            _run("w", 3, "change", failed=5, rate=1.0)]  # no parent: skipped
    out = bench_pairs.summarize(runs, ["w"], METRICS)["w"]
    assert out["failed"] == {"parent": 4, "change": 2}
