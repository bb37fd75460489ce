"""Workloads, timed passes and metrics of the prequential benchmark.

One *pass* runs one workload stream through the library path that ``fct run``
uses (``harness.build_config`` -> ``harness.build_stream`` -> ``driver.run``
-> ``harness.write_outputs``) in this process, on a closed loop with one
client: the driver asks for the next instance only after ``FctState.step``
returned. A wrapper around the stream iterator stamps the clock at every
request, so the time between two requests is one instance's latency
(generation, binarization, prediction, delayed scoring, training).

An untraced run makes one plain pass over the stream of seed ``seed * 1000``
and then ``round(seconds / (2 * pass_seconds))`` paired passes, pass k over
the stream of seed ``seed * 1000 + k``. A paired pass interleaves ``fct`` with
``fct_ref``, a frozen copy of the library kept in ``reference/``: every
``REF_BLOCK`` instance requests, the frozen loop takes the same number of
steps over its own copy of the same stream, timed apart from the ``fct``
steps. Load from elsewhere on a shared machine slows both alike within
milliseconds, so the speed of ``fct`` relative to ``fct_ref`` holds steady
where seconds per instance do not. The pass count depends on ``--seconds``
only, so a run does the same work on every commit and machine, and its
accuracy is fixed by its seed. ``fct_ref`` also scores its predictions, so the
accuracy of ``fct`` is compared with that of the frozen copy on the same stream.

Set-up time is timed in fresh interpreters that stop at the first instance
request, alternating ``fct`` and ``fct_ref``, so ``setup_s`` comes with the
ratio of the two, which load from elsewhere moves far less.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fct_ref.driver
import fct_ref.harness
from fct import driver, harness
from fct.stream import InstanceStream

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# fresh processes of each package timed for setup_s, after one untimed warm-up each
SETUP_PROBES = 15
# The library runs single-threaded, but numpy starts BLAS worker threads on
# import by default, which makes the import time of a fresh process bimodal
# (0.12 s or 0.17 s on the reference box). Set-up probes run with one.
PROBE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fct instance requests between two blocks of as many fct_ref steps
REF_BLOCK = 100
# no pass starts that could end after this much wall time (runs must end within 180 s)
RUN_CAP_S = 150.0


@dataclass(frozen=True)
class Workload:
    why: str
    options: dict
    pass_seconds: float  # one untraced pass on the reference box (2-core Xeon VM)


WORKLOADS = {
    "sea-recurring": Workload(
        why="paper headline config (SEA, 4 recurring concepts, d=9, 9 trees, fct mode): "
            "balanced load over forest, stream, detector and repository",
        options={"dataset": "sea", "segments": "4x2500x2", "bits_per_attr": 3,
                 "noise": 0.1, "mode": "fct"},
        pass_seconds=6.5),
    "rbf-churn": Workload(
        why="RBF, 4 concepts x 1000, d=30, 30 trees, repository of 4, fct mode: drifts "
            "store, evict and answer from spectra; heaviest forest load",
        options={"dataset": "rbf", "segments": "4x1000x3", "bits_per_attr": 3,
                 "noise": 0.0, "repo_cap": 4, "mode": "fct"},
        pass_seconds=10.0),
    "sea-small-cbdt": Workload(
        why="SEA, d=3, 3 trees, cbdt mode: repository and spectrum bypassed, so "
            "detector, stream and driver loop weigh most",
        options={"dataset": "sea", "segments": "4x5000x1", "bits_per_attr": 1,
                 "noise": 0.1, "mode": "cbdt"},
        pass_seconds=2.5),
}

# (name, unit, better) in print order; BENCHMARK.json lists the same names
END_TO_END = (
    ("throughput_vs_ref", "ratio", "higher"),
    ("step_p50_vs_ref", "ratio", "lower"),
    ("step_p99_vs_ref", "ratio", "lower"),
    ("accuracy_vs_ref", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("setup_vs_ref", "ratio", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
# printed and kept in the report, but not in the result line: on the shared
# reference box load from elsewhere moves the times by up to 1.5x between runs,
# and accuracy differs between seeds by more (a tenth on rbf-churn), beyond
# the largest bound a result metric may have; accuracy_vs_ref is exact per seed
REPORT_ONLY = (
    ("accuracy", "ratio"),
    ("throughput_ips", "inst/s"),
    ("step_p50_us", "us"),
    ("step_p99_us", "us"),
    ("ref_throughput_ips", "inst/s"),
)

# span name -> (time metric, unit, self-time metric or None, calls metric or None)
SPAN_METRICS = {
    "stream.next": ("stream.next_us", "us", "stream.next_self_us", "stream.next_calls"),
    "stream.binarize": ("stream.binarize_us", "us", None, "stream.binarize_calls"),
    "hoeffding.train": ("hoeffding.train_us", "us", None, "hoeffding.train_calls"),
    "hoeffding.classify": ("hoeffding.classify_us", "us", None, "hoeffding.classify_calls"),
    "forest.train": ("forest.train_us", "us", "forest.train_self_us", "forest.train_calls"),
    "forest.classify": ("forest.classify_us", "us", "forest.classify_self_us", "forest.classify_calls"),
    "adwin.add": ("adwin.add_us", "us", None, "adwin.add_calls"),
    "repository.observe": ("repository.observe_us", "us", None, "repository.observe_calls"),
    "repository.insert": ("repository.insert_ms", "ms", None, "repository.inserts"),
    "spectrum.dft": ("spectrum.dft_ms", "ms", None, "spectrum.dft_calls"),
    "spectrum.inverse_classify": ("spectrum.inverse_classify_us", "us", None,
                                  "spectrum.inverse_classify_calls"),
    "driver.step": ("driver.step_us", "us", "driver.step_self_us", "driver.step_calls"),
    "driver.on_drift": ("driver.on_drift_ms", "ms", "driver.on_drift_self_ms", "driver.drifts"),
    "harness.build_stream": ("harness.build_stream_ms", "ms", None, None),
    "harness.write_outputs": ("harness.write_outputs_ms", "ms", None, None),
}

# per-layer metrics that are not span times or call counts
LAYER_EXTRA = (
    ("hoeffding.splits", "count", "lower"),
    ("forest.trees", "count", "lower"),
    ("forest.nodes", "count", "lower"),
    ("adwin.buckets_mean", "count", "lower"),
    ("adwin.cuts", "count", "lower"),
    ("repository.entries_mean", "count", "lower"),
    ("repository.stored_ratio", "ratio", "higher"),
    ("repository.evictions", "count", "lower"),
    ("repository.bytes", "bytes", "lower"),
    ("spectrum.coefficients_mean", "count", "lower"),
    ("driver.winner_switches", "count", "lower"),
    ("driver.repo_answer_share", "ratio", "higher"),
    ("trace.throughput_ratio", "ratio", "higher"),
    ("trace.traced_ips", "inst/s", "higher"),
    ("trace.ref_ips", "inst/s", "higher"),
    ("trace.passes", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.span_cost_us", "us", "lower"),
)

_UNIT_NS = {"us": 1e3, "ms": 1e6}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    out = []
    for time_name, unit, self_name, calls_name in SPAN_METRICS.values():
        out.append((time_name, unit, "lower"))
        if self_name:
            out.append((self_name, unit, "lower"))
        if calls_name:
            out.append((calls_name, "count", "lower"))
    return out + list(LAYER_EXTRA)


class StampedStream(InstanceStream):
    """Stream wrapper that stamps the clock each time the driver asks for an instance.

    With a ``ref`` loop, every ``REF_BLOCK`` requests first run that many
    reference steps; the time they take is recorded in ``paused`` and left
    out of the latencies.
    """

    def __init__(self, inner: InstanceStream, next_fn=None, ref: "RefLoop | None" = None):
        super().__init__(inner.schema, iter(inner), inner.boundaries)
        self.stamps = array("q")
        self.paused = array("q")
        self._next = next_fn or self._it.__next__
        self._ref = ref

    def __iter__(self):
        return self

    def __next__(self):
        if self._ref is not None and self.stamps and len(self.stamps) % REF_BLOCK == 0:
            begun = time.perf_counter_ns()
            self._ref.steps(REF_BLOCK)
            self.paused.append(time.perf_counter_ns() - begun)
        else:
            self.paused.append(0)
        self.stamps.append(time.perf_counter_ns())
        return self._next()

    def latencies_ns(self) -> np.ndarray:
        stamps = np.frombuffer(self.stamps, dtype=np.int64)
        return np.diff(stamps) - np.frombuffer(self.paused, dtype=np.int64)[1:]


class RefLoop:
    """The frozen ``fct_ref`` prequential loop over its own copy of a stream."""

    def __init__(self, opts: dict):
        cfg = fct_ref.harness.build_config(opts)
        stream = fct_ref.harness.build_stream(opts)
        self.state = fct_ref.driver.FctState(stream.schema, cfg)
        self._it = iter(stream)
        self.latencies = array("q")
        self.scored = 0
        self.hits = 0

    def _score(self, old, correct: bool) -> None:
        self.scored += 1
        self.hits += correct

    def steps(self, n: int | None = None) -> None:
        """Run ``n`` more steps (all that are left when None), each timed."""
        clock = time.perf_counter_ns
        step, it, lat, score = self.state.step, self._it, self.latencies, self._score
        for _ in itertools.repeat(None) if n is None else range(n):
            begun = clock()
            inst = next(it, None)
            if inst is None:
                return
            step(inst, score)
            lat.append(clock() - begun)

    def latencies_ns(self) -> np.ndarray:
        return np.frombuffer(self.latencies, dtype=np.int64)


@dataclass
class PassResult:
    seed: int
    instances: int
    scored: int
    accuracy: float
    loop_s: float
    latencies_ns: np.ndarray
    metrics_sha256: str
    drifts_sha256: str
    checks: dict
    state_counts: dict  # forest, repository and winner figures at the end of the pass

    @property
    def throughput(self) -> float:
        return self.instances / self.loop_s


def workload_options(name: str, seed: int, defaults: dict = harness.DEFAULTS) -> dict:
    """Full option set of one pass, as ``fct run`` would take it."""
    return dict(defaults, **WORKLOADS[name].options, seed=seed)


def stream_count(name: str, seconds: float) -> int:
    """Streams (one pair of passes each) in an untraced run of about ``seconds``."""
    return max(1, round(seconds / (2 * WORKLOADS[name].pass_seconds)))


def expected_total(opts: dict) -> int:
    c, length, r = harness.parse_segments(opts["segments"])
    return c * length * r


def run_pass(opts: dict, outdir: Path, tracer: tracing.Tracer | None = None,
             ref: RefLoop | None = None) -> PassResult:
    """One prequential pass through the library path; outputs go to ``outdir``."""
    shutil.rmtree(outdir, ignore_errors=True)
    opts = dict(opts, out=str(outdir))
    cfg = harness.build_config(opts)
    inner = harness.build_stream(opts)
    gen_next = iter(inner).__next__
    stream = StampedStream(inner, tracer.traced_next(gen_next) if tracer else gen_next, ref)
    report = driver.run(stream, cfg, window_size=opts["window"])
    harness.write_outputs(report, opts["out"])

    latencies = stream.latencies_ns()
    state = report.state
    return PassResult(
        seed=opts["seed"], instances=report.total_instances,
        scored=report.scored_instances, accuracy=report.overall_accuracy,
        loop_s=latencies.sum() / 1e9, latencies_ns=latencies,
        metrics_sha256=checks.sha256(outdir / "metrics.csv"),
        drifts_sha256=checks.sha256(outdir / "drifts.csv"),
        checks=checks.check_pass(outdir, report, opts["delay"], expected_total(opts)),
        state_counts={
            "trees": len(state.forest),
            "nodes": state.forest.total_node_count(),
            "entries": len(state.repository),
            "repo_bytes": state.repository.memory_bytes(),
            "winner_switches": len(report.winner_switches),
        })


def probe_setup(opts: dict, package: str) -> float:
    """Seconds from starting a fresh interpreter to its first instance request."""
    package_dir = SRC if package == "fct" else HERE / "reference"
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(package_dir), package, json.dumps(opts)],
        cwd=ROOT, env=dict(os.environ, **PROBE_ENV), capture_output=True, text=True,
        timeout=60, check=True)
    return (int(done.stdout.strip().splitlines()[-1]) - start) / 1e9


def run_cli(opts: dict, outdir: Path) -> None:
    """The same pass through ``fct run`` in a fresh process."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [sys.executable, "-m", "fct.harness", "run"]
    for key, value in dict(opts, out=str(outdir)).items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120, check=True)


class Gate:
    """Counts checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, where: str, name: str, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{where}: {name}: {reason}")

    def record_pass(self, where: str, result: PassResult) -> None:
        for name, reason in result.checks.items():
            self.record(where, name, reason)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(plain: PassResult, pairs: list[tuple[PassResult, RefLoop]],
               setup: list[tuple[float, float]], peak_rss_mb: float) -> dict:
    """``pairs`` holds each paired fct pass with its fct_ref loop; ``setup`` the
    (fct, fct_ref) set-up probe times."""
    p50, p99 = np.percentile(plain.latencies_ns, [50, 99]) / 1e3
    passes = [p for p, _ in pairs]
    ref_ns = [r.latencies_ns() for _, r in pairs]

    def vs_ref(q):
        return _median([np.percentile(p.latencies_ns, q) / np.percentile(r, q)
                        for p, r in zip(passes, ref_ns)])

    hits = sum(p.accuracy * p.scored for p in passes)
    return {
        "throughput_vs_ref": _median([r.sum() / p.latencies_ns.sum()
                                      for p, r in zip(passes, ref_ns)]),
        "step_p50_vs_ref": vs_ref(50),
        "step_p99_vs_ref": vs_ref(99),
        "accuracy": hits / sum(p.scored for p in passes),
        "accuracy_vs_ref": hits / max(sum(r.hits for _, r in pairs), 1),
        "setup_s": _median([f for f, _ in setup]),
        "setup_vs_ref": _median([f / r for f, r in setup]),
        "peak_rss_mb": peak_rss_mb,
        "throughput_ips": plain.throughput,
        "step_p50_us": float(p50),
        "step_p99_us": float(p99),
        "ref_throughput_ips": _median([r.size / r.sum() * 1e9 for r in ref_ns]),
    }


def per_layer(pairs: list[tuple[PassResult, RefLoop]], stats: dict,
              tracers: list[tracing.Tracer]) -> dict:
    """``pairs`` holds each traced fct pass with the untraced fct_ref loop beside it."""
    traced = [p for p, _ in pairs]
    out = {}
    for span, (time_name, unit, self_name, calls_name) in SPAN_METRICS.items():
        s = stats[span]
        scale = _UNIT_NS[unit] * max(s.calls, 1)
        out[time_name] = s.total_ns / scale
        if self_name:
            out[self_name] = s.self_ns / scale
        if calls_name:
            out[calls_name] = s.calls
    n = len(traced)
    inserts = stats["repository.insert"].calls
    stored = sum(t.inserts_stored for t in tracers)
    samples = sum(t.gauge_samples for t in tracers)
    coeffs = [c for t in tracers for c in t.dft_coefficients]
    steps = stats["driver.step"].calls
    traced_ips = sum(p.instances for p in traced) / sum(p.loop_s for p in traced)
    ref_ips = sum(r.latencies_ns().size for _, r in pairs) / \
        sum(r.latencies_ns().sum() / 1e9 for _, r in pairs)
    out.update({
        "hoeffding.splits": sum((p.state_counts["nodes"] - 3 * p.state_counts["trees"]) // 2
                                for p in traced),
        "forest.trees": traced[0].state_counts["trees"],
        "forest.nodes": sum(p.state_counts["nodes"] for p in traced) / n,
        "adwin.buckets_mean": sum(t.bucket_sum for t in tracers) / max(samples, 1),
        "adwin.cuts": sum(t.adwin_cuts for t in tracers),
        "repository.entries_mean": sum(t.entry_sum for t in tracers) / max(samples, 1),
        "repository.stored_ratio": stored / inserts if inserts else 0.0,
        "repository.evictions": stored - sum(p.state_counts["entries"] for p in traced),
        "repository.bytes": sum(p.state_counts["repo_bytes"] for p in traced) / n,
        "spectrum.coefficients_mean": sum(coeffs) / len(coeffs) if coeffs else 0.0,
        "driver.winner_switches": sum(p.state_counts["winner_switches"] for p in traced),
        "driver.repo_answer_share":
            stats["spectrum.inverse_classify"].calls / steps if steps else 0.0,
        "trace.throughput_ratio": traced_ips / ref_ips,
        "trace.traced_ips": traced_ips,
        "trace.ref_ips": ref_ips,
        "trace.passes": n,
        "trace.spans": sum(len(t.names) for t in tracers),
        "trace.span_cost_us": tracing.span_cost_ns() / 1e3,
    })
    return out


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fct").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _pass_row(p: PassResult) -> dict:
    return {"seed": p.seed, "instances": p.instances, "scored": p.scored,
            "accuracy": p.accuracy, "throughput_ips": p.throughput,
            "loop_s": p.loop_s, "metrics_sha256": p.metrics_sha256,
            "drifts_sha256": p.drifts_sha256}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="nominal run length; sets the number of passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """State of one benchmark invocation: its streams, outputs and checks."""

    def __init__(self, args):
        self.args = args
        self.name = args.workload
        self.workload = WORKLOADS[args.workload]
        self.outdir = OUT / f"{args.workload}-trace{args.trace}"
        self.started = time.monotonic()
        self.gate = Gate()
        count = stream_count(args.workload, args.seconds)
        self.streams = [workload_options(args.workload, args.seed * 1000 + k)
                        for k in range(count)]
        self.longest_pass = 0.0
        self.stopped = False

    def time_left(self, where: str) -> bool:
        """False once another pass could overrun the run cap (recorded as a failure)."""
        if self.stopped:
            return False
        if time.monotonic() - self.started + self.longest_pass > RUN_CAP_S:
            self.gate.record(where, "time", f"run cap of {RUN_CAP_S:.0f} s reached")
            self.stopped = True
        return not self.stopped

    def run_pass(self, where: str, opts: dict, outdir: Path, tracer=None, ref=None):
        begun = time.monotonic()
        try:
            with tracer or contextlib.nullcontext():
                result = run_pass(opts, outdir, tracer, ref)
        except Exception as e:  # the program failed: record it, keep measuring
            self.gate.record(where, "run", f"{type(e).__name__}: {e}")
            return None
        finally:
            self.longest_pass = max(self.longest_pass, time.monotonic() - begun)
        self.gate.record(where, "run", None)
        self.gate.record_pass(where, result)
        return result

    def paired_pass(self, where: str, opts: dict, outdir: Path, tracer=None):
        """One fct pass with fct_ref interleaved over its own copy of the same stream."""
        try:
            ref = RefLoop(workload_options(self.name, opts["seed"], fct_ref.harness.DEFAULTS))
        except Exception as e:
            self.gate.record(f"{where} reference", "run", f"{type(e).__name__}: {e}")
            return None
        result = self.run_pass(where, opts, outdir, tracer, ref)
        if result is None:
            return None
        ref.steps()  # the tail the fct pass did not interleave
        self.gate.record(f"{where} reference", "run", None if ref.latencies_ns().size ==
                         result.instances else "fct_ref saw another stream length")
        return result, ref

    def untraced(self) -> tuple[dict, dict]:
        """End-to-end metrics: set-up probes, a plain pass, then one paired pass per stream."""
        ref_opts = workload_options(self.name, self.streams[0]["seed"], fct_ref.harness.DEFAULTS)
        setup: list[tuple[float, float]] = []
        for i in range(SETUP_PROBES + 1):
            try:
                times = probe_setup(self.streams[0], "fct"), probe_setup(ref_opts, "fct_ref")
            except (OSError, ValueError, subprocess.SubprocessError) as e:
                self.gate.record(f"setup probe {i}", "run", f"{type(e).__name__}: {e}")
                continue
            self.gate.record(f"setup probe {i}", "run", None)
            if i:  # the first processes fill caches (.pyc) and are not timed
                setup.append(times)

        where = "plain pass"
        plain = self.run_pass(where, self.streams[0], self.outdir / "plain") \
            if self.time_left(where) else None
        # before fct_ref has run in this process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        pairs: list[tuple[PassResult, RefLoop]] = []
        for k, opts in enumerate(self.streams):
            where = f"stream {k}"
            if not self.time_left(where):
                break
            pair = self.paired_pass(where, opts, self.outdir / f"s{k}")
            if pair is None:
                continue
            if k == 0 and plain is not None:
                self.gate.record(where, "identical_to_plain", checks.guarded(
                    checks.check_identical, self.outdir / "s0", self.outdir / "plain"))
            pairs.append(pair)
        metrics = end_to_end(plain, pairs, setup, peak_rss_mb) \
            if plain is not None and pairs else {}
        samples = {
            "paired_passes": len(pairs),
            "step_latency_plain": len(plain.latencies_ns) if plain is not None else 0,
            "step_latency_paired": int(sum(len(p.latencies_ns) for p, _ in pairs)),
            "setup_probes": len(setup),
            "setup_s": [f for f, _ in setup],
            "setup_ref_s": [r for _, r in setup],
            "pair_throughput_ratio": [r.latencies_ns().sum() / p.latencies_ns.sum()
                                      for p, r in pairs],
            "pair_ref_accuracy": [r.hits / r.scored for _, r in pairs],
        }
        passes = ([plain] if plain is not None else []) + [p for p, _ in pairs]
        return metrics, {"samples": samples, "passes": [_pass_row(p) for p in passes]}

    def traced(self) -> tuple[dict, dict]:
        """Per-layer metrics: a third of the streams traced, each paired with an
        untraced fct_ref loop; stream 0 once more via ``fct run``."""
        pairs: list[tuple[PassResult, RefLoop]] = []
        tracers: list[tracing.Tracer] = []
        stats: dict[str, tracing.SpanStats] = {}
        for k, opts in enumerate(self.streams[:math.ceil(len(self.streams) / 3)]):
            where = f"stream {k} traced"
            if not self.time_left(where):
                break
            tracer = tracing.Tracer()
            pair = self.paired_pass(where, opts, self.outdir / f"s{k}-traced", tracer)
            if pair is not None:
                pairs.append(pair)
                tracers.append(tracer)
                tracing.merge(stats, tracer.stats())

        if pairs and pairs[0][0].seed == self.streams[0]["seed"] and \
                self.time_left("stream 0 fct run"):
            cli_dir = self.outdir / "s0-cli"
            try:
                run_cli(self.streams[0], cli_dir)
            except (OSError, subprocess.SubprocessError) as e:
                self.gate.record("stream 0 fct run", "run", f"{type(e).__name__}: {e}")
            else:
                self.gate.record("stream 0 fct run", "run", None)
                self.gate.record("stream 0 fct run", "identical_to_traced", checks.guarded(
                    checks.check_identical, cli_dir, self.outdir / "s0-traced"))

        metrics = per_layer(pairs, stats, tracers) if pairs else {}
        if tracers:
            tracing.write_spans(self.outdir / "spans.npz", [t.arrays() for t in tracers])
        samples = {"passes": len(pairs), "spans": int(sum(len(t.names) for t in tracers))}
        return metrics, {"samples": samples, "passes": [_pass_row(p) for p, _ in pairs],
                         "self_time_share": self_time_shares(stats) if pairs else {}}

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run = Run(args)
    shutil.rmtree(run.outdir, ignore_errors=True)
    run.outdir.mkdir(parents=True)
    if args.trace:
        metrics, details = run.traced()
        units = {m: u for m, u, _ in per_layer_metrics()}
    else:
        metrics, details = run.untraced()
        units = {m: u for m, u, _ in END_TO_END}
        units.update(REPORT_ONLY)
        details["report_only"] = {m: metrics.pop(m) for m, _ in REPORT_ONLY if m in metrics}

    gate = run.gate
    failed = len(gate.failures)
    report = {
        "workload": run.name,
        "why": run.workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "options": run.streams[0],
        "stream_seeds": [o["seed"] for o in run.streams],
        **details,
        "checks_attempted": gate.attempted,
        "failed_share": failed / gate.attempted,
        "failures": gate.failures,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "machine": machine(),
        "wall_s": time.monotonic() - run.started,
    }
    with open(run.outdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {run.name} seed {args.seed} trace {args.trace}: "
          f"{len(details['passes'])} passes, {gate.attempted} checks, {failed} failed")
    for failure in gate.failures:
        print(f"FAILED {failure}")
    for p in details["passes"]:
        print(f"stream seed {p['seed']}: metrics.csv sha256 {p['metrics_sha256']}  "
              f"drifts.csv sha256 {p['drifts_sha256']}")
    for span, share in details.get("self_time_share", {}).items():
        print(f"self time share {span:26s} {100 * share:6.2f} %")
    for metric, value in {**metrics, **details.get("report_only", {})}.items():
        print(f"{metric:34s} {value:14.6g} {units[metric]}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def self_time_shares(stats: dict) -> dict[str, float]:
    """Self time of each span over the traced loop (stream requests plus steps)."""
    loop_ns = stats["stream.next"].total_ns + stats["driver.step"].total_ns
    return {span: s.self_ns / loop_ns
            for span, s in sorted(stats.items(), key=lambda kv: -kv[1].self_ns)
            if s.calls and not span.startswith("harness.")}
