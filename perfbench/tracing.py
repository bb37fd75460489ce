"""Span tracing of the fct library, installed from outside the package.

A :class:`Tracer` replaces public functions and methods of the ``fct``
modules with wrappers that record one span per call: name, start, end and the
span that was open when the call began. Nothing under ``src/`` changes; the
originals are put back when the ``with`` block ends. Spans are appended to
typed arrays in memory and reduced (calls, total time, self time) after the
run, where self time is a span's duration minus the durations of its direct
children. The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

from fct import adwin, driver, forest, harness, hoeffding, repository, spectrum, stream

# (span name, owner, attribute). When the owner is a module, the function is
# patched in every loaded fct module that binds the same object, so a call
# made through a ``from .spectrum import dft`` alias is traced as well.
TARGETS = (
    ("stream.binarize", stream.Binarizer, "transform_row"),
    ("hoeffding.train", hoeffding.HoeffdingTree, "train"),
    ("hoeffding.classify", hoeffding.HoeffdingTree, "classify"),
    ("forest.train", forest.Forest, "train"),
    ("forest.classify", forest.Forest, "classify"),
    ("adwin.add", adwin.AdwinDetector, "add"),
    ("repository.observe", repository.Repository, "observe"),
    ("repository.insert", repository.Repository, "insert"),
    ("spectrum.dft", spectrum, "dft"),
    ("spectrum.inverse_classify", spectrum, "inverse_classify"),
    ("driver.step", driver.FctState, "step"),
    ("driver.on_drift", driver.FctState, "on_drift"),
    ("harness.build_stream", harness, "build_stream"),
    ("harness.write_outputs", harness, "write_outputs"),
)

# recorded by the stream wrapper, not by patching
STREAM_NEXT = "stream.next"

SPAN_NAMES = (STREAM_NEXT,) + tuple(t[0] for t in TARGETS)


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.name_ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.names = array("h")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        # counters fed from return values, outside any timed span body
        self.adwin_cuts = 0
        self.inserts_stored = 0
        self.dft_coefficients: list[int] = []
        # per-instance gauges sampled by the stream wrapper between steps
        self.state = None
        self.bucket_sum = 0
        self.entry_sum = 0
        self.gauge_samples = 0

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self.name_ids[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def traced_next(self, gen_next):
        """Next-instance function: samples gauges, then a ``stream.next`` span."""
        span_next = self.wrap(STREAM_NEXT, gen_next)

        def next_instance():
            state = self.state
            if state is not None:
                self.bucket_sum += state.detector.bucket_count()
                self.entry_sum += len(state.repository)
                self.gauge_samples += 1
            return span_next()

        return next_instance

    def _on_return(self, name: str):
        if name == "adwin.add":
            def hook(args, fired):
                if fired:
                    self.adwin_cuts += 1
        elif name == "repository.insert":
            def hook(args, stored):
                if stored:
                    self.inserts_stored += 1
        elif name == "spectrum.dft":
            def hook(args, spectrum):
                self.dft_coefficients.append(len(spectrum))
        elif name == "driver.step":
            def hook(args, result):
                self.state = args[0]
        else:
            hook = None
        return hook

    def __enter__(self) -> "Tracer":
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, self._on_return(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "fct" or mod_name.startswith("fct.")) and \
                        getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total time and self time per span name."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        k = len(SPAN_NAMES)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {n: SpanStats(int(calls[i]), int(total[i]), int(own[i]))
                for i, n in enumerate(SPAN_NAMES)}


def span_cost_ns(calls: int = 20000) -> float:
    """Wall time one span adds to a call, measured on an empty function.

    Part of it lands in the traced call's own span and part in its parent's
    self time, so parents of many short spans read high by about this much
    per child.
    """
    def noop():
        return None

    traced = Tracer().wrap(STREAM_NEXT, noop)
    clock = time.perf_counter_ns
    best = math.inf
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def merge(into: dict[str, SpanStats], more: dict[str, SpanStats]) -> None:
    for name, s in more.items():
        t = into.setdefault(name, SpanStats())
        t.calls += s.calls
        t.total_ns += s.total_ns
        t.self_ns += s.self_ns


def write_spans(path, passes: list[dict[str, np.ndarray]]) -> None:
    """Write the spans of every traced pass to one ``.npz`` file."""
    out = {"span_names": np.array(SPAN_NAMES)}
    for key in ("name", "parent", "start_ns", "end_ns"):
        out[key] = np.concatenate([p[key] for p in passes])
    out["pass"] = np.concatenate(
        [np.full(len(p["name"]), i, dtype=np.int16) for i, p in enumerate(passes)])
    np.savez(path, **out)
