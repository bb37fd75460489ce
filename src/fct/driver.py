"""Prequential drift loop tying forest, detector, and repository together.

Each arriving instance is first predicted by the current winning model; its
label becomes available ``label_delay`` instances later, at which point the
recorded prediction is scored, the detector sees the error bit, repository
entries are re-scored, and the forest trains. When the detector fires, the
winner is re-selected from forest and repository, compressing the best tree
into the repository when it beats the stored alternatives clearly enough.

With ``mode="cbdt"`` the repository is disabled entirely and the winner is
always the current best tree; that is the ablation baseline.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .adwin import AdwinDetector
from .errors import ConfigError
from .forest import Forest
from .repository import Repository
from .spectrum import FourierSpectrum, dft, inverse_classify
from .stream import Instance, InstanceStream, Schema

MODES = ("fct", "cbdt")


@dataclass(frozen=True)
class FctConfig:
    """Run settings, checked once when the config is built.

    Tree growth, evaluation windows and duplicate tolerance keep the
    defaults of :class:`Forest` and :class:`Repository`.
    """

    energy_threshold: float = 0.95
    winner_tie_margin: float = 0.01      # repo must trail by more to trigger a store
    repository_capacity: int = 50
    adwin_delta: float = 0.01
    label_delay: int = 200
    mode: str = "fct"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError naming the command line key of a bad value."""
        if not 0.0 < self.energy_threshold <= 1.0:
            raise ConfigError("energy", "must be in (0, 1]")
        if not 0.0 <= self.winner_tie_margin < math.inf:
            raise ConfigError("tau", "must be finite and >= 0")
        if self.repository_capacity < 1:
            raise ConfigError("repo_cap", "must be >= 1")
        if not 0.0 < self.adwin_delta < 1.0:
            raise ConfigError("adwin_delta", "must be in (0, 1)")
        if self.label_delay < 0:
            raise ConfigError("delay", "must be >= 0")
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {'/'.join(MODES)}")


@dataclass(frozen=True)
class WinnerRef:
    """Which model currently answers predictions."""

    source: str            # "forest" or "repository"
    model_id: int          # tree index, or repository entry id


@dataclass
class WindowRow:
    window_end: int
    windowed_acc: float
    overall_acc: float
    forest_bytes: int
    repo_bytes: int
    winner_source: str
    winner_id: int


@dataclass
class RunReport:
    total_instances: int = 0
    scored_instances: int = 0
    overall_accuracy: float = math.nan  # a run that scores nothing has none
    windows: list[WindowRow] = field(default_factory=list)
    drift_positions: list[int] = field(default_factory=list)
    winner_switches: list[tuple[int, str, int]] = field(default_factory=list)
    truth_boundaries: tuple[int, ...] = ()
    wall_seconds: float = 0.0
    state: Optional["FctState"] = None

    @property
    def throughput(self) -> float:
        return self.total_instances / self.wall_seconds if self.wall_seconds else 0.0


class FctState:
    """Mutable run state; step() advances it by one instance."""

    def __init__(self, schema: Schema, config: FctConfig):
        self.config = config
        self.forest = Forest(schema)
        self.repository = Repository(capacity=config.repository_capacity)
        self.detector = AdwinDetector(delta=config.adwin_delta)
        # before any evidence, tree 0 answers
        self.winner = WinnerRef("forest", 0)
        # the winning entry's spectrum, or None while a tree wins; only
        # on_drift evicts, and it stores only while a tree is the winner
        self._winner_spectrum: Optional[FourierSpectrum] = None
        self.pending: deque[tuple[Instance, int]] = deque()
        self.drift_positions: list[int] = []
        self.winner_switches: list[tuple[int, str, int]] = []
        self.seen = 0

    def classify(self, features: np.ndarray) -> int:
        if self._winner_spectrum is None:
            return self.forest.classify(self.winner.model_id, features)
        return inverse_classify(self._winner_spectrum, features)

    def step(self, inst: Instance, scored_hook=None) -> int:
        """Predict now, score/train once the delayed label arrives.

        Returns the prediction for this instance; a drift fired while
        absorbing a matured label is recorded in ``drift_positions``.
        ``scored_hook(instance, correct)`` is called for each matured instance.
        """
        pred = self.classify(inst.features)
        self.pending.append((inst, pred))
        self.seen += 1
        if len(self.pending) > self.config.label_delay:
            old, old_pred = self.pending.popleft()
            correct = old_pred == old.label
            if scored_hook is not None:
                scored_hook(old, correct)
            fired = self.detector.add(0 if correct else 1)
            if self.config.mode == "fct":
                self.repository.observe(old)
            self.forest.train(old)
            if fired:
                self.drift_positions.append(inst.index)
                self.on_drift()
        return pred

    def on_drift(self) -> None:
        """Re-select the winning model, first storing the best tree (fct mode)
        when it beats every entry by more than tau. Only this method stores,
        so the repository is empty at the first drift and in cbdt mode."""
        ti, tree, tree_acc = self.forest.best_tree()
        best = self.repository.best()
        repo_acc = best[2] if best is not None else -math.inf
        if (self.config.mode == "fct" and self.winner.source == "forest"
                and tree_acc - repo_acc > self.config.winner_tie_margin):
            self.repository.insert(dft(tree, self.config.energy_threshold))
            best = self.repository.best()  # refreshed: insert may have evicted
        if best is not None and best[2] > tree_acc:
            entry = best[1]
            entry.winner_tally += 1
            self._set_winner(WinnerRef("repository", entry.entry_id))
            self._winner_spectrum = entry.spectrum
        else:
            # ties keep the forest answering
            self._set_winner(WinnerRef("forest", ti))
            self._winner_spectrum = None
        # every drift restarts detection on the (possibly unchanged) winner
        self.detector = AdwinDetector(delta=self.config.adwin_delta)

    def _set_winner(self, ref: WinnerRef) -> None:
        if ref != self.winner:
            self.winner_switches.append((self.seen, ref.source, ref.model_id))
        self.winner = ref


def run(stream: Iterable[Instance], config: FctConfig,
        schema: Optional[Schema] = None, window_size: int = 1000) -> RunReport:
    """Drive a full stream through the loop and collect windowed metrics.

    Windows are fixed blocks of arrival positions. A scoring event (a label
    maturing) is attributed to the window of the position at which it was
    scored, so every row is final when its boundary passes. Predictions whose
    labels would mature after the stream ends are never scored. Accuracies
    are ``nan`` until they have a scored label. Memory and winner columns
    are sampled at each window boundary.
    """
    if window_size < 1:
        raise ConfigError("window", "must be >= 1")
    if schema is None:
        if not isinstance(stream, InstanceStream):
            raise ConfigError("schema", "required when the stream carries none")
        schema = stream.schema
    state = FctState(schema, config)
    report = RunReport()
    if isinstance(stream, InstanceStream):
        report.truth_boundaries = stream.boundaries

    win_hits = 0
    win_count = 0
    total_hits = 0

    def scored(old: Instance, correct: bool) -> None:
        nonlocal total_hits, win_hits, win_count
        report.scored_instances += 1
        win_count += 1
        if correct:
            total_hits += 1
            win_hits += 1

    def snapshot(end: int) -> None:
        nonlocal win_hits, win_count
        report.windows.append(WindowRow(
            window_end=end,
            windowed_acc=win_hits / win_count if win_count else math.nan,
            overall_acc=total_hits / report.scored_instances
            if report.scored_instances else math.nan,
            forest_bytes=state.forest.memory_bytes(),
            repo_bytes=state.repository.memory_bytes(),
            winner_source=state.winner.source,
            winner_id=state.winner.model_id,
        ))
        win_hits = 0
        win_count = 0

    t0 = time.perf_counter()
    n = 0
    for inst in stream:
        state.step(inst, scored_hook=scored)
        n += 1
        if n % window_size == 0:
            snapshot(n)
    report.wall_seconds = time.perf_counter() - t0

    if n % window_size != 0:
        snapshot(n)
    report.total_instances = n
    report.overall_accuracy = (total_hits / report.scored_instances
                               if report.scored_instances else math.nan)
    report.drift_positions = list(state.drift_positions)
    report.winner_switches = list(state.winner_switches)
    report.state = state
    return report
