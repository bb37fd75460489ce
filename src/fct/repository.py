"""Bounded store of compressed models with usage-weighted eviction.

One scoreboard holds every entry's sliding accuracy over recent stream
instances, one column per entry; each entry keeps a tally of how often it was
chosen as the winning model. When the store is full the entry with the lowest
tally * accuracy product is evicted; near-duplicate spectra are refused
outright.
"""

from __future__ import annotations

import csv
import os
from typing import Optional

import numpy as np

from .errors import SchemaError
from .forest import Scoreboard
from .spectrum import FourierSpectrum, Packed, parity_sums, spectra_equal, stack
from .stream import Instance


class RepositoryEntry:
    def __init__(self, spectrum: FourierSpectrum, entry_id: int):
        self.spectrum = spectrum
        self.entry_id = entry_id  # stable across evictions of other entries
        self.winner_tally = 0


class Repository:
    def __init__(self, capacity: int = 50, eval_window: int = 500,
                 duplicate_tolerance: float = 0.01):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.duplicate_tolerance = duplicate_tolerance
        self.entries: list[RepositoryEntry] = []
        self.scores = Scoreboard(eval_window)  # column i scores entries[i]
        self._next_id = 0
        self._packed: Optional[Packed] = None  # every entry, one block each

    def __len__(self) -> int:
        return len(self.entries)

    def find(self, entry_id: int) -> Optional[RepositoryEntry]:
        for e in self.entries:
            if e.entry_id == entry_id:
                return e
        return None

    def insert(self, spectrum: FourierSpectrum) -> bool:
        """Store a spectrum unless a near-duplicate exists; evict if full.

        Returns True when the spectrum was stored. A duplicate hit leaves the
        existing entry untouched.
        """
        for e in self.entries:
            if spectra_equal(e.spectrum, spectrum, self.duplicate_tolerance):
                return False
        if len(self.entries) >= self.capacity:
            # entries never yet scored weigh as 0
            accs = self.scores.accuracies()
            victim = min(range(len(self.entries)),
                         key=lambda i: (self.entries[i].winner_tally * accs[i],
                                        self.entries[i].entry_id))
            del self.entries[victim]
            self.scores.drop(victim)
        self.entries.append(RepositoryEntry(spectrum, self._next_id))
        self.scores.join()
        self._next_id += 1
        self._packed = stack([e.spectrum for e in self.entries])
        return True

    def observe(self, inst: Instance) -> None:
        """Score every entry's prediction of one labeled instance."""
        if not self.entries:
            return
        d = self.entries[0].spectrum.attribute_count
        if len(inst.features) != d:
            raise SchemaError(
                f"instance has {len(inst.features)} attributes, repository "
                f"holds spectra over {d}")
        self.scores.record(self.classify_all(inst.features) == inst.label)

    def classify_all(self, features: np.ndarray) -> np.ndarray:
        """Vector of per-entry class predictions for one instance."""
        if not self.entries:
            return np.zeros(0, dtype=np.uint8)
        sums = parity_sums(self._packed, features[None, :])[0]
        return (sums >= 0.5).astype(np.uint8)

    def best(self) -> Optional[tuple[int, RepositoryEntry, float]]:
        """Highest-accuracy entry (index, entry, accuracy); None when empty.

        Ties prefer the higher winner tally, then the older entry.
        """
        if not self.entries:
            return None
        accs = self.scores.accuracies()
        idx = max(range(len(self.entries)),
                  key=lambda i: (accs[i], self.entries[i].winner_tally,
                                 -self.entries[i].entry_id))
        return idx, self.entries[idx], accs[idx]

    def memory_bytes(self) -> int:
        return (sum(e.spectrum.memory_bytes() for e in self.entries)
                + self.scores.memory_bytes())

    def export(self, directory) -> None:
        """Write every spectrum plus an index.csv of entry statistics."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "index.csv"), "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["entry_id", "file", "winner_tally", "accuracy",
                        "coefficients", "order_cutoff",
                        "captured_energy_fraction"])
            for e, acc in zip(self.entries, self.scores.accuracies()):
                fname = f"spectrum_{e.entry_id:04d}.txt"
                e.spectrum.write(os.path.join(directory, fname))
                w.writerow([e.entry_id, fname, e.winner_tally,
                            f"{acc:.6f}", len(e.spectrum),
                            e.spectrum.order_cutoff,
                            f"{e.spectrum.captured_energy_fraction:.6f}"])
