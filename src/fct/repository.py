"""Bounded store of compressed models with usage-weighted eviction.

One scoreboard holds every entry's sliding accuracy over recent stream
instances, one column per entry. Observed instances only queue there; they
are scored in one batch, against the entries stored when they were observed,
when the accuracies are read (at a drift, and at export) or before the entry
set changes. Only the last ``eval_window`` instances count, so older ones are
never evaluated. Each entry keeps a tally of how often it was chosen as the
winning model. When the store is full the entry with the lowest
tally * accuracy product is evicted; near-duplicate spectra are refused
outright.
"""

from __future__ import annotations

import csv
import glob
import os
from typing import Optional

import numpy as np

from .errors import SchemaError
from .forest import DEFAULT_EVAL_WINDOW, Scoreboard
from .spectrum import (FourierSpectrum, Packed, classify_blocks, spectra_equal,
                       stack)
from .stream import Instance

_CHUNK = 64  # instances per batch of repository scoring


class RepositoryEntry:
    def __init__(self, spectrum: FourierSpectrum, entry_id: int):
        self.spectrum = spectrum
        self.entry_id = entry_id  # stable across evictions of other entries
        self.winner_tally = 0


class Repository:
    def __init__(self, capacity: int = 50,
                 eval_window: int = DEFAULT_EVAL_WINDOW,
                 duplicate_tolerance: float = 0.01):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.duplicate_tolerance = duplicate_tolerance
        self.entries: list[RepositoryEntry] = []
        # column i scores entries[i]
        self.scores = Scoreboard(eval_window, hits=self._hits)
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
        self.scores.sync()  # queued instances score against the old entries
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
        """Queue one labeled instance for scoring by every entry; it is kept,
        unchanged, until the scores are next read or the entries change."""
        if not self.entries:
            return
        d = self.entries[0].spectrum.attribute_count
        if len(inst.features) != d:
            raise SchemaError(
                f"instance has {len(inst.features)} attributes, repository "
                f"holds spectra over {d}")
        self.scores.record(inst)

    def _hits(self, queued) -> np.ndarray:
        """Hit bits of every entry on each queued instance, one row each,
        evaluated in chunks of ``_CHUNK`` rows to bound the temporaries."""
        insts = list(queued)
        out = np.empty((len(insts), len(self.entries)), dtype=bool)
        for start in range(0, len(insts), _CHUNK):
            chunk = insts[start:start + _CHUNK]
            labels = np.array([inst.label for inst in chunk])
            out[start:start + _CHUNK] = self.classify_all(
                np.stack([inst.features for inst in chunk])) == labels[:, None]
        return out

    def classify_all(self, features: np.ndarray) -> np.ndarray:
        """Class predictions of every entry for an (n, d) instance matrix,
        shape (n, entries)."""
        if not self.entries:
            return np.zeros((len(features), 0), dtype=np.uint8)
        return classify_blocks(self._packed, features)

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
        """Write every spectrum plus an index.csv of entry statistics, and
        delete the spectrum files of an earlier export that are not rewritten."""
        os.makedirs(directory, exist_ok=True)
        written = set()
        with open(os.path.join(directory, "index.csv"), "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["entry_id", "file", "winner_tally", "accuracy",
                        "coefficients", "order_cutoff",
                        "captured_energy_fraction"])
            for e, acc in zip(self.entries, self.scores.accuracies()):
                fname = f"spectrum_{e.entry_id:04d}.txt"
                e.spectrum.write(os.path.join(directory, fname))
                written.add(fname)
                w.writerow([e.entry_id, fname, e.winner_tally,
                            f"{acc:.6f}", len(e.spectrum),
                            e.spectrum.order_cutoff,
                            f"{e.spectrum.captured_energy_fraction:.6f}"])
        for stale in set(glob.glob("spectrum_*.txt", root_dir=directory)) - written:
            os.remove(os.path.join(directory, stale))
