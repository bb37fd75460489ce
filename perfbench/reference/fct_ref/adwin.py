"""Adaptive-window change detector over a Bernoulli error stream.

The window is held as an exponential histogram: row i stores buckets that
each summarize 2**i observations, newest first, and at most ``max_buckets``+1
buckets per row before the two oldest merge one row up. Every insert rescans
the bucket boundaries; a boundary whose two sides differ in mean by more than
a Hoeffding-style cut threshold drops the oldest bucket, and the scan repeats
until no boundary is in violation.
"""

from __future__ import annotations

import math
from collections import deque

# Documented cost-model constants for memory accounting.
BUCKET_BYTES = 16
DETECTOR_HEADER_BYTES = 32


class AdwinDetector:
    """delta is the false-positive budget; smaller = more conservative."""

    def __init__(self, delta: float = 0.01, max_buckets: int = 5,
                 min_side: int = 5):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0,1)")
        self.delta = delta
        self.max_buckets = max_buckets
        self.min_side = min_side
        # rows[i]: sums of buckets of size 2**i, newest at index 0
        self.rows: list[deque] = [deque()]
        self.width = 0
        self.total = 0

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def add(self, bit: int) -> bool:
        """Insert one observation (1 = error); True when the window was cut."""
        if bit not in (0, 1):
            raise ValueError("detector accepts bits only")
        self.rows[0].appendleft(bit)
        self.width += 1
        self.total += bit
        self._compress()
        return self._shrink()

    def _compress(self) -> None:
        i = 0
        while i < len(self.rows) and len(self.rows[i]) > self.max_buckets + 1:
            if i + 1 == len(self.rows):
                self.rows.append(deque())
            oldest = self.rows[i].pop()
            second = self.rows[i].pop()
            # merged bucket is still newer than everything one row up
            self.rows[i + 1].appendleft(oldest + second)
            i += 1

    def _drop_oldest(self) -> None:
        for i in range(len(self.rows) - 1, -1, -1):
            if self.rows[i]:
                s = self.rows[i].pop()
                self.width -= 1 << i
                self.total -= s
                return

    def _shrink(self) -> bool:
        cut = False
        while self.width >= 2 * self.min_side and 0 < self.total < self.width:
            if not self._scan_once():
                break
            self._drop_oldest()
            cut = True
        return cut

    def _scan_once(self) -> bool:
        """True when some bucket boundary violates the cut threshold."""
        w = self.width
        log_term = math.log(4.0 * w / self.delta)
        n0 = 0
        s0 = 0
        for i in range(len(self.rows) - 1, -1, -1):
            size = 1 << i
            for s in reversed(self.rows[i]):  # oldest bucket first
                n0 += size
                s0 += s
                n1 = w - n0
                if n1 < self.min_side:
                    return False
                if n0 < self.min_side:
                    continue
                m = 1.0 / (1.0 / n0 + 1.0 / n1)
                eps = math.sqrt(log_term / (2.0 * m))
                if abs(s0 / n0 - (self.total - s0) / n1) >= eps:
                    return True
        return False

    def bucket_count(self) -> int:
        return sum(len(r) for r in self.rows)

    def memory_bytes(self) -> int:
        return DETECTOR_HEADER_BYTES + BUCKET_BYTES * self.bucket_count()
