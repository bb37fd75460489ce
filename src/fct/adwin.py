"""Adaptive-window change detector over a Bernoulli error stream.

The window is held as an exponential histogram: row i holds buckets of
2**i observations each, newest first, and at most ``max_buckets``+1 buckets
per row before the two oldest merge one row up. A bucket is kept as its end
position, counted in observations since the detector's creation; its errors
are the errors up to its end less those up to the previous bucket's end.
The boundary after each bucket splits the window into an old side (``n0``
observations, ``s0`` errors) and a new side (``n1``, ``s1``). When some
boundary with at least ``min_side`` observations on each side has side
means that differ by at least

    eps = sqrt(ln(4 w / delta) / (2 m)),   m = 1 / (1/n0 + 1/n1),

the oldest bucket is dropped, and this repeats until no boundary violates
the rule (Bifet & Gavalda, SDM 2007).

Only boundaries that could now violate the rule are tested. A boundary's old
side is counted from the detector's creation (its absolute end ``pos`` and
error count), so between two cuts it never changes: an add appends one
boundary at the newest end, and a merge deletes only the boundary between
the two buckets it joins. Only a cut, which drops the oldest bucket, shifts
every ``n0``. After a boundary passes the test, over the next ``k`` adds
with ``r = k / (n1 + k)``:

* the new-side mean moves by at most ``c r``, ``c = max(mu1, 1 - mu1)``,
  because ``mu1' - mu1 = (j/k - mu1) r`` for the ``j <= k`` new errors;
* ``eps' >= eps sqrt(1 - r)``, because ``1/n0 + 1/(n1 + k)`` is at least
  ``(1/n0 + 1/n1)(1 - r)`` and ``ln(4 w / delta)`` only grows with ``w``.

So with ``s = sqrt(1 - r)`` and ``d`` the current mean gap the boundary
cannot fire while ``eps s - c (1 - s**2) - d > SKIP_MARGIN``. The left side
falls as ``k`` grows, so the largest safe ``k`` comes from the positive root
of that quadratic in ``s``; the margin absorbs the rounding of these floats
and of the test itself. The boundary is next tested when that ``k`` runs out
(its due clock, kept in a heap). After a cut, or an add that skipped the
test because the window was too short or all one value, every boundary is
due at once, which is the full rescan of the rule. A change to the cut rule,
such as a variance-aware (Bernstein) threshold, must re-derive this bound.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

# Documented cost-model constants for memory accounting.
BUCKET_BYTES = 16
DETECTOR_HEADER_BYTES = 32

# Slack on the skip bound; far above the float rounding of the cut test.
SKIP_MARGIN = 1e-9


class AdwinDetector:
    """delta is the false-positive budget; smaller = more conservative."""

    def __init__(self, delta: float = 0.01, max_buckets: int = 5,
                 min_side: int = 5):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0,1)")
        self.delta = delta
        self.max_buckets = max_buckets
        self.min_side = min_side
        # rows[i]: end positions of buckets of size 2**i, newest at index 0
        self.rows: list[deque] = [deque()]
        self.width = 0
        self.total = 0
        self._errors_at: dict[int, int] = {}  # live boundary pos -> errors up to it
        self._seen = 0       # observations ever added
        self._dropped = 0    # observations ever cut, = pos of the last dropped bucket
        self._dropped_errors = 0
        self._due: list[tuple[int, int]] = []  # heap of (clock, pos)
        self._rescan = True  # every boundary is due

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def add(self, bit: int) -> bool:
        """Insert one observation (1 = error); True when the window was cut."""
        if bit not in (0, 1):
            raise ValueError("detector accepts bits only")
        self.width += 1
        self.total += bit
        self._seen += 1
        pos = self._seen
        self.rows[0].appendleft(pos)
        self._errors_at[pos] = self._dropped_errors + self.total
        if not self._rescan:
            heapq.heappush(self._due, (pos + self.min_side, pos))
        self._compress()
        return self._shrink()

    def _compress(self) -> None:
        i = 0
        while i < len(self.rows) and len(self.rows[i]) > self.max_buckets + 1:
            if i + 1 == len(self.rows):
                self.rows.append(deque())
            row = self.rows[i]
            # the boundary between the two oldest goes; the merged bucket
            # ends where the newer did, still newer than everything one row up
            del self._errors_at[row.pop()]
            self.rows[i + 1].appendleft(row.pop())
            i += 1

    def _drop_oldest(self) -> None:
        for i in range(len(self.rows) - 1, -1, -1):
            if self.rows[i]:
                end = self.rows[i].pop()
                self.width -= 1 << i
                self.total -= self._errors_at[end] - self._dropped_errors
                self._dropped = end
                self._dropped_errors = self._errors_at.pop(end)
                self._rescan = True
                return

    def _shrink(self) -> bool:
        cut = False
        while self.width >= 2 * self.min_side and 0 < self.total < self.width:
            if not self._violated():
                return cut
            self._drop_oldest()
            cut = True
        # no boundary was tested, so none was rescheduled: test all next time
        self._rescan = True
        return cut

    def _violated(self) -> bool:
        """True when some due boundary violates the cut threshold; every
        due boundary that holds gets its next due clock."""
        now = self._seen
        due = self._due
        if self._rescan:
            # positions ascend in insertion order, so the list is a heap
            due[:] = [(now, pos) for pos in self._errors_at]
            self._rescan = False
        if not due or due[0][0] > now:
            return False
        w = self.width
        total = self.total
        min_side = self.min_side
        errors_at = self._errors_at
        dropped = self._dropped
        dropped_errors = self._dropped_errors
        log_term = math.log(4.0 * w / self.delta)
        while due and due[0][0] <= now:
            pos = heapq.heappop(due)[1]
            errors = errors_at.get(pos)
            if errors is None:  # merged away
                continue
            n0 = pos - dropped
            if n0 < min_side:  # stays too short until the next cut
                continue
            n1 = w - n0
            if n1 < min_side:
                heapq.heappush(due, (now + min_side - n1, pos))
                continue
            s0 = errors - dropped_errors
            m = 1.0 / (1.0 / n0 + 1.0 / n1)
            eps = math.sqrt(log_term / (2.0 * m))
            mu1 = (total - s0) / n1
            gap = abs(s0 / n0 - mu1)
            if gap >= eps:
                return True
            # largest k with eps s + c s^2 - (c + gap + margin) > 0
            c = mu1 if mu1 > 0.5 else 1.0 - mu1
            q = c + gap + SKIP_MARGIN
            inv_s = (eps + math.sqrt(eps * eps + 4.0 * c * q)) / (2.0 * q)
            skip = n1 * (inv_s * inv_s - 1.0)
            heapq.heappush(due, (now + 1 + int(skip) if skip > 0.0 else now + 1, pos))
        return False

    def bucket_count(self) -> int:
        return sum(len(r) for r in self.rows)

    def memory_bytes(self) -> int:
        return DETECTOR_HEADER_BYTES + BUCKET_BYTES * self.bucket_count()
