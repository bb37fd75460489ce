"""Change-detector behavior, including a naive reference cross-check and a
full-scan oracle for the lazy boundary checks."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fct.adwin import BUCKET_BYTES, DETECTOR_HEADER_BYTES, AdwinDetector


class FullScanAdwin:
    """The bucketed detector that tests every boundary on every add.

    Same histogram and cut rule as :class:`AdwinDetector`, without the skip
    bound: after each insert it rescans all bucket boundaries, oldest first,
    and drops the oldest bucket while some boundary violates the rule.
    """

    def __init__(self, delta=0.01, max_buckets=5, min_side=5):
        self.delta = delta
        self.max_buckets = max_buckets
        self.min_side = min_side
        self.rows = [deque()]  # rows[i]: sums of 2**i-sized buckets, newest first
        self.width = 0
        self.total = 0

    def add(self, bit: int) -> bool:
        self.rows[0].appendleft(bit)
        self.width += 1
        self.total += bit
        i = 0
        while i < len(self.rows) and len(self.rows[i]) > self.max_buckets + 1:
            if i + 1 == len(self.rows):
                self.rows.append(deque())
            oldest = self.rows[i].pop()
            second = self.rows[i].pop()
            self.rows[i + 1].appendleft(oldest + second)
            i += 1
        cut = False
        while self.width >= 2 * self.min_side and 0 < self.total < self.width:
            if not self._scan_once():
                break
            self._drop_oldest()
            cut = True
        return cut

    def _drop_oldest(self) -> None:
        for i in range(len(self.rows) - 1, -1, -1):
            if self.rows[i]:
                self.total -= self.rows[i].pop()
                self.width -= 1 << i
                return

    def _scan_once(self) -> bool:
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


class ReferenceAdwin:
    """Exact sliding-window detector: same cut rule, no histogram.

    Keeps every bit and scans every split point, so it is quadratic and only
    usable on short streams; it exists to cross-check the bucketed detector.
    """

    def __init__(self, delta=0.01, min_side=5):
        self.delta = delta
        self.min_side = min_side
        self.bits: list[int] = []

    def add(self, bit: int) -> bool:
        self.bits.append(bit)
        cut = False
        while self._violates():
            self.bits.pop(0)
            cut = True
        return cut

    def _violates(self) -> bool:
        w = len(self.bits)
        total = sum(self.bits)
        if w < 2 * self.min_side or total in (0, w):
            return False
        log_term = math.log(4.0 * w / self.delta)
        s0 = 0
        for n0 in range(1, w):
            s0 += self.bits[n0 - 1]
            n1 = w - n0
            if n0 < self.min_side or n1 < self.min_side:
                continue
            m = 1.0 / (1.0 / n0 + 1.0 / n1)
            eps = math.sqrt(log_term / (2.0 * m))
            if abs(s0 / n0 - (total - s0) / n1) >= eps:
                return True
        return False


def test_all_zeros_never_fires():
    det = AdwinDetector()
    assert not any(det.add(0) for _ in range(10_000))
    assert det.width == 10_000
    assert det.mean == 0.0


def test_fresh_and_small_window_accounting():
    det = AdwinDetector()
    assert det.width == 0 and det.mean == 0.0
    for _ in range(5):
        det.add(0)
    assert det.width == 5 and det.mean == 0.0
    det2 = AdwinDetector()
    for b in (1, 1, 0, 0):
        det2.add(b)
    assert det2.mean == pytest.approx(0.5)


def test_rejects_non_bits():
    det = AdwinDetector()
    with pytest.raises(ValueError):
        det.add(2)
    with pytest.raises(ValueError):
        AdwinDetector(delta=0.0)


def test_mean_is_exact_while_uncut(rng):
    det = AdwinDetector(delta=1e-6)  # conservative: no cut expected
    bits = (rng.random(3_000) < 0.3).astype(int)
    fired = any(det.add(int(b)) for b in bits)
    assert not fired
    assert det.width == 3_000
    assert det.mean == pytest.approx(bits.mean())


def test_abrupt_shift_detected_quickly():
    rng = np.random.default_rng(77)
    det = AdwinDetector(delta=0.01)
    for b in (rng.random(2_000) < 0.05).astype(int):
        det.add(int(b))
    width_before = det.width
    fired_at = None
    for i, b in enumerate((rng.random(2_000) < 0.5).astype(int)):
        if det.add(int(b)):
            fired_at = i
            break
    assert fired_at is not None and fired_at < 1_000
    assert det.width < width_before + fired_at + 1  # a cut shed old data


def test_matches_reference_on_shift_streams():
    # detection positions may differ by bucket granularity, not by much
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        bits = np.concatenate([
            (rng.random(1_500) < 0.05).astype(int),
            (rng.random(1_500) < 0.5).astype(int),
        ])
        det, ref = AdwinDetector(), ReferenceAdwin()
        ours = next((i for i, b in enumerate(bits) if det.add(int(b))), None)
        theirs = next((i for i, b in enumerate(bits) if ref.add(int(b))), None)
        assert ours is not None and theirs is not None
        assert ours >= 1_500 and theirs >= 1_500  # neither fires in-block
        assert abs(ours - theirs) <= 150


def test_reference_agrees_nothing_fires_when_stationary():
    rng = np.random.default_rng(5)
    bits = (rng.random(1_200) < 0.2).astype(int)
    det, ref = AdwinDetector(), ReferenceAdwin()
    ours = [i for i, b in enumerate(bits) if det.add(int(b))]
    theirs = [i for i, b in enumerate(bits) if ref.add(int(b))]
    assert ours == [] and theirs == []


def test_false_positive_rate_is_tiny(rng):
    fired = 0
    det = AdwinDetector(delta=0.01)
    for b in (rng.random(20_000) < 0.3).astype(int):
        fired += det.add(int(b))
    assert fired <= 1


def test_bucket_count_stays_logarithmic(rng):
    det = AdwinDetector()
    for n, b in enumerate((rng.random(50_000) < 0.4).astype(int), start=1):
        det.add(int(b))
        if n % 10_000 == 0:
            assert det.bucket_count() <= 6 * (math.log2(det.width) + 1)


def test_bucket_rows_respect_capacity(rng):
    det = AdwinDetector(max_buckets=5)
    for b in (rng.random(4_096) < 0.5).astype(int):
        det.add(int(b))
        assert all(len(row) <= 6 for row in det.rows)
    # row sizes are powers of two by construction; widths must reconcile
    total = sum(len(row) << i for i, row in enumerate(det.rows))
    assert total == det.width


def test_width_drops_after_cut():
    rng = np.random.default_rng(123)
    det = AdwinDetector()
    widths = []
    for b in np.concatenate([(rng.random(1_000) < 0.05).astype(int),
                             (rng.random(1_000) < 0.6).astype(int)]):
        before = det.width
        if det.add(int(b)):
            assert det.width < before + 1
            widths.append(det.width)
    assert widths  # at least one cut happened


def test_detection_is_deterministic():
    rng = np.random.default_rng(9)
    bits = np.concatenate([(rng.random(800) < 0.1).astype(int),
                           (rng.random(800) < 0.7).astype(int)])
    runs = []
    for _ in range(2):
        det = AdwinDetector()
        runs.append([i for i, b in enumerate(bits) if det.add(int(b))])
    assert runs[0] == runs[1] and runs[0]


def test_memory_cost_model():
    det = AdwinDetector()
    assert det.memory_bytes() == DETECTOR_HEADER_BYTES
    for _ in range(100):
        det.add(1)
        det.add(0)
    assert det.memory_bytes() == \
        DETECTOR_HEADER_BYTES + BUCKET_BYTES * det.bucket_count()


# Piecewise-Bernoulli error streams: segments of fixed error rate, so the
# rate jumps and the window is cut.
piecewise_streams = st.tuples(
    st.lists(st.tuples(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.5, 0.8, 1.0]),
                       st.integers(min_value=1, max_value=700)),
             min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _bits(stream) -> list[int]:
    segments, seed = stream
    rng = np.random.default_rng(seed)
    return [int(b) for p, n in segments for b in rng.random(n) < p]


@settings(max_examples=60)
@given(piecewise_streams,
       st.sampled_from([1e-5, 0.002, 0.01, 0.1, 0.5]),
       st.sampled_from([1, 2, 5]),
       st.sampled_from([1, 3, 5, 10]))
def test_lazy_checks_match_full_scan_after_every_add(stream, delta, max_buckets,
                                                     min_side):
    det = AdwinDetector(delta, max_buckets, min_side)
    oracle = FullScanAdwin(delta, max_buckets, min_side)
    for i, bit in enumerate(_bits(stream)):
        got = (det.add(bit), det.width, det.total, det.bucket_count())
        want = (oracle.add(bit), oracle.width, oracle.total,
                oracle.bucket_count())
        assert got == want, f"diverged at add {i}"


@settings(max_examples=30)
@given(piecewise_streams, st.sampled_from([1e-5, 0.01, 0.5]),
       st.sampled_from([1, 5]))
def test_window_accounting_holds_after_every_add(stream, delta, max_buckets):
    det = AdwinDetector(delta, max_buckets)
    for bit in _bits(stream):
        det.add(bit)
        assert det.width == sum(len(row) << i for i, row in enumerate(det.rows))
        assert det.total == sum(_bucket_errors(det))
        assert 0 <= det.total <= det.width


def _bucket_errors(det) -> list[int]:
    """Error count of each bucket, oldest first: the errors up to its end
    less those up to the previous end. Checks that each bucket of row i
    spans 2**i positions and holds at most that many errors."""
    out = []
    end, errors = det._dropped, det._dropped_errors
    for i in range(len(det.rows) - 1, -1, -1):
        for new_end in reversed(det.rows[i]):  # oldest bucket first
            assert new_end - end == 1 << i
            new_errors = det._errors_at[new_end]
            assert 0 <= new_errors - errors <= 1 << i
            out.append(new_errors - errors)
            end, errors = new_end, new_errors
    return out
