"""Labeled instance streams: synthetic recurrent-concept generators and file ingestion.

All streams emit :class:`Instance` objects with *binary* feature vectors.
Numeric sources (the synthetic generators, CSV files) produce raw rows in
blocks of at most ``BLOCK_ROWS`` rows: a float ``(n, k)`` array and a uint8
``(n,)`` label array, never spanning two segments. An equal-frequency quantile
:class:`Binarizer`, fitted on a leading calibration window, codes a whole
block at once, so downstream learners only ever see bits.

A generator draws a block's label noise as one ``noise_rng.random(n)`` and
SEA draws its block's rows as one ``uniform`` call. numpy draws doubles in
order, so a stream is the same as when it was drawn one row at a time.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParamsError,
    InvalidScheduleError,
    RowParseError,
    UnsupportedDatasetError,
)

log = logging.getLogger(__name__)

DEFAULT_CALIBRATION_SIZE = 1000
# Most rows in one raw block; bounds the memory a long segment takes.
BLOCK_ROWS = 4096
# Widest numeric code; 1000 calibration rows cannot fill more than 10 bits,
# and the coder's table has 2**bits rows.
MAX_BITS_PER_ATTRIBUTE = 16


@dataclass(frozen=True)
class Schema:
    """Attribute layout of a binary instance stream."""

    attribute_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.attribute_names) < 1:
            raise InvalidParamsError("schema needs at least one attribute")
        if len(set(self.attribute_names)) != len(self.attribute_names):
            raise InvalidParamsError("attribute names must be unique")

    @property
    def d(self) -> int:
        return len(self.attribute_names)


@dataclass(slots=True)
class Instance:
    """One stream record: bit features, class label in {0,1}, arrival index."""

    features: np.ndarray  # uint8 vector of length schema.d
    label: int
    index: int


@dataclass(frozen=True)
class Segment:
    """One homogeneous stretch of the stream."""

    concept_id: int
    params: dict
    length: int
    seed: int

    def __post_init__(self):
        if self.length <= 0:
            raise InvalidScheduleError("segment length must be positive")


@dataclass(frozen=True)
class ConceptSchedule:
    """Ordered segments plus a global label-noise probability.

    Ground-truth drift points are the cumulative segment boundaries.
    """

    segments: tuple[Segment, ...]
    noise_probability: float = 0.0

    def __post_init__(self):
        if not self.segments:
            raise InvalidScheduleError("schedule has no segments")
        if not 0.0 <= self.noise_probability <= 1.0:
            raise InvalidScheduleError("noise probability must be in [0,1]")
        if len({_attribute_count(s.params) for s in self.segments}) > 1:
            raise InvalidScheduleError("segments disagree on 'attribute_count'")

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.segments)

    def boundaries(self) -> tuple[int, ...]:
        """Instance indices where a new segment starts (first segment excluded)."""
        out, pos = [], 0
        for seg in self.segments[:-1]:
            pos += seg.length
            out.append(pos)
        return tuple(out)


def recurring_schedule(
    concept_params: Sequence[dict],
    segment_length: int,
    recurrences: int,
    noise_probability: float = 0.0,
    base_seed: int = 0,
) -> ConceptSchedule:
    """Cycle the given concepts ``recurrences`` times with fresh per-segment seeds.

    Every reappearance of a concept gets a new seed, so recurring concepts are
    similar but not identical draws from the same concept family.
    """
    n_segments = len(concept_params) * recurrences
    seeds = np.random.SeedSequence(base_seed).generate_state(n_segments)
    segments = []
    for i in range(n_segments):
        cid = i % len(concept_params)
        segments.append(
            Segment(concept_id=cid, params=dict(concept_params[cid]),
                    length=segment_length, seed=int(seeds[i]))
        )
    return ConceptSchedule(tuple(segments), noise_probability)


class Binarizer:
    """Maps numeric feature rows to fixed-width bit vectors.

    Each numeric attribute gets ``2**bits - 1`` equal-frequency thresholds and
    is coded by the number of thresholds its value exceeds, emitted MSB first.
    Attributes whose calibration values are all in {0, 1} pass through as one
    bit each.
    """

    def __init__(self, thresholds: list[Optional[np.ndarray]], bits: list[int],
                 input_names: Optional[Sequence[str]] = None):
        self.thresholds = thresholds  # None entry = binary passthrough
        self.bits = bits
        self.input_names = list(input_names) if input_names else [
            f"f{i+1}" for i in range(len(bits))
        ]
        # per attribute: None (passthrough) or a (codes, b) uint8 table of the
        # bits of each code, MSB first
        self._tables: list[Optional[np.ndarray]] = [
            None if th is None else (
                (np.arange(len(th) + 1)[:, None] >> np.arange(b - 1, -1, -1)) & 1
            ).astype(np.uint8)
            for th, b in zip(thresholds, bits)
        ]
        self._width = sum(bits)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Code a ``(n, k)`` block into ``(n, width)`` uint8 bits: each value
        by the number of thresholds strictly below it
        (``np.searchsorted(th, v, side="left")``); NaN sorts last, so it takes
        the top code."""
        rows = np.asarray(rows, dtype=float)
        out = np.empty((rows.shape[0], self._width), dtype=np.uint8)
        pos = 0
        for a, (th, table) in enumerate(zip(self.thresholds, self._tables)):
            col = rows[:, a]
            if table is None:
                out[:, pos] = col > 0.5
                pos += 1
            else:
                out[:, pos:pos + table.shape[1]] = table[
                    np.searchsorted(th, col, side="left")]
                pos += table.shape[1]
        return out

    def transform_row(self, row: Sequence[float]) -> np.ndarray:
        """:meth:`transform` of a one-row block."""
        return self.transform(np.asarray(row, dtype=float)[None, :])[0]

    def output_names(self) -> tuple[str, ...]:
        names = []
        for name, th, b in zip(self.input_names, self.thresholds, self.bits):
            if th is None or b == 1:
                names.append(name)
            else:
                names.extend(f"{name}_b{k}" for k in range(b))
        return tuple(names)


def binarize(calibration: Sequence[Sequence[float]], bits_per_attribute: int = 1,
             attribute_names: Optional[Sequence[str]] = None) -> Binarizer:
    """Fit a :class:`Binarizer` on raw numeric calibration rows.

    Thresholds are the ``k / 2**b`` quantiles (k = 1 .. 2**b - 1) of the
    calibration sample, linearly interpolated. A constant attribute degenerates
    to code 0 everywhere; that is logged as a warning, not an error.
    """
    if len(calibration) == 0:
        raise InvalidParamsError("calibration sample is empty")
    if not 1 <= bits_per_attribute <= MAX_BITS_PER_ATTRIBUTE:
        raise InvalidParamsError(
            f"bits_per_attribute must be in [1, {MAX_BITS_PER_ATTRIBUTE}]")
    data = np.asarray(calibration, dtype=float)
    if data.ndim != 2:
        raise InvalidParamsError("calibration rows must share one width")
    b = bits_per_attribute
    qs = np.arange(1, 2 ** b) / (2 ** b)
    thresholds: list[Optional[np.ndarray]] = []
    bits: list[int] = []
    for a in range(data.shape[1]):
        col = data[:, a]
        uniq = np.unique(col)
        if np.isin(uniq, (0.0, 1.0)).all():
            thresholds.append(None)
            bits.append(1)
            continue
        if uniq.size == 1:
            log.warning("attribute %d is constant in the calibration window; "
                        "all values code to 0", a)
        thresholds.append(np.quantile(col, qs))
        bits.append(b)
    return Binarizer(thresholds, bits, attribute_names)


class InstanceStream:
    """Iterator of :class:`Instance` carrying its binarized schema.

    Single-consumer: independent stream objects may be iterated on different
    threads, but one stream must not be shared.
    """

    def __init__(self, schema: Schema, instances: Iterator[Instance],
                 boundaries: tuple[int, ...] = ()):
        self.schema = schema
        self.boundaries = boundaries
        self._it = instances

    def __iter__(self) -> Iterator[Instance]:
        return self._it

    def __next__(self) -> Instance:
        return next(self._it)


# (rows, labels) blocks: float (n, k) rows and uint8 (n,) labels
RawIter = Iterator[tuple[np.ndarray, np.ndarray]]


def _segment_rngs(segment: Segment) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent concept and noise RNG streams for one segment.

    Keeping noise on its own stream makes the pre-noise stream identical
    across noise levels for the same schedule seeds.
    """
    concept_ss, noise_ss = np.random.SeedSequence(segment.seed).spawn(2)
    return np.random.default_rng(concept_ss), np.random.default_rng(noise_ss)


def _block_sizes(length: int) -> Iterator[int]:
    """Row counts of the blocks of one segment."""
    for start in range(0, length, BLOCK_ROWS):
        yield min(BLOCK_ROWS, length - start)


def _attribute_count(params: dict) -> int:
    """Feature width of an RBF or hyperplane segment; a schedule keeps one."""
    return params.get("attribute_count", 10)


def sea_raw(schedule: ConceptSchedule) -> RawIter:
    """Numeric SEA stream: 3 features uniform on [0,10]; label = f1+f2 > threshold."""
    p = schedule.noise_probability
    for seg in schedule.segments:
        theta = seg.params.get("threshold")
        if theta is None or theta <= 0:
            raise InvalidParamsError("sea segment needs a positive 'threshold'")
        rng, noise_rng = _segment_rngs(seg)
        for n in _block_sizes(seg.length):
            rows = rng.uniform(0.0, 10.0, size=(n, 3))
            labels = (rows[:, 0] + rows[:, 1] > theta) ^ (noise_rng.random(n) < p)
            yield rows, labels.view(np.uint8)


def rbf_raw(schedule: ConceptSchedule) -> RawIter:
    """Numeric RBF stream: instances drawn around randomly placed class centroids.

    Rows are drawn one at a time, since each interleaves a centroid, a
    direction and a normal draw on one generator."""
    p = schedule.noise_probability
    for seg in schedule.segments:
        k = seg.params.get("centroid_count")
        if k is None or k < 2:
            raise InvalidParamsError("rbf segment needs 'centroid_count' >= 2")
        nd = _attribute_count(seg.params)
        rng, noise_rng = _segment_rngs(seg)
        centers = rng.uniform(0.0, 1.0, size=(k, nd))
        classes = rng.integers(0, 2, size=k).astype(np.uint8)
        weights = rng.uniform(0.0, 1.0, size=k)
        weights = weights / weights.sum()
        spreads = rng.uniform(0.0, 1.0, size=k)
        # rng.choice(k, p=weights) normalizes cdf = weights.cumsum() by its last
        # value and answers searchsorted(cdf, rng.random(), side="right"); the
        # same cdf, built once per segment, gives the same index from the same
        # draw without re-checking the weights on every call
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        for n in _block_sizes(seg.length):
            rows = np.empty((n, nd))
            picks = np.empty(n, dtype=np.intp)
            for i in range(n):
                c = bisect_right(cdf, rng.random())
                direction = rng.uniform(-1.0, 1.0, size=nd)
                norm = np.linalg.norm(direction)
                if norm == 0.0:
                    norm = 1.0
                magnitude = rng.normal(0.0, 1.0) * spreads[c]
                rows[i] = centers[c] + direction * (magnitude / norm)
                picks[i] = c
            yield rows, classes[picks] ^ (noise_rng.random(n) < p)


def hyperplane_raw(schedule: ConceptSchedule) -> RawIter:
    """Numeric rotating-hyperplane stream over [0,1]^nd.

    Label is the side of sum(w_i x_i) > sum(w)/2; the first
    ``drifting_attribute_count`` weights move by ``mag_change`` per instance,
    each flipping direction with probability ``direction_change_prob``.
    Rows are drawn one at a time, since the weights move after each.
    """
    p = schedule.noise_probability
    for seg in schedule.segments:
        nd = _attribute_count(seg.params)
        k = seg.params.get("drifting_attribute_count")
        if k is None or k < 0 or k > nd:
            raise InvalidParamsError(
                "hyperplane segment needs 'drifting_attribute_count' in [0, d]")
        mag = seg.params.get("mag_change", 0.001)
        sigma = seg.params.get("direction_change_prob", 0.1)
        rng, noise_rng = _segment_rngs(seg)
        if "weights" in seg.params:
            w = np.asarray(seg.params["weights"], dtype=float).copy()
            if w.shape != (nd,):
                raise InvalidParamsError("hyperplane 'weights' must have length d")
        else:
            w = rng.uniform(0.0, 1.0, size=nd)
        directions = np.ones(k)
        for n in _block_sizes(seg.length):
            rows = np.empty((n, nd))
            labels = np.empty(n, dtype=bool)
            for i in range(n):
                row = rng.uniform(0.0, 1.0, size=nd)
                rows[i] = row
                labels[i] = row @ w > 0.5 * w.sum()
                if k:
                    w[:k] += directions * mag
                    flips = rng.random(k) < sigma
                    directions[flips] *= -1.0
            yield rows, (labels ^ (noise_rng.random(n) < p)).view(np.uint8)


class Dataset(NamedTuple):
    """A synthetic dataset: its raw generator and its pool of concept parameters."""

    raw: Callable[[ConceptSchedule], RawIter]
    concepts: tuple[dict, ...]


# Every synthetic dataset; a recurring schedule cycles a prefix of the pool.
DATASETS = {
    "sea": Dataset(sea_raw, tuple({"threshold": t} for t in (8.0, 7.0, 9.0, 9.5))),
    "rbf": Dataset(rbf_raw, tuple({"centroid_count": k, "attribute_count": 10}
                                  for k in (5, 15, 25, 35))),
    "hyperplane": Dataset(hyperplane_raw, tuple(
        {"drifting_attribute_count": k, "attribute_count": 10} for k in (2, 4, 6, 8))),
}


def _coded_stream(raw: RawIter, bits_per_attribute: int, calibration_size: int,
                  boundaries: tuple[int, ...] = (),
                  attribute_names: Optional[Sequence[str]] = None) -> InstanceStream:
    """Fit a binarizer on the first ``calibration_size`` raw rows, read now
    as whole blocks, and stream every row, those included, coded by it."""
    head, held = [], 0
    for block in raw:
        head.append(block)
        held += len(block[1])
        if held >= calibration_size:
            break
    calibration = np.concatenate([r for r, _ in head]) if head else np.empty((0, 0))
    binz = binarize(calibration[:calibration_size], bits_per_attribute,
                    attribute_names)

    def gen() -> Iterator[Instance]:
        index = 0
        for rows, labels in itertools.chain(head, raw):
            for features, label in zip(binz.transform(rows), labels.tolist()):
                yield Instance(features, label, index)
                index += 1

    return InstanceStream(Schema(binz.output_names()), gen(), boundaries)


def synthetic_stream(dataset: str, schedule: ConceptSchedule,
                     bits_per_attribute: int = 1,
                     calibration_size: int = DEFAULT_CALIBRATION_SIZE) -> InstanceStream:
    """Binarized stream of ``DATASETS[dataset]``'s generator over ``schedule``;
    attributes are named ``f1 .. fk``."""
    return _coded_stream(DATASETS[dataset].raw(schedule), bits_per_attribute,
                         calibration_size, schedule.boundaries())


def _sniff_delimiter(header_line: str) -> str:
    return ";" if header_line.count(";") > header_line.count(",") else ","


def _read_rows(path) -> Iterator[tuple[int, list[str]]]:
    with open(path, "r", newline="") as fh:
        first = fh.readline()
        if not first:
            raise UnsupportedDatasetError(f"{path}: empty file")
        delim = _sniff_delimiter(first)
        header = next(csv.reader([first], delimiter=delim))
        yield 1, header
        for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if row:
                yield lineno, row


def file_stream(path, bits_per_attribute: int = 1,
                calibration_size: int = DEFAULT_CALIBRATION_SIZE) -> InstanceStream:
    """Stream a delimited text file (header row, last column = two-valued class).

    The delimiter is ``;`` when the header holds more of them than commas,
    else ``,``. Numeric attributes are quantile-binarized from a leading
    calibration window. Class values map to {1, 0} in first-seen order; that
    mapping is reported in the run log.
    """
    rows = _read_rows(path)
    _, header = next(rows)
    if len(header) < 2:
        raise UnsupportedDatasetError(f"{path}: need at least one feature column")
    feature_names = [h.strip() for h in header[:-1]]

    class_map: dict[str, int] = {}

    def parse(lineno: int, row: list[str]) -> tuple[list[float], int]:
        if len(row) != len(header):
            raise RowParseError(lineno, f"expected {len(header)} fields, got {len(row)}")
        try:
            feats = [float(v) for v in row[:-1]]
        except ValueError as e:
            raise RowParseError(lineno, str(e)) from None
        if not all(map(math.isfinite, feats)):
            raise RowParseError(lineno, "attribute values must be finite numbers")
        cls = row[-1].strip()
        if cls not in class_map:
            if len(class_map) == 2:
                raise UnsupportedDatasetError(
                    f"{path}: more than 2 class values (saw {sorted(class_map)} "
                    f"then {cls!r} at line {lineno})")
            class_map[cls] = 1 if not class_map else 0
            if len(class_map) == 2:
                inv = {v: k for k, v in class_map.items()}
                log.info("class mapping for %s: %r -> 1, %r -> 0", path, inv[1], inv[0])
        return feats, class_map[cls]

    first = next(rows, None)
    if first is None:
        raise UnsupportedDatasetError(f"{path}: no data rows")
    parsed = itertools.starmap(parse, itertools.chain([first], rows))

    def blocks() -> RawIter:
        while chunk := list(itertools.islice(parsed, BLOCK_ROWS)):
            feats, labels = zip(*chunk)
            yield np.array(feats, dtype=float), np.array(labels, dtype=np.uint8)

    return _coded_stream(blocks(), bits_per_attribute, calibration_size,
                         attribute_names=feature_names)
