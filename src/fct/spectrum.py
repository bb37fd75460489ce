"""Sparse Walsh-coefficient summaries of binary decision trees.

A tree over d binary attributes computes f: {0,1}^d -> {0,1}. Its transform
coefficients are indexed by attribute subsets, held here as Python int
bitmasks (bit a of the mask <-> attribute a), so d is not limited by machine
word width. Coefficients are accumulated path by path: a root-to-leaf path
with defined set D contributes only to indices that are subsets of D, and the
contribution is 2**-|D| * f * parity-sign. Everything outside those subsets
cancels, which is what keeps tree spectra sparse.

Low orders are computed first; accumulation stops once a lower bound on the
retained energy fraction reaches the requested threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidModelError, SchemaError
from .hoeffding import TreePath

# Documented cost-model constant: accounting bytes per stored coefficient
# (index bitmap share plus one float).
COEFF_BYTES = 24
SPECTRUM_HEADER_BYTES = 32

# Spectra in array form: a uint8 index-bit matrix with one row per index in
# sorted-mask order, the row values, and the row at which each spectrum (block)
# starts. Every block begins with the empty index, 0.0 when it has no
# coefficient there, so no block is empty.
Packed = tuple[np.ndarray, np.ndarray, np.ndarray]


def _mask_bits(mask: int) -> list[int]:
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return out


def parity_sums(packed: Packed, instances: np.ndarray) -> np.ndarray:
    """Reconstructed values of every block at every instance, shape (n, blocks).

    Entry (r, s) sums value * (-1)^|index & x_r| over the rows of block s.
    The uint8 overlap count wraps modulo 256, which keeps its parity.
    """
    bits, values, starts = packed
    parity = np.dot(np.asarray(instances, dtype=np.uint8), bits.T) & 1
    return np.add.reduceat(np.where(parity, -values, values), starts, axis=1)


def stack(spectra: Sequence[FourierSpectrum]) -> Packed:
    """One packed operand holding each spectrum as its own block."""
    rows = [len(s.packed[1]) for s in spectra]
    return (np.concatenate([s.packed[0] for s in spectra]),
            np.concatenate([s.packed[1] for s in spectra]),
            np.cumsum([0] + rows[:-1]))


@dataclass
class FourierSpectrum:
    """Sparse coefficient table plus the bookkeeping of its truncation.

    ``coefficients`` maps index bitmask -> value; exact zeros are not stored
    and read back as 0.0. ``order_cutoff`` is the first order whose retained
    energy bound met the threshold; ``captured_energy_fraction`` is retained
    energy over the function's exact total energy. ``packed`` is the same
    table as a one-block :func:`parity_sums` operand, built at creation.
    """

    attribute_count: int
    coefficients: dict[int, float]
    order_cutoff: int
    captured_energy_fraction: float
    packed: Packed = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        masks = sorted(self.coefficients.keys() | {0})
        bits = np.zeros((len(masks), self.attribute_count), dtype=np.uint8)
        for i, m in enumerate(masks):
            bits[i, _mask_bits(m)] = 1
        values = np.array([self.value(m) for m in masks])
        self.packed = (bits, values, np.zeros(1, dtype=np.intp))

    def value(self, index_mask: int) -> float:
        return self.coefficients.get(index_mask, 0.0)

    def __len__(self) -> int:
        return len(self.coefficients)

    def total_energy(self) -> float:
        return float(sum(v * v for v in self.coefficients.values()))

    def order_energy(self, order: int) -> float:
        return float(sum(v * v for m, v in self.coefficients.items()
                         if m.bit_count() == order))

    def max_order(self) -> int:
        return max((m.bit_count() for m in self.coefficients), default=0)

    def evaluate(self, features: Sequence[int]) -> float:
        """Reconstructed function value at one instance."""
        return float(self.evaluate_batch(np.asarray(features)[None, :])[0])

    def evaluate_batch(self, instances: np.ndarray) -> np.ndarray:
        """Reconstructed function values for a (n, d) 0/1 matrix of instances."""
        if instances.ndim != 2 or instances.shape[1] != self.attribute_count:
            raise SchemaError(
                f"instance matrix shape {instances.shape} does not match "
                f"attribute count {self.attribute_count}")
        return parity_sums(self.packed, instances)[:, 0]

    def memory_bytes(self) -> int:
        return SPECTRUM_HEADER_BYTES + COEFF_BYTES * len(self.coefficients)

    def to_text(self) -> str:
        lines = [
            f"d {self.attribute_count}",
            f"order_cutoff {self.order_cutoff}",
            f"captured_energy_fraction {format(self.captured_energy_fraction, '.17g')}",
        ]
        for m in sorted(self.coefficients, key=lambda m: (m.bit_count(), m)):
            bits = ",".join(str(a) for a in _mask_bits(m)) or "-"
            lines.append(f"coeff {bits} {format(self.coefficients[m], '.17g')}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FourierSpectrum":
        d = None
        cutoff = None
        captured = None
        coeffs: dict[int, float] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            key, _, rest = line.partition(" ")
            if key == "d":
                d = int(rest)
            elif key == "order_cutoff":
                cutoff = int(rest)
            elif key == "captured_energy_fraction":
                captured = float(rest)
            elif key == "coeff":
                bits_s, _, val_s = rest.partition(" ")
                mask = 0
                if bits_s != "-":
                    for tok in bits_s.split(","):
                        mask |= 1 << int(tok)
                coeffs[mask] = float(val_s)
            else:
                raise InvalidModelError(f"unknown spectrum line: {line!r}")
        if d is None or cutoff is None or captured is None:
            raise InvalidModelError("spectrum text is missing header fields")
        return cls(d, coeffs, cutoff, captured)

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_text())

    @classmethod
    def read(cls, path) -> "FourierSpectrum":
        with open(path, "r") as fh:
            return cls.from_text(fh.read())


def inverse_classify(spectrum: FourierSpectrum, features: Sequence[int]) -> int:
    """Class from the reconstructed function value; 0.5 rounds up to class 1."""
    return 1 if spectrum.evaluate(features) >= 0.5 else 0


def spectra_equal(a: FourierSpectrum, b: FourierSpectrum,
                  tolerance: float = 0.01) -> bool:
    """Componentwise closeness; indices missing on one side read as 0."""
    if a.attribute_count != b.attribute_count:
        raise SchemaError(
            f"spectra disagree on attribute count: {a.attribute_count} vs "
            f"{b.attribute_count}")
    for m in a.coefficients.keys() | b.coefficients.keys():
        if abs(a.value(m) - b.value(m)) > tolerance:
            return False
    return True


def exact_total_energy(paths: Iterable[TreePath]) -> float:
    """Sum of squared coefficients of the full (untruncated) transform.

    Equals the mean of f**2 over all of {0,1}^d, which for a tree is the sum
    of 2**-depth over class-1 leaves.
    """
    return sum(math.ldexp(1.0, -p.depth) for p in paths if p.label == 1)


def _candidate_masks(paths: Sequence[TreePath], order: int) -> set[int]:
    """Index masks of a given order that can receive a nonzero contribution."""
    if order == 0:
        return {0}
    seen_defined: set[int] = set()
    out: set[int] = set()
    for p in paths:
        dmask = p.defined_mask
        if dmask in seen_defined or dmask.bit_count() < order:
            continue
        seen_defined.add(dmask)
        for combo in combinations(_mask_bits(dmask), order):
            m = 0
            for a in combo:
                m |= 1 << a
            out.add(m)
    return out


def dft_from_paths(paths: Sequence[TreePath], attribute_count: int,
                   energy_threshold: float) -> FourierSpectrum:
    """Low-order-first coefficient accumulation with early stopping.

    After finishing order i, the retained-fraction lower bound is
    CE_i / (CE_i + (d - i + 1) * E_i) where CE_i is the retained energy so
    far and E_i the energy of order i. Accumulation stops at the first order
    whose bound reaches ``energy_threshold``, or once every order a path can
    reach has been enumerated (at which point retention is exact).

    An order with zero energy yields no stop decision: the bound's tail
    estimate scales E_i, so a zero order would certify full capture while
    arbitrary energy can still sit above it (a parity function concentrates
    everything on its top order). Such orders are accumulated past instead.
    A threshold of exactly 1 is thereby the full transform: no finite bound
    with a nonzero tail estimate reaches it early.
    """
    if not paths:
        raise InvalidModelError("model has no paths to transform")
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError("energy_threshold must be in (0, 1]")
    d = attribute_count
    e_total = exact_total_energy(paths)
    if e_total == 0.0:
        # constant-0 function: every coefficient is 0, nothing to retain
        return FourierSpectrum(d, {}, 0, 1.0)

    live = [p for p in paths if p.label == 1]
    weights = [math.ldexp(1.0, -p.depth) for p in live]
    max_order = max(p.depth for p in paths)

    coeffs: dict[int, float] = {}
    retained = 0.0
    order = 0
    while True:
        e_i = 0.0
        for m in _candidate_masks(paths, order):
            w = 0.0
            for p, pw in zip(live, weights):
                if m & ~p.defined_mask:
                    continue
                w += -pw if (m & p.ones_mask).bit_count() & 1 else pw
            if w != 0.0:
                coeffs[m] = w
                e_i += w * w
        retained += e_i
        if order >= max_order:
            break
        if e_i > 0.0:
            bound = retained / (retained + (d - order + 1) * e_i)
            if bound >= energy_threshold:
                break
        order += 1

    return FourierSpectrum(d, coeffs, order, retained / e_total)


def dft(tree, energy_threshold: float) -> FourierSpectrum:
    """Transform a trained tree into a truncated spectrum."""
    return dft_from_paths(tree.extract_paths(), tree.schema.d, energy_threshold)
