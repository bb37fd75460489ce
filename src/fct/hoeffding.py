"""Incremental decision trees over binary attributes.

Leaves accumulate per-attribute class counts and are split once an
information-gain lead clears the Hoeffding bound (or the bound is small
enough to call it a tie). Trees can be pre-rooted on a chosen attribute so a
forest can pin one tree per attribute. Each leaf holds its per-attribute
class counts, ``stats[a, v, c]``: the instances with attribute a == v and
class c. A node that splits gives its counts up.

Training an instance is plain Python: the leaf's class counts go up by one
and the instance joins the leaf's pending list. A leaf's ``stats`` are
current only at a split check, every ``check_interval`` arrivals, when the
pending instances are added in one step. So at most ``check_interval - 1``
instances wait per leaf, and a split leaf has always just been flushed.

A leaf's class is :meth:`_Node.label`, which every reader of a class calls.
While the leaf's seed and own counts are empty it is the leaf's
``fallback``: its parent's class when the parent split, 0 under a root.

The split rule reads information gain from entropy sums alone. With
``L(x) = x log2 x``, attribute a's conditional class entropy times the leaf
size n is ``S_a = sum_v (L(n_av) - (L(n_av0) + L(n_av1)))``, so its gain is
``h0 - S_a / n``. Over the attributes a leaf may still split on, the lead is
``(S_(2) - S_(1)) / n``, or ``h0 - S_min / n`` when only one is left. A
check splits when the best gain clears a small floor and either the lead
exceeds the bound ``eps`` or ``eps`` is below the tie threshold.

``S_a`` is summed per attribute value and then over the two values, with
each sum a single commutative addition. So an attribute whose counts are
another's with its values or its classes swapped gets a bit-equal ``S_a``,
and such exact ties reach the choice as ties. Among the attributes with the
smallest ``S_a`` the split takes the last one of ``np.argsort(-S)``, the
order in which ranking the gains themselves breaks ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .stream import Schema

# Documented cost-model constant: accounting size of one tree node in bytes.
NODE_BYTES = 48

_GAIN_FLOOR = 1e-12  # exact-zero gains must not trigger splits

# byte v of a feature becomes 2v + c under the table of class c
_CODE_TABLES = tuple(bytes((2 * v + c) & 0xFF for v in range(256))
                     for c in (0, 1))


def pending_entry(features: np.ndarray, label: int) -> bytes:
    """One instance as a leaf's pending list holds it: byte a is ``2v + c``
    for attribute a == v and class c. ``features`` holds one byte per
    attribute. A forest shares one entry between its trees."""
    return features.tobytes().translate(_CODE_TABLES[label])


# Rows n_a0, n_a1, n_a00, n_a10, n_a01, n_a11 from the columns 2v + c of a
# leaf's (d, 4) counts. The product stays in integers: a float one goes
# through BLAS, whose buffers raise peak memory by about 0.25 MiB.
_COUNT_ROWS = np.array([[1, 1, 0, 0], [0, 0, 1, 1],
                        [1, 0, 0, 0], [0, 0, 1, 0],
                        [0, 1, 0, 0], [0, 0, 0, 1]])


@dataclass(frozen=True)
class TreePath:
    """Root-to-leaf path as attribute bitmasks plus the leaf's class.

    ``defined_mask`` has bit a set when attribute a is tested on the path;
    ``ones_mask`` (a subset) marks the attributes tested equal to 1.
    """

    defined_mask: int
    ones_mask: int
    label: int

    @property
    def depth(self) -> int:
        return self.defined_mask.bit_count()


class NodeBudget:
    """Shared allocation counter capping total node count across trees."""

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.used = 0

    def try_claim(self, n: int) -> bool:
        if self.limit is not None and self.used + n > self.limit:
            return False
        self.used += n
        return True


def entropy_sums(stats: np.ndarray) -> np.ndarray:
    """``S_a = sum_v (L(n_av) - (L(n_av0) + L(n_av1)))`` with
    ``L(x) = x log2 x`` for every attribute a of a leaf's (d, 2, 2)
    ``stats``; swapping an attribute's values or its classes leaves its
    ``S_a`` bit-equal."""
    d = len(stats)
    counts = (_COUNT_ROWS @ stats.reshape(d, 4).T).astype(float)
    logs = counts * np.log2(np.maximum(counts, 1.0))
    per_value, class0, class1 = logs.reshape(3, 2, d)
    t0, t1 = per_value - (class0 + class1)
    return t0 + t1


class _Node:
    __slots__ = ("split_attribute", "children", "seed_counts", "counts",
                 "fallback", "stats", "pending", "free")

    def __init__(self, free: tuple[int, ...],
                 seed_counts: Optional[list[int]] = None,
                 stats: Optional[np.ndarray] = None, fallback: int = 0):
        self.split_attribute: Optional[int] = None
        self.children: Optional[list[_Node]] = None
        # class counts as plain ints: inherited at the split, and own
        self.seed_counts = seed_counts if seed_counts is not None else [0, 0]
        self.counts = [0, 0]
        self.fallback = fallback  # the class while both counts are empty
        self.stats = stats  # a leaf's flushed (d, 2, 2) counts; None once split
        self.pending: list[bytes] = []  # instances not yet in ``stats``
        self.free = free  # attributes that the node may still split on

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def label(self) -> int:
        """The majority of the seed plus own counts, ties going to class 0;
        ``fallback`` when both are empty."""
        s0, s1 = self.seed_counts
        c0, c1 = self.counts
        n0 = s0 + c0
        n1 = s1 + c1
        if n0 or n1:
            return 1 if n1 > n0 else 0
        return self.fallback


def _entropy(counts: list[int]) -> float:
    n = sum(counts)
    return -sum(c / n * math.log2(c / n) for c in counts if c)


def hoeffding_bound(delta: float, n: int) -> float:
    """Range-1 Hoeffding deviation bound for an n-sample mean."""
    return math.sqrt(math.log(1.0 / delta) / (2.0 * n))


class HoeffdingTree:
    """Single incremental tree; ``split_confidence`` is 1 - delta."""

    def __init__(self, schema: Schema, split_confidence: float = 0.99,
                 tie_threshold: float = 0.01, check_interval: int = 32,
                 root_attribute: Optional[int] = None,
                 budget: Optional[NodeBudget] = None):
        if not 0.0 < split_confidence < 1.0:
            raise ValueError("split_confidence must be in (0,1)")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        d = schema.d
        self.schema = schema
        self.delta = 1.0 - split_confidence
        self.tie_threshold = tie_threshold
        self.check_interval = check_interval
        self.budget = budget if budget is not None else NodeBudget(None)
        # flat index of stats[a, v, c] is 4a + 2v + c
        self._attr_offsets = 4 * np.arange(d, dtype=np.int64)
        free = tuple(range(d))
        if root_attribute is not None:
            if not 0 <= root_attribute < d:
                raise ValueError(f"root attribute {root_attribute} out of range")
            # pre-split root: 1 internal node + 2 empty leaves
            if not self.budget.try_claim(3):
                raise ValueError("node budget cannot hold the 3 nodes "
                                 "of a pre-rooted tree")
            root = _Node(free)
            root.split_attribute = root_attribute
            free = tuple(a for a in free if a != root_attribute)
            root.children = [_Node(free, stats=self._zeros()),
                             _Node(free, stats=self._zeros())]
            self.root = root
            self.node_count = 3
        else:
            if not self.budget.try_claim(1):
                raise ValueError("node budget cannot hold the root")
            self.root = _Node(free, stats=self._zeros())
            self.node_count = 1

    def _zeros(self) -> np.ndarray:
        """Empty counts for a new leaf."""
        return np.zeros((len(self._attr_offsets), 2, 2), dtype=np.int64)

    def _route(self, x) -> _Node:
        """Leaf reached by the 0/1 feature sequence ``x``."""
        node = self.root
        while node.children is not None:
            node = node.children[x[node.split_attribute]]
        return node

    def _learn(self, leaf: _Node, entry: bytes, label: int) -> None:
        """Count the instance ``entry`` at ``leaf``, which it reaches; at a
        check, flush the pending instances into the leaf's stats first."""
        leaf.counts[label] += 1
        leaf.pending.append(entry)
        if len(leaf.pending) >= self.check_interval:
            codes = np.frombuffer(b"".join(leaf.pending), dtype=np.uint8)
            idx = codes.reshape(len(leaf.pending), -1) + self._attr_offsets
            leaf.stats += np.bincount(idx.ravel(), minlength=leaf.stats.size
                                      ).reshape(leaf.stats.shape)
            leaf.pending = []
            self._maybe_split(leaf)

    def classify(self, features: np.ndarray) -> int:
        return self._route(features).label()

    def train(self, features: np.ndarray, label: int) -> None:
        """Learn one instance; ``features`` holds one 0/1 byte per attribute
        (uint8 or int8), as the streams yield them."""
        self._learn(self._route(features), pending_entry(features, label), label)

    def _maybe_split(self, leaf: _Node) -> None:
        if not leaf.free:
            return
        n = sum(leaf.counts)
        attr = self._split_choice(leaf, n, hoeffding_bound(self.delta, n))
        if attr is not None:
            self._split(leaf, attr)

    def _split_choice(self, leaf: _Node, n: int, eps: float) -> Optional[int]:
        """The attribute that the split rule picks at a leaf of n instances
        and bound ``eps``, or None; see the module docstring."""
        s = entropy_sums(leaf.stats)
        low = sorted(map(s.tolist().__getitem__, leaf.free))
        best_gain = _entropy(leaf.counts) - low[0] / n
        lead = (low[1] - low[0]) / n if len(low) > 1 else best_gain
        if best_gain <= _GAIN_FLOOR or (lead <= eps and eps >= self.tie_threshold):
            return None
        neg = np.full(len(s), -np.inf)
        free = list(leaf.free)
        neg[free] = -s[free]
        return int(np.argsort(neg)[-1])

    def _split(self, leaf: _Node, attr: int) -> None:
        if not self.budget.try_claim(2):
            return
        free = tuple(a for a in leaf.free if a != attr)
        seeds = leaf.stats[attr].tolist()
        leaf.stats = None
        leaf.split_attribute = attr
        fallback = leaf.label()
        leaf.children = [_Node(free, seed_counts=seeds[v],
                               stats=self._zeros(), fallback=fallback)
                         for v in (0, 1)]
        self.node_count += 2

    def extract_paths(self) -> list[TreePath]:
        """All root-to-leaf paths, each with its leaf's :meth:`_Node.label`."""
        out: list[TreePath] = []

        def walk(node: _Node, defined: int, ones: int) -> None:
            if node.is_leaf:
                out.append(TreePath(defined, ones, node.label()))
                return
            a = node.split_attribute
            walk(node.children[0], defined | (1 << a), ones)
            walk(node.children[1], defined | (1 << a), ones | (1 << a))

        walk(self.root, 0, 0)
        return out

    def leaf_count(self) -> int:
        return len(self.extract_paths())

    def memory_bytes(self) -> int:
        return self.node_count * NODE_BYTES

    def dump(self) -> str:
        """Indented text rendering, for debugging."""
        lines: list[str] = []

        def walk(node: _Node, indent: str) -> None:
            if node.is_leaf:
                t = [s + c for s, c in zip(node.seed_counts, node.counts)]
                lines.append(f"{indent}leaf counts={t} -> {node.label()}")
                return
            name = self.schema.attribute_names[node.split_attribute]
            for v in (0, 1):
                lines.append(f"{indent}{name} == {v}:")
                walk(node.children[v], indent + "  ")

        walk(self.root, "")
        return "\n".join(lines)
