"""Shared helpers: hand-built trees, an independent Walsh transform, the
share of one path in one coefficient, random tree growth used by several
suites, an eager leaf-count oracle, a per-model sliding accuracy oracle and
a probability-form split rule oracle."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run; no deadline, because a
# loaded machine can stretch one example past any fixed limit.
settings.register_profile("repeatable", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("repeatable")

from fct.hoeffding import HoeffdingTree, TreePath, _Node
from fct.stream import Schema


def schema_of(d: int) -> Schema:
    return Schema(tuple(f"x{i + 1}" for i in range(d)))


def manual_tree(d: int, structure) -> HoeffdingTree:
    """Build a tree with an explicit shape, bypassing training.

    ``structure`` is either an int class label (a leaf) or a triple
    ``(attr, zero_branch, one_branch)``.
    """
    tree = HoeffdingTree(schema_of(d))

    def build(spec, free: tuple) -> tuple[_Node, int]:
        node = _Node(free)
        if isinstance(spec, int):
            node.counts[spec] = 1
            return node, 1
        attr, zero, one = spec
        node.split_attribute = attr
        free = tuple(a for a in free if a != attr)
        left, nl = build(zero, free)
        right, nr = build(one, free)
        node.children = [left, right]
        return node, nl + nr + 1

    tree.root, tree.node_count = build(structure, tuple(range(d)))
    return tree


# The three-attribute worked example: attribute x3 at the root, x3=0 is
# class 1, x3=1 tests x1 (0 -> class 1, 1 -> class 0).
def worked_example_tree() -> HoeffdingTree:
    return manual_tree(3, (2, 1, (0, 1, 0)))


def all_inputs(d: int) -> np.ndarray:
    """All 2^d bit vectors; row i has bit a equal to (i >> a) & 1."""
    idx = np.arange(1 << d, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(d)) & 1).astype(np.uint8)


def walsh_brute_force(f_values: np.ndarray) -> np.ndarray:
    """Independent transform oracle: in-place integer butterfly over 2^d
    function values ordered as in :func:`all_inputs`, scaled by 2^-d.

    Output index j (bit a of j <-> attribute a) holds the coefficient of the
    parity (-1)^(j.x) basis function.
    """
    vals = f_values.astype(np.int64).copy()
    n = len(vals)
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            a = vals[start:start + h].copy()
            b = vals[start + h:start + 2 * h].copy()
            vals[start:start + h] = a + b
            vals[start + h:start + 2 * h] = a - b
        h *= 2
    return vals / n


def path_coefficient_contribution(path: TreePath, index_mask: int) -> float:
    """Additive share of one root-to-leaf path in one coefficient.

    Zero unless every attribute of the index is tested on the path; otherwise
    the path's leaf weight 2**-depth times its class value, signed by the
    parity of the index restricted to the path's 1-branches.
    """
    if index_mask & ~path.defined_mask:
        return 0.0
    if path.label == 0:
        return 0.0
    sign = -1.0 if (index_mask & path.ones_mask).bit_count() & 1 else 1.0
    return math.ldexp(1.0, -path.depth) * sign


def grow_random_tree(seed: int, d: int | None = None,
                     n_instances: int | None = None,
                     tie_threshold: float = 0.01) -> HoeffdingTree:
    """Train a tree on a noiseless random threshold concept over random bits.

    The label is 1 when a random positive linear form of the features clears
    a random cut, so every attribute carries some marginal signal and greedy
    induction produces trees of varied shape and depth. Deterministic per
    seed and tie threshold; a larger tie threshold grows deeper trees.
    """
    rng = np.random.default_rng(seed)
    if d is None:
        d = int(rng.integers(3, 13))
    if n_instances is None:
        n_instances = int(rng.integers(2000, 8000))
    # heavy-tailed weights so some attribute dominates at each context and
    # greedy gain comparisons actually resolve within the training budget;
    # the dominance scale itself varies to mix stumpy and bushy shapes
    w = np.exp(rng.normal(0.0, rng.uniform(0.8, 2.2), size=d))
    cut = rng.uniform(0.25, 0.75) * w.sum()
    tree = HoeffdingTree(schema_of(d), tie_threshold=tie_threshold)
    X = rng.integers(0, 2, size=(n_instances, d)).astype(np.uint8)
    y = (X @ w > cut).astype(int)
    for x, label in zip(X, y):
        tree.train(x, int(label))
    return tree


class EagerLeafCounts:
    """Per-attribute class counts of each leaf, added as each instance arrives.

    The eager per-instance add that deferred leaf counts replaced, kept as
    their oracle. A leaf's (d, 2, 2) counts start at zero when the leaf is
    made, as its own ``stats`` do.
    """

    def __init__(self, d: int):
        self.d = d
        self._attr_offsets = 4 * np.arange(d, dtype=np.int64)
        self._stats: dict[_Node, np.ndarray] = {}

    def add(self, leaves, features: np.ndarray, label: int) -> None:
        """Count one instance at each of ``leaves``."""
        # flat index of stats[a, v, c] is 4a + 2v + c
        idx = self._attr_offsets + 2 * features.astype(np.int64) + label
        for leaf in leaves:
            self.counts(leaf).reshape(-1)[idx] += 1

    def counts(self, leaf: _Node) -> np.ndarray:
        if leaf not in self._stats:
            self._stats[leaf] = np.zeros((self.d, 2, 2), dtype=np.int64)
        return self._stats[leaf]


def flushed_stats(leaf: _Node) -> np.ndarray:
    """The counts that a split check of ``leaf`` would read now: its stats
    plus its pending instances, whose byte a is ``2v + c``, counted one by
    one. Changes neither."""
    stats = leaf.stats.copy()
    for entry in leaf.pending:
        for a, code in enumerate(entry):
            stats[a, code >> 1, code & 1] += 1
    return stats


def _entropy(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def oracle_split_choice(stats: np.ndarray, counts: list[int], free,
                        eps: float, tie_threshold: float):
    """The split rule in probability form, which the entropy-sum rule
    replaced, kept as its oracle: ``(choice, lead)`` for a leaf with (d, 2, 2)
    counts ``stats``, class counts ``counts`` and the attributes ``free``
    that it may still split on. ``choice`` is None when the leaf does not
    split; ``lead`` is the best gain less the runner-up's, which is taken as
    0 when only one attribute is free."""
    n = sum(counts)
    h0 = _entropy(np.array(counts))
    nv = stats.sum(axis=2)  # (d, 2) counts per attribute value
    with np.errstate(divide="ignore", invalid="ignore"):
        p = stats / nv[:, :, None]
        logs = np.where(stats > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    h_branch = -(np.where(stats > 0, p, 0.0) * logs).sum(axis=2)  # (d, 2)
    cond = (nv / n * h_branch).sum(axis=1)
    gains = np.full(len(stats), -np.inf)
    gains[list(free)] = (h0 - cond)[list(free)]
    order = np.argsort(gains)
    best = int(order[-1])
    g_best = float(gains[best])
    g_second = float(gains[order[-2]]) if len(stats) > 1 else 0.0
    if g_second == -np.inf:
        g_second = 0.0
    lead = g_best - g_second
    if g_best <= 1e-12:  # exact-zero gains must not trigger splits
        return None, lead
    if lead > eps or eps < tie_threshold:
        return best, lead
    return None, lead


class SlidingAccuracy:
    """Hit rate over the last ``window`` observations of one model.

    The deque-per-model form that ``Scoreboard`` replaced, kept as its
    oracle.
    """

    def __init__(self, window: int):
        self.window = window
        self._buf: deque = deque(maxlen=window)

    def update(self, correct: bool) -> None:
        self._buf.append(1 if correct else 0)

    @property
    def count(self) -> int:
        return len(self._buf)

    @property
    def accuracy(self) -> float:
        return sum(self._buf) / len(self._buf) if self._buf else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
