"""A capped pool of pre-rooted Hoeffding trees, scored over a sliding window.

One tree per (selected) attribute, each forced to split on its attribute at
the root so the pool covers diverse first splits. All trees share a node
budget; when it is exhausted the trees keep classifying but stop growing.
Training on an instance routes each tree once and hands every tree's leaf
the same pending entry.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import NotReadyError
from .hoeffding import NODE_BYTES, HoeffdingTree, NodeBudget, pending_entry
from .stream import Instance, Schema

# Documented cost-model constant: fixed accounting size of one model's
# sliding accuracy, independent of fill level.
ESTIMATOR_BYTES = 80

DEFAULT_TREE_CAP = 50
DEFAULT_MAX_NODES = 5000
# Labels each tree's and each repository entry's accuracy is taken over; a
# drift compares the two, so both keep this one default.
DEFAULT_EVAL_WINDOW = 500


class Scoreboard:
    """Hit rates of a changing set of models over their last ``window`` labels.

    ``record`` only queues one label's item and counts the label. The queue
    is scored when the scores are read (``accuracies``) or before the model
    set changes (``join``, ``drop``, ``sync``): ``hits`` turns the queued
    items, oldest first, into one row of hit bits each, against the models
    in place when they were recorded. Only the last ``window`` items are
    kept, because an older label's row is overwritten before any read.

    Row ``label % window`` of one (window, models) ring of hit bits holds a
    label's bits. A model that joins gets a zero column and is scored over
    the labels recorded since it joined; a model with none reads 0.0.
    """

    def __init__(self, window: int, models: int = 0, hits=list):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.ring = np.zeros((window, models), dtype=np.uint8)
        self.labels = 0
        self.joined = [0] * models  # label count when each model joined
        self.hits = hits
        self.queue: deque = deque(maxlen=window)

    def __len__(self) -> int:
        return len(self.joined)

    def join(self) -> None:
        self.sync()
        self.ring = np.insert(self.ring, len(self), 0, axis=1)
        self.joined.append(self.labels)

    def drop(self, i: int) -> None:
        self.sync()
        self.ring = np.delete(self.ring, i, axis=1)
        del self.joined[i]

    def record(self, item) -> None:
        """Queue one label's item: what ``hits`` turns into its hit bits.

        The item is held by reference until the next ``accuracies``,
        ``join``, ``drop`` or ``sync``; it must not be changed after
        ``record``, so give a new item per label, never a reused buffer."""
        self.queue.append(item)
        self.labels += 1

    def sync(self) -> None:
        """Write the queued labels' hit bits into their ring rows."""
        if self.queue:
            rows = np.arange(self.labels - len(self.queue), self.labels)
            self.ring[rows % self.window] = self.hits(self.queue)
            self.queue.clear()

    def counts(self) -> np.ndarray:
        return np.minimum(self.window, self.labels - np.array(self.joined))

    def accuracies(self) -> list[float]:
        self.sync()
        counts = self.counts()
        return np.divide(self.ring.sum(axis=0), counts, out=np.zeros(len(self)),
                         where=counts > 0).tolist()

    def memory_bytes(self) -> int:
        return len(self) * ESTIMATOR_BYTES


class Forest:
    """min(d, tree_cap) trees, one forced root attribute each: attributes
    0 to min(d, tree_cap) - 1, so with d > tree_cap the lowest ids are kept."""

    def __init__(self, schema: Schema, *, tree_cap: int = DEFAULT_TREE_CAP,
                 max_node_count: int = DEFAULT_MAX_NODES,
                 eval_window: int = DEFAULT_EVAL_WINDOW,
                 split_confidence: float = 0.99,
                 tie_threshold: float = 0.01, check_interval: int = 32):
        d = schema.d
        n_trees = min(d, tree_cap)
        if n_trees < 1:
            raise ValueError("tree_cap must be >= 1")
        if max_node_count < 3 * n_trees:
            raise ValueError(
                f"max_node_count {max_node_count} cannot hold {n_trees} "
                f"pre-rooted trees (3 nodes each)")
        self.root_attributes = list(range(n_trees))
        self.budget = NodeBudget(max_node_count)
        self.trees = [
            HoeffdingTree(schema, split_confidence=split_confidence,
                          tie_threshold=tie_threshold,
                          check_interval=check_interval,
                          root_attribute=a, budget=self.budget)
            for a in self.root_attributes
        ]
        self.scores = Scoreboard(eval_window, n_trees)

    def __len__(self) -> int:
        return len(self.trees)

    def train(self, inst: Instance) -> None:
        """Score each tree on the instance, then let it learn, one tree at a
        time; no tree's score depends on another tree's learning.

        Trees split in tree order, so they claim the shared budget in the
        same order as training them one after another would.
        """
        label = inst.label
        x = inst.features.tolist()
        entry = pending_entry(inst.features, label)
        hits = []
        for tree in self.trees:
            leaf = tree._route(x)
            hits.append(leaf.label() == label)
            tree._learn(leaf, entry, label)
        self.scores.record(hits)

    def classify(self, tree_index: int, features: np.ndarray) -> int:
        return self.trees[tree_index].classify(features)

    def best_tree(self) -> tuple[int, HoeffdingTree, float]:
        """Index, tree, and sliding accuracy of the current leader.

        Ties break toward the lower tree index.
        """
        if self.scores.labels == 0:
            raise NotReadyError("no scored instances yet")
        accs = self.scores.accuracies()
        best = accs.index(max(accs))
        return best, self.trees[best], accs[best]

    def total_node_count(self) -> int:
        return sum(t.node_count for t in self.trees)

    def memory_bytes(self) -> int:
        return self.total_node_count() * NODE_BYTES + self.scores.memory_bytes()
