"""Forest construction, per-tree scoring, and the shared node budget."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fct.errors import NotReadyError
from fct.forest import ESTIMATOR_BYTES, Forest, Scoreboard
from fct.hoeffding import NODE_BYTES, HoeffdingTree, NodeBudget
from fct.stream import Instance

from conftest import EagerLeafCounts, SlidingAccuracy, flushed_stats, schema_of


def _instances(features_rows, labels):
    return [Instance(np.asarray(f, dtype=np.int8), int(y), i)
            for i, (f, y) in enumerate(zip(features_rows, labels))]


def test_one_rooted_tree_per_attribute():
    forest = Forest(schema_of(3), max_node_count=100)
    assert len(forest) == 3
    assert forest.root_attributes == [0, 1, 2]
    for tree, attr in zip(forest.trees, forest.root_attributes):
        assert tree.root.split_attribute == attr
        assert tree.node_count == 3


def test_single_attribute_schema_gets_single_tree():
    forest = Forest(schema_of(1), max_node_count=10)
    assert len(forest) == 1
    assert forest.root_attributes == [0]


def test_cap_without_calibration_falls_back_to_low_ids():
    forest = Forest(schema_of(6), tree_cap=3, max_node_count=100)
    assert forest.root_attributes == [0, 1, 2]


def test_budget_too_small_for_roots_rejected():
    with pytest.raises(ValueError):
        Forest(schema_of(4), max_node_count=11)  # needs 4 * 3


def test_bad_tree_cap_rejected():
    with pytest.raises(ValueError):
        Forest(schema_of(3), tree_cap=0, max_node_count=100)


def test_train_scores_every_tree_before_learning(rng):
    forest = Forest(schema_of(3), max_node_count=100)
    inst = Instance(np.array([1, 0, 1], dtype=np.int8), 1, 0)
    forest.train(inst)
    assert forest.scores.counts().tolist() == [1, 1, 1]


def test_best_tree_requires_observations():
    forest = Forest(schema_of(3), max_node_count=100)
    with pytest.raises(NotReadyError):
        forest.best_tree()


def test_best_tree_finds_the_relevant_attribute(rng):
    """With label == x3 the tree pre-rooted on attribute 3 wins early.

    Every other tree wastes its first dozens of instances on mixed leaves
    before it can split, so over a short run the sliding windows separate.
    """
    d = 5
    forest = Forest(schema_of(d), max_node_count=500)
    feats = rng.integers(0, 2, size=(100, d)).astype(np.int8)
    for inst in _instances(feats, feats[:, 3].tolist()):
        forest.train(inst)
    idx, tree, acc = forest.best_tree()
    assert idx == 3
    assert tree is forest.trees[3]
    assert acc > 0.9


def test_best_tree_tie_breaks_to_lower_index(rng):
    # a constant label makes every tree's hit sequence identical
    forest = Forest(schema_of(4), max_node_count=200)
    feats = rng.integers(0, 2, size=(50, 4)).astype(np.int8)
    for inst in _instances(feats, [1] * 50):
        forest.train(inst)
    assert len(set(forest.scores.accuracies())) == 1
    assert forest.best_tree()[0] == 0


def test_classify_routes_to_the_requested_tree(rng):
    forest = Forest(schema_of(4), max_node_count=200)
    feats = rng.integers(0, 2, size=(200, 4)).astype(np.int8)
    for inst in _instances(feats, feats[:, 0].tolist()):
        forest.train(inst)
    probe = np.array([1, 0, 1, 0], dtype=np.int8)
    for i in range(len(forest)):
        assert forest.classify(i, probe) == forest.trees[i].classify(probe)


def test_exhausted_budget_freezes_growth(rng):
    """Once the shared budget is spent no tree may add nodes."""
    forest = Forest(schema_of(2), max_node_count=6)  # exactly the two roots
    feats = rng.integers(0, 2, size=(500, 2)).astype(np.int8)
    for inst in _instances(feats, feats[:, 0].tolist()):
        forest.train(inst)
    # the tree rooted on x2 would have split each leaf on x1 long ago
    assert forest.total_node_count() == 6
    assert all(t.node_count == 3 for t in forest.trees)


def test_growth_resumes_only_within_budget(rng):
    forest = Forest(schema_of(2), max_node_count=8)  # room for one split
    feats = rng.integers(0, 2, size=(500, 2)).astype(np.int8)
    for inst in _instances(feats, feats[:, 0].tolist()):
        forest.train(inst)
    assert forest.total_node_count() == 8


def test_memory_cost_model(rng):
    forest = Forest(schema_of(3), max_node_count=100)
    expected = 9 * NODE_BYTES + 3 * ESTIMATOR_BYTES
    assert forest.memory_bytes() == expected
    feats = rng.integers(0, 2, size=(300, 3)).astype(np.int8)
    for inst in _instances(feats, feats[:, 1].tolist()):
        forest.train(inst)
    assert forest.memory_bytes() == (forest.total_node_count() * NODE_BYTES
                                     + len(forest) * ESTIMATOR_BYTES)


def test_scoreboard_window_semantics():
    board = Scoreboard(3, models=1)
    assert board.accuracies() == [0.0]
    for bit in (1, 1, 0, 0):
        board.record([bit])
    # the leading hit fell out of the window
    assert board.counts().tolist() == [3]
    assert board.accuracies() == [pytest.approx(1 / 3)]
    with pytest.raises(ValueError):
        Scoreboard(0)


# One operation on a scoreboard: join a model, drop the model at a position
# (taken modulo the model count), or record one label's hit bits (a seed).
scoreboard_ops = st.lists(st.one_of(
    st.just(("join",)),
    st.tuples(st.just("drop"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("record"), st.integers(min_value=0, max_value=2**32 - 1)),
), max_size=60)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=7),
       st.integers(min_value=0, max_value=4), scoreboard_ops)
def test_scoreboard_matches_one_sliding_accuracy_per_model(window, models, ops):
    board = Scoreboard(window, models)
    oracles = [SlidingAccuracy(window) for _ in range(models)]
    for step, op in enumerate(ops):
        if op[0] == "join":
            board.join()
            oracles.append(SlidingAccuracy(window))
        elif op[0] == "drop" and oracles:
            i = op[1] % len(oracles)
            board.drop(i)
            del oracles[i]
        elif op[0] == "record":
            bits = np.random.default_rng(op[1]).integers(0, 2, len(oracles))
            board.record(bits.astype(bool))
            for oracle, bit in zip(oracles, bits):
                oracle.update(bool(bit))
        assert len(board) == len(oracles)
        assert board.counts().tolist() == [o.count for o in oracles], step
        assert board.accuracies() == [o.accuracy for o in oracles], step


def _nodes(node):
    yield node
    for child in node.children or ():
        yield from _nodes(child)


@pytest.mark.parametrize("max_node_count, check_interval",
                         [(10_000, 32), (24, 4)])
def test_forest_training_matches_trees_trained_one_by_one(max_node_count,
                                                          check_interval):
    """Forest.train equals scoring then training each tree in turn.

    The reference trees share a node budget of the same size. With 24 nodes
    and checks every 4 labels, two trees ask for the last free nodes at the
    same instance, so the second case also checks that trees claim the
    budget in tree order. Leaf counts are compared as a check would read
    them, with the leaf's pending instances added.
    """
    d, n = 6, 3000
    rng = np.random.default_rng(21)
    w = np.exp(rng.normal(0.0, 1.5, size=d))
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    y = (X @ w > 0.5 * w.sum()).astype(int)
    y ^= rng.random(n) < 0.05
    forest = Forest(schema_of(d), max_node_count=max_node_count,
                    eval_window=n, check_interval=check_interval)
    budget = NodeBudget(max_node_count)
    trees = [HoeffdingTree(schema_of(d), check_interval=check_interval,
                           root_attribute=a, budget=budget)
             for a in forest.root_attributes]
    hits = [0] * len(trees)
    for inst in _instances(X, y):
        forest.train(inst)
        for i, tree in enumerate(trees):
            hits[i] += tree.classify(inst.features) == inst.label
            tree.train(inst.features, inst.label)

    assert forest.total_node_count() > 3 * len(forest)  # the trees split
    assert forest.budget.used == budget.used
    held = []
    for i, (ftree, tree) in enumerate(zip(forest.trees, trees)):
        assert ftree.extract_paths() == tree.extract_paths()
        assert ftree.leaf_count() == tree.leaf_count()
        assert ftree.node_count == tree.node_count
        assert forest.scores.accuracies()[i] == hits[i] / n
        for fnode, node in zip(_nodes(ftree.root), _nodes(tree.root)):
            assert len(fnode.pending) < check_interval
            assert fnode.pending == node.pending
            if fnode.is_leaf:
                stats = flushed_stats(fnode)
                assert (stats == flushed_stats(node)).all()
                assert fnode.counts == node.counts
                assert fnode.seed_counts == node.seed_counts
                # per attribute, the two values split the leaf's class counts
                assert (stats.sum(axis=1) == fnode.counts).all()
                held.append(id(fnode.stats))
            else:
                assert fnode.stats is None
                assert fnode.pending == []  # flushed at the check that split it
    assert len(set(held)) == len(held)  # each leaf holds its own counts


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_deferred_leaf_counts_match_eager_counts_after_every_instance(
        d, check_interval, spare_splits, seed):
    """Each leaf's stats plus its pending instances equals the counts that an
    eager add per instance would hold, after every instance; no leaf holds a
    full check interval of pending instances, and a split leaf was flushed
    before the split read its stats. A budget of a few spare splits runs out
    in many of the streams, after which the trees stop growing."""
    n = 150
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    a, b, c = rng.integers(0, d, size=3)
    y = (X[:, a] ^ (X[:, b] & X[:, c])) ^ (rng.random(n) < 0.1)
    forest = Forest(schema_of(d), max_node_count=3 * d + 2 * spare_splits,
                    check_interval=check_interval)
    eager = EagerLeafCounts(d)
    for inst in _instances(X, y):
        leaves = [tree._route(inst.features) for tree in forest.trees]
        forest.train(inst)
        eager.add(leaves, inst.features, inst.label)
        for tree in forest.trees:
            for node in _nodes(tree.root):
                assert len(node.pending) < check_interval
                if node.is_leaf:
                    assert (flushed_stats(node) == eager.counts(node)).all()
                else:
                    assert node.pending == []
                    # the split read flushed stats: the children's seeds
                    # share out every instance that the leaf had counted,
                    # and a split node's own counts stop changing
                    zero, one = (child.seed_counts for child in node.children)
                    assert np.add(zero, one).tolist() == node.counts
