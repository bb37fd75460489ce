"""Tree induction mechanics: bound arithmetic, split discipline, routing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (all_inputs, grow_random_tree, manual_tree,
                      oracle_split_choice, schema_of)
from fct.hoeffding import (NODE_BYTES, HoeffdingTree, NodeBudget, _Node,
                           hoeffding_bound)

# sqrt(ln(1/0.01) / (2*32)), the bound after one check interval at the
# default confidence
BOUND_AT_32 = 0.2682457532861684


def test_bound_oracle_values():
    assert hoeffding_bound(0.01, 32) == pytest.approx(BOUND_AT_32, abs=1e-15)
    # the tie threshold 0.01 is first undercut past n = ln(100)/(2*0.0001)
    n_star = math.log(100.0) / (2 * 0.01 ** 2)
    assert hoeffding_bound(0.01, math.floor(n_star)) > 0.01
    assert hoeffding_bound(0.01, math.ceil(n_star) + 1) < 0.01


def test_bound_shrinks_with_n():
    values = [hoeffding_bound(0.01, n) for n in (32, 64, 256, 1024)]
    assert values == sorted(values, reverse=True)


def test_pure_class_stream_never_splits(rng):
    tree = HoeffdingTree(schema_of(4))
    X = rng.integers(0, 2, size=(30_000, 4)).astype(np.uint8)
    for x in X:
        tree.train(x, 1)
    # zero gain everywhere: even the tie rule must not fire
    assert tree.node_count == 1


def test_single_attribute_concept_is_learned(rng):
    tree = HoeffdingTree(schema_of(3))
    X = rng.integers(0, 2, size=(10_000, 3)).astype(np.uint8)
    for x in X:
        tree.train(x, int(x[2]))
    assert tree.node_count >= 3
    assert any(p.defined_mask & (1 << 2) for p in tree.extract_paths())
    probe = rng.integers(0, 2, size=(256, 3)).astype(np.uint8)
    assert all(tree.classify(x) == x[2] for x in probe)


def test_tie_rule_waits_for_tiny_bound(rng):
    # two bit-identical copies of a noisy label can never develop a gain
    # lead, so the first split must wait until the bound itself drops under
    # the tie threshold
    tree = HoeffdingTree(schema_of(3))
    labels = rng.integers(0, 2, size=40_000)
    flips = rng.random(40_000) < 0.02
    other = rng.integers(0, 2, size=40_000)
    first_split_at = None
    for i, y in enumerate(labels):
        copy = int(y ^ flips[i])
        x = np.array([copy, copy, other[i]], dtype=np.uint8)
        tree.train(x, int(y))
        if first_split_at is None and tree.node_count > 1:
            first_split_at = i + 1
    assert first_split_at is not None
    assert first_split_at > 23_026            # bound still above the tie line
    assert first_split_at <= 23_026 + 64      # fires at the next leaf check
    root = tree.root
    assert root.split_attribute in (0, 1)


def test_forced_root_layout():
    tree = HoeffdingTree(schema_of(5), root_attribute=3)
    assert tree.node_count == 3
    assert tree.root.split_attribute == 3
    assert tree.leaf_count() == 2
    # nothing trained yet: no counts anywhere, class defaults to 0
    assert tree.classify(np.array([1, 1, 1, 1, 1], dtype=np.uint8)) == 0


def test_forced_root_out_of_range():
    with pytest.raises(ValueError):
        HoeffdingTree(schema_of(3), root_attribute=3)


def _split_off_an_empty_leaf(counts):
    """``manual_tree(4, (0, 1, 1))`` with its x1 == 1 leaf, which holds
    ``counts`` all at x3 == 1, split on x3; returns the tree and the x3 == 0
    child, whose seed and own counts are empty."""
    tree = manual_tree(4, (0, 1, 1))
    leaf = tree.root.children[1]
    leaf.counts = list(counts)
    leaf.stats = np.zeros((4, 2, 2), dtype=np.int64)
    leaf.stats[2, 1] = counts
    tree._split(leaf, 2)
    return tree, leaf.children[0]


def _covering_label(tree, x) -> int:
    mask = sum(1 << a for a in range(len(x)) if x[a])
    covering = [p for p in tree.extract_paths()
                if (mask & p.defined_mask) == p.ones_mask]
    assert len(covering) == 1
    return covering[0].label


def test_empty_leaf_falls_back_to_ancestor_majority():
    tree, empty = _split_off_an_empty_leaf([2, 9])
    assert empty.seed_counts == [0, 0] and empty.counts == [0, 0]
    x = np.array([1, 0, 0, 0], dtype=np.uint8)
    assert tree.classify(x) == 1  # ancestor majority, not the default 0
    # the extracted path for that region must agree with classify
    assert _covering_label(tree, x) == 1
    # an empty leaf that splits hands its own fallback down
    empty.stats = np.zeros((4, 2, 2), dtype=np.int64)
    tree._split(empty, 1)
    for x2 in (0, 1):
        x = np.array([1, x2, 0, 0], dtype=np.uint8)
        assert tree.classify(x) == _covering_label(tree, x) == 1


def test_dump_prints_the_class_that_classify_answers():
    tree, _ = _split_off_an_empty_leaf([2, 9])
    assert tree.classify(np.array([1, 0, 0, 0], dtype=np.uint8)) == 1
    assert tree.dump().splitlines() == [
        "x1 == 0:",
        "  leaf counts=[0, 1] -> 1",
        "x1 == 1:",
        "  x3 == 0:",
        "    leaf counts=[0, 0] -> 1",  # the fallback, not class 0
        "  x3 == 1:",
        "    leaf counts=[2, 9] -> 1",
    ]


# class counts of a leaf, empty in about half of the draws
_class_counts = st.one_of(st.just((0, 0)),
                          st.tuples(st.integers(0, 3), st.integers(0, 3))
                          ).map(list)


@st.composite
def _hand_built_trees(draw):
    """A tree of at most 6 attributes with drawn shape, seed counts, own
    counts and fallbacks at every node."""
    d = draw(st.integers(min_value=1, max_value=6))

    def build(free: tuple) -> _Node:
        node = _Node(free, seed_counts=draw(_class_counts),
                     fallback=draw(st.integers(0, 1)))
        node.counts = draw(_class_counts)
        if free and draw(st.booleans()):
            node.split_attribute = draw(st.sampled_from(free))
            rest = tuple(a for a in free if a != node.split_attribute)
            node.children = [build(rest), build(rest)]
        return node

    tree = HoeffdingTree(schema_of(d))
    tree.root = build(tuple(range(d)))
    return tree


def _dump_router(tree):
    """Parse ``tree.dump()`` back into a function from an input to the
    class printed at the leaf that the input reaches."""
    lines = tree.dump().splitlines()
    names = tree.schema.attribute_names
    at = 0

    def parse(indent: str):
        nonlocal at
        body = lines[at].removeprefix(indent)
        at += 1
        if body.startswith("leaf counts="):
            return int(body.rsplit(" -> ", 1)[1])
        name = body.removesuffix(" == 0:")
        zero = parse(indent + "  ")
        assert lines[at] == f"{indent}{name} == 1:"
        at += 1
        return names.index(name), zero, parse(indent + "  ")

    node = parse("")
    assert at == len(lines)

    def route(x) -> int:
        spec = node
        while not isinstance(spec, int):
            attr, zero, one = spec
            spec = one if x[attr] else zero
        return spec

    return route


@settings(max_examples=200)
@given(_hand_built_trees())
def test_one_class_rule_for_classify_paths_and_dump(tree):
    """classify, the covering path of extract_paths and the class that dump
    prints agree on every input, and follow the rule: the majority of the
    leaf's seed plus own counts, ties to 0, else its fallback."""
    route = _dump_router(tree)
    for x in all_inputs(tree.schema.d):
        leaf = tree._route(x)
        n0, n1 = np.add(leaf.seed_counts, leaf.counts).tolist()
        expected = int(n1 > n0) if n0 or n1 else leaf.fallback
        assert tree.classify(x) == expected
        assert _covering_label(tree, x) == expected
        assert route(x) == expected


def test_split_children_seeded_from_branch_statistics(rng):
    tree = HoeffdingTree(schema_of(3))
    X = rng.integers(0, 2, size=(2_000, 3)).astype(np.uint8)
    for x in X:
        tree.train(x, int(x[0]))
    assert tree.root.split_attribute == 0
    zero, one = tree.root.children
    # deterministic label = x0, so each branch's seed is single-class
    assert zero.seed_counts[0] > 0 and zero.seed_counts[1] == 0
    assert one.seed_counts[1] > 0 and one.seed_counts[0] == 0
    # fresh children predict from the seed before any post-split data
    assert tree.classify(np.array([0, 0, 0], dtype=np.uint8)) == 0
    assert tree.classify(np.array([1, 0, 0], dtype=np.uint8)) == 1


def test_banned_attributes_are_never_reused(rng):
    for seed in (3, 17, 91):
        tree = grow_random_tree(seed)
        for p in tree.extract_paths():
            assert p.defined_mask.bit_count() == len(
                set(a for a in range(tree.schema.d) if p.defined_mask >> a & 1))


def test_path_partition_invariant():
    for seed in (0, 12, 44, 87):
        tree = grow_random_tree(seed)
        d = tree.schema.d
        total = sum(1 << (d - p.depth) for p in tree.extract_paths())
        assert total == 1 << d


def test_classify_matches_covering_path():
    for seed in (7, 29):
        tree = grow_random_tree(seed, d=7)
        for x in all_inputs(7):
            assert tree.classify(x) == _covering_label(tree, x)


def test_node_count_is_odd_and_tracks_leaves():
    for seed in (5, 55, 555):
        tree = grow_random_tree(seed)
        assert tree.node_count % 2 == 1
        assert tree.node_count == 2 * tree.leaf_count() - 1


def test_budget_freezes_growth(rng):
    budget = NodeBudget(3)
    tree = HoeffdingTree(schema_of(3), budget=budget)
    X = rng.integers(0, 2, size=(5_000, 3)).astype(np.uint8)
    for x in X:
        tree.train(x, int(x[1]))
    assert tree.node_count == 3  # root split claimed the last two slots
    assert budget.used == 3
    with pytest.raises(ValueError):  # no budget left for another root
        HoeffdingTree(schema_of(3), budget=budget)
    assert budget.used == 3


def test_memory_cost_model():
    tree = HoeffdingTree(schema_of(4), root_attribute=1)
    assert tree.memory_bytes() == 3 * NODE_BYTES


def test_constructor_validation():
    with pytest.raises(ValueError):
        HoeffdingTree(schema_of(2), split_confidence=1.0)
    with pytest.raises(ValueError):
        HoeffdingTree(schema_of(2), check_interval=0)
    budget = NodeBudget(2)
    with pytest.raises(ValueError):
        HoeffdingTree(schema_of(3), root_attribute=0, budget=budget)
    assert budget.used == 0


def test_dump_mentions_attribute_names(rng):
    tree = HoeffdingTree(schema_of(3))
    X = rng.integers(0, 2, size=(3_000, 3)).astype(np.uint8)
    for x in X:
        tree.train(x, int(x[0]))
    assert "x1 == 0" in tree.dump()


def _leaf_with_counts(d, tie_threshold, n, seed):
    """A tree whose root leaf holds a random consistent (d, 2, 2) count table
    of n instances, and a random set of free attributes that is not empty.

    Attributes are a mix of random splits of each class, splits independent
    of the class (gain near 0), and exact gain ties: copies of earlier
    attributes, copies with the values swapped and, when the two classes are
    equally frequent, copies with the classes swapped. So leads land both
    far from and near the bound, and choices meet ties.
    """
    rng = np.random.default_rng(seed)
    if n % 2 == 0 and rng.random() < 0.3:
        n1 = n // 2
    else:
        n1 = int(rng.integers(0, n + 1))
    class_counts = np.array([n - n1, n1])
    ones = np.empty((d, 2), dtype=np.int64)  # counts with attribute == 1
    for a in range(d):
        kind = rng.integers(5) if a else rng.integers(2)
        if kind == 0:
            ones[a] = rng.binomial(class_counts, rng.uniform())
        elif kind == 1:
            ones[a] = rng.integers(0, class_counts + 1)
        else:
            earlier = ones[rng.integers(a)]
            if kind == 3:
                ones[a] = class_counts - earlier  # values swapped
            elif kind == 4 and class_counts[0] == class_counts[1]:
                ones[a] = earlier[::-1]  # classes swapped
            else:
                ones[a] = earlier
    free = tuple(np.flatnonzero(rng.random(d) >= rng.uniform()).tolist())
    if not free:
        free = (int(rng.integers(d)),)
    tree = HoeffdingTree(schema_of(d), tie_threshold=tie_threshold)
    leaf = tree.root
    leaf.stats[:, 1] = ones
    leaf.stats[:, 0] = class_counts - ones
    leaf.counts = class_counts.tolist()
    leaf.free = free
    return tree, leaf


@settings(max_examples=600)
@given(st.integers(min_value=1, max_value=30),
       st.sampled_from([0.01, 0.05, 0.1, 0.2]),
       st.booleans(),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_split_choice_matches_the_probability_form_oracle(
        d, tie_threshold, tie_regime, size, seed):
    """The entropy-sum split rule picks what the probability-form rule picks,
    ties included, on both sides of the tie threshold. The one exception is
    a lead within rounding of the bound while the bound decides."""
    # eps >= tie_threshold holds for n up to ln(1/delta) / (2 tie^2)
    n_tie = math.floor(math.log(1 / 0.01) / (2 * tie_threshold ** 2))
    if tie_regime:
        n = n_tie + 1 + round(size * (60_000 - n_tie - 1))
    else:
        n = 1 + round(size * (n_tie - 1))
    tree, leaf = _leaf_with_counts(d, tie_threshold, n, seed)
    eps = hoeffding_bound(tree.delta, n)
    assert (eps < tie_threshold) == tie_regime

    expected, lead = oracle_split_choice(leaf.stats, leaf.counts, leaf.free,
                                         eps, tie_threshold)
    if eps >= tie_threshold and abs(lead - eps) < 1e-9:
        return
    assert tree._split_choice(leaf, n, eps) == expected
