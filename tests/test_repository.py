"""Bounded spectrum store: duplicates, eviction order, winner queries."""

import copy
import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fct.errors import SchemaError
from fct.forest import ESTIMATOR_BYTES
from fct.repository import Repository
from fct.spectrum import FourierSpectrum, dft, inverse_classify, spectra_equal
from fct.stream import Instance

from conftest import SlidingAccuracy, all_inputs, grow_random_tree


def spectrum_for_attribute(a: int, d: int = 4) -> FourierSpectrum:
    """Spectrum of the function f(x) = x_a over d binary attributes."""
    return FourierSpectrum(d, {0: 0.5, 1 << a: -0.5}, 1, 1.0)


def negated_attribute_spectrum(a: int, d: int = 4) -> FourierSpectrum:
    return FourierSpectrum(d, {0: 0.5, 1 << a: 0.5}, 1, 1.0)


def _inst(features, label, index=0):
    return Instance(np.asarray(features, dtype=np.int8), label, index)


def accuracy_of(repo, entry_id):
    return repo.scores.accuracies()[repo.entries.index(repo.find(entry_id))]


def weight_of(repo, entry_id):
    return repo.find(entry_id).winner_tally * accuracy_of(repo, entry_id)


def test_insert_and_find():
    repo = Repository(capacity=4)
    assert repo.insert(spectrum_for_attribute(0))
    assert repo.insert(spectrum_for_attribute(1))
    assert len(repo) == 2
    assert repo.find(0).spectrum.value(1 << 0) == -0.5
    assert repo.find(1).spectrum.value(1 << 1) == -0.5
    assert repo.find(7) is None


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Repository(capacity=0)


def test_duplicate_insert_refused_and_stats_untouched():
    repo = Repository(capacity=4)
    repo.insert(spectrum_for_attribute(2))
    entry = repo.find(0)
    entry.winner_tally = 3
    repo.observe(_inst([0, 0, 1, 0], 1))
    acc_before = accuracy_of(repo, 0)

    again = FourierSpectrum(4, {0: 0.5, 1 << 2: -0.5}, 1, 1.0)
    assert repo.insert(again) is False
    assert len(repo) == 1
    assert repo.find(0) is entry
    assert entry.winner_tally == 3
    assert accuracy_of(repo, 0) == acc_before


def test_near_duplicate_within_tolerance_refused():
    repo = Repository(capacity=4, duplicate_tolerance=0.01)
    repo.insert(spectrum_for_attribute(1))
    nudged = FourierSpectrum(4, {0: 0.509, 1 << 1: -0.5}, 1, 1.0)
    assert repo.insert(nudged) is False
    # past the tolerance the same shape counts as a new model
    shifted = FourierSpectrum(4, {0: 0.55, 1 << 1: -0.5}, 1, 1.0)
    assert repo.insert(shifted) is True
    assert len(repo) == 2


def test_eviction_removes_lowest_weight():
    """weight = winner tally * sliding accuracy; the smallest product goes."""
    repo = Repository(capacity=2)
    repo.insert(spectrum_for_attribute(0))
    repo.insert(spectrum_for_attribute(1))
    repo.find(0).winner_tally = 5
    repo.observe(_inst([1, 0, 0, 0], 1))  # entry 0 right, entry 1 wrong
    repo.observe(_inst([0, 1, 0, 0], 1))  # entry 0 wrong, entry 1 right
    assert weight_of(repo, 0) > 0.0
    assert weight_of(repo, 1) == 0.0

    assert repo.insert(spectrum_for_attribute(2))
    assert len(repo) == 2
    assert repo.find(1) is None
    assert repo.find(0) is not None
    assert repo.find(2) is not None
    # the survivor keeps its score; the newcomer has none yet
    assert repo.scores.accuracies() == [0.5, 0.0]
    assert repo.scores.counts().tolist() == [2, 0]
    repo.observe(_inst([0, 0, 1, 0], 1))  # entry 0 wrong, entry 2 right
    assert repo.scores.accuracies() == [pytest.approx(1 / 3), 1.0]
    assert repo.scores.counts().tolist() == [3, 1]


def test_eviction_tie_drops_the_oldest():
    repo = Repository(capacity=2)
    repo.insert(spectrum_for_attribute(0))
    repo.insert(spectrum_for_attribute(1))
    # both weights are zero: never chosen, never scored
    repo.insert(spectrum_for_attribute(2))
    assert repo.find(0) is None
    assert {e.entry_id for e in repo.entries} == {1, 2}


def test_entry_ids_stay_stable_across_evictions():
    repo = Repository(capacity=1)
    repo.insert(spectrum_for_attribute(0))
    repo.insert(spectrum_for_attribute(1))
    repo.insert(spectrum_for_attribute(2))
    assert len(repo) == 1
    assert repo.entries[0].entry_id == 2


def test_observe_scores_every_entry():
    repo = Repository(capacity=4)
    repo.insert(spectrum_for_attribute(0))
    repo.insert(negated_attribute_spectrum(0))
    for k in range(10):
        repo.observe(_inst([1, 0, 1, 1], 1, k))
    assert accuracy_of(repo, 0) == 1.0
    assert accuracy_of(repo, 1) == 0.0
    assert repo.scores.counts().tolist() == [10, 10]


def test_observe_rejects_mismatched_width():
    repo = Repository(capacity=4)
    repo.insert(spectrum_for_attribute(0, d=4))
    with pytest.raises(SchemaError):
        repo.observe(_inst([1, 0, 1], 1))


def test_observe_on_empty_repository_is_a_noop():
    Repository(capacity=4).observe(_inst([1, 0], 1))


def test_best_empty_returns_none():
    assert Repository(capacity=4).best() is None


def test_best_prefers_accuracy_then_tally_then_age():
    repo = Repository(capacity=4)
    repo.insert(spectrum_for_attribute(0))       # entry 0
    repo.insert(spectrum_for_attribute(1))       # entry 1
    repo.insert(negated_attribute_spectrum(2))   # entry 2, always wrong below
    for k in range(6):
        repo.observe(_inst([1, 1, 1, 0], 1, k))
    # entries 0 and 1 tie at accuracy 1.0 with zero tallies: age decides
    idx, entry, acc = repo.best()
    assert (idx, entry.entry_id, acc) == (0, 0, 1.0)
    # a tally breaks the same tie the other way
    repo.find(1).winner_tally = 2
    idx, entry, _ = repo.best()
    assert entry.entry_id == 1


def test_classify_all_matches_per_spectrum_classification():
    repo = Repository(capacity=8)
    d = 6
    for seed in (3, 5, 8, 13):
        tree = grow_random_tree(seed, d=d)
        repo.insert(dft(tree, 0.95))
    assert len(repo) >= 2
    inputs = all_inputs(d)
    rows = inputs[:: max(1, len(inputs) // 40)]
    got = repo.classify_all(rows.astype(np.int8))
    assert got.shape == (len(rows), len(repo))
    batch = [e.spectrum.evaluate_batch(rows) for e in repo.entries]
    for r, row in enumerate(rows):
        want = [inverse_classify(e.spectrum, row) for e in repo.entries]
        assert got[r].tolist() == want
        assert got[r].tolist() == [int(values[r] >= 0.5) for values in batch]
    assert Repository(capacity=2).classify_all(rows).shape == (len(rows), 0)


def test_memory_cost_is_sum_of_entries():
    repo = Repository(capacity=4)
    assert repo.memory_bytes() == 0
    repo.insert(spectrum_for_attribute(0))
    repo.insert(spectrum_for_attribute(1))
    expected = sum(e.spectrum.memory_bytes() + ESTIMATOR_BYTES
                   for e in repo.entries)
    assert repo.memory_bytes() == expected


def test_export_round_trips_spectra(tmp_path):
    repo = Repository(capacity=4)
    repo.insert(spectrum_for_attribute(0))
    repo.insert(spectrum_for_attribute(3))
    repo.find(3 - 2).winner_tally = 4
    for k in range(5):
        repo.observe(_inst([1, 0, 0, 1], 1, k))
    out = tmp_path / "repo"
    repo.export(out)

    with open(out / "index.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["entry_id"] for r in rows] == ["0", "1"]
    assert rows[1]["winner_tally"] == "4"
    assert float(rows[0]["accuracy"]) == 1.0
    for row, entry in zip(rows, repo.entries):
        loaded = FourierSpectrum.read(out / row["file"])
        assert spectra_equal(loaded, entry.spectrum, 1e-12)
        assert loaded.order_cutoff == entry.spectrum.order_cutoff


def random_spectrum(seed: int, d: int = 4) -> FourierSpectrum:
    """A spectrum with up to three nonzero coefficients besides the mean,
    each a multiple of 1/8, so most of them are not duplicates."""
    rng = np.random.default_rng(seed)
    coefficients = {0: 0.5}
    for mask in rng.integers(1, 1 << d, size=rng.integers(1, 4)):
        coefficients[int(mask)] = int(rng.integers(-4, 5)) / 8
    return FourierSpectrum(d, coefficients, 1, 1.0)


# One step on a repository: observe a burst of labeled instances (up to 12,
# so one burst can overflow a small window), then insert a new spectrum or a
# copy of a stored one, set an entry's winner tally, or read the best entry.
# The seed draws the instances and the action's spectrum, entry and tally.
repository_steps = st.lists(st.tuples(
    st.integers(min_value=0, max_value=12),
    st.sampled_from(["insert", "duplicate", "tally", "best"]),
    st.integers(min_value=0, max_value=2**32 - 1),
), max_size=30)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=4), repository_steps)
def test_lazy_scoring_matches_eager_scoring(window, capacity, steps):
    """Queued instances score as if each were scored when observed.

    The oracle scores each label as it is observed, with one
    ``classify_all`` per label into one deque per entry, and predicts each
    insert's outcome and victim from its own accuracies. The checks after
    each operation read a copy of the repository, so queued labels stay
    queued into the next operation, across inserts and evictions.
    """
    d = 4
    repo = Repository(capacity=capacity, eval_window=window)
    oracles: dict[int, SlidingAccuracy] = {}  # entry id -> eager score

    def check(step):
        assert [e.entry_id for e in repo.entries] == list(oracles), step
        assert len(repo.scores.queue) <= window
        assert repo.scores.counts().tolist() == [
            o.count for o in oracles.values()], step
        assert copy.deepcopy(repo).scores.accuracies() == [
            o.accuracy for o in oracles.values()], step

    for step, (burst, action, seed) in enumerate(steps):
        rng = np.random.default_rng(seed)
        for _ in range(burst):
            inst = _inst(rng.integers(0, 2, d), int(rng.integers(0, 2)))
            predictions = repo.classify_all(inst.features[None, :])[0]
            for e, p in zip(repo.entries, predictions):
                oracles[e.entry_id].update(p == inst.label)
            repo.observe(inst)
        check(step)
        pick = repo.entries[int(rng.integers(0, len(repo)))] if repo else None
        if action == "insert" or (action == "duplicate" and pick):
            spectrum = (random_spectrum(seed) if action == "insert"
                        else copy.deepcopy(pick.spectrum))
            duplicate = any(spectra_equal(e.spectrum, spectrum,
                                          repo.duplicate_tolerance)
                            for e in repo.entries)
            victim = None
            if not duplicate and len(repo) == capacity:
                victim = min(repo.entries, key=lambda e: (
                    e.winner_tally * oracles[e.entry_id].accuracy,
                    e.entry_id)).entry_id
            assert repo.insert(spectrum) is not duplicate
            if victim is not None:
                assert repo.find(victim) is None
                del oracles[victim]
            if not duplicate:
                oracles[repo.entries[-1].entry_id] = SlidingAccuracy(window)
        elif action == "tally" and pick:
            pick.winner_tally = int(rng.integers(0, 4))
        elif action == "best" and pick:
            _, entry, acc = repo.best()
            assert acc == max(o.accuracy for o in oracles.values())
            assert acc == oracles[entry.entry_id].accuracy
        check(step)
