"""Prequential loop: delayed scoring, drift handling, winner bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fct.driver import FctConfig, FctState, run
from fct.errors import ConfigError
from fct.spectrum import inverse_classify
from fct.stream import Instance, InstanceStream

from conftest import schema_of


def constant_concept_instances(n, d=3, seed=5):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 2, size=(n, d)).astype(np.int8)
    return [Instance(feats[i], int(feats[i, 0]), i) for i in range(n)]


def flip_concept_instances(n_per_segment=3000, d=3, seed=7, segments=2):
    """label = x1 on even-numbered segments, inverted on odd-numbered ones."""
    rng = np.random.default_rng(seed)
    n = segments * n_per_segment
    feats = rng.integers(0, 2, size=(n, d)).astype(np.int8)
    labels = feats[:, 0] ^ (np.arange(n) // n_per_segment % 2)
    return [Instance(feats[i], int(labels[i]), i) for i in range(n)]


def as_stream(instances, d=3, boundaries=()):
    return InstanceStream(schema_of(d), iter(instances), boundaries=boundaries)


@pytest.mark.parametrize("field,value,key", [
    ("energy_threshold", 0.0, "energy"),
    ("energy_threshold", 1.2, "energy"),
    ("winner_tie_margin", -0.5, "tau"),
    ("winner_tie_margin", float("nan"), "tau"),
    ("winner_tie_margin", float("inf"), "tau"),
    ("repository_capacity", 0, "repo_cap"),
    ("adwin_delta", 1.0, "adwin_delta"),
    ("label_delay", -1, "delay"),
    ("mode", "hybrid", "mode"),
])
def test_config_validation_names_the_cli_key(field, value, key):
    # a config is checked when it is built, so an invalid one never exists
    with pytest.raises(ConfigError) as err:
        FctConfig(**{field: value})
    assert err.value.key == key


@pytest.mark.parametrize("window", [0, -1])
def test_run_rejects_a_window_below_one(window):
    with pytest.raises(ConfigError) as err:
        run(as_stream(constant_concept_instances(10)), FctConfig(),
            window_size=window)
    assert err.value.key == "window"


def test_plain_iterable_requires_an_explicit_schema():
    with pytest.raises(ConfigError) as err:
        run(iter([]), FctConfig())
    assert err.value.key == "schema"
    # the same iterable is accepted once a schema is supplied
    report = run(iter([]), FctConfig(), schema=schema_of(3))
    assert report.total_instances == 0


def test_empty_stream_yields_empty_report():
    report = run(as_stream([]), FctConfig())
    assert report.total_instances == 0
    assert report.scored_instances == 0
    assert math.isnan(report.overall_accuracy)
    assert report.windows == []
    assert report.drift_positions == []


def test_delayed_labels_score_exactly_the_matured_prefix():
    insts = constant_concept_instances(100)
    report = run(as_stream(insts), FctConfig(label_delay=30), window_size=40)
    assert report.total_instances == 100
    # the last 30 predictions never see their labels
    assert report.scored_instances == 70
    assert [w.window_end for w in report.windows] == [40, 80, 100]
    assert report.windows[-1].overall_acc == report.overall_accuracy


def test_zero_delay_scores_everything():
    insts = constant_concept_instances(80)
    report = run(as_stream(insts), FctConfig(label_delay=0), window_size=80)
    assert report.scored_instances == 80


def test_step_scores_each_label_exactly_once():
    state = FctState(schema_of(2), FctConfig(label_delay=3))
    scored = []
    feats = np.array([1, 0], dtype=np.int8)
    for i in range(10):
        state.step(Instance(feats, 1, i),
                   scored_hook=lambda old, ok: scored.append(old.index))
    assert scored == list(range(7))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=40))
def test_pending_holds_the_unmatured_suffix_after_every_step(delay, n):
    state = FctState(schema_of(3), FctConfig(label_delay=delay))
    for inst in constant_concept_instances(n):
        state.step(inst)
        assert len(state.pending) == min(state.seen, delay)


def test_truth_boundaries_are_carried_into_the_report():
    insts = flip_concept_instances(500)
    report = run(as_stream(insts, boundaries=(500,)),
                 FctConfig(label_delay=50))
    assert report.truth_boundaries == (500,)


def test_cbdt_mode_never_touches_the_repository():
    insts = flip_concept_instances(2500)
    report = run(as_stream(insts, boundaries=(2500,)),
                 FctConfig(mode="cbdt", label_delay=100))
    assert report.drift_positions, "the label flip must trip the detector"
    assert len(report.state.repository) == 0
    assert all(w.repo_bytes == 0 for w in report.windows)
    assert all(w.winner_source == "forest" for w in report.windows)


def test_fct_mode_stores_a_spectrum_at_the_first_drift():
    insts = flip_concept_instances(2500)
    report = run(as_stream(insts, boundaries=(2500,)),
                 FctConfig(mode="fct", label_delay=100))
    assert report.drift_positions
    # the warm-up transient may fire once early; the flip itself must be
    # caught shortly after labels for it mature
    assert any(2500 < p < 4500 for p in report.drift_positions)
    assert len(report.state.repository) >= 1


def test_winner_changes_only_when_drift_fires():
    insts = flip_concept_instances(2500)
    report = run(as_stream(insts, boundaries=(2500,)),
                 FctConfig(mode="fct", label_delay=100))
    drift_at = set(report.drift_positions)
    for seen, source, model_id in report.winner_switches:
        assert seen - 1 in drift_at
        assert source in ("forest", "repository")


def test_same_stream_and_config_replay_identically():
    insts = flip_concept_instances(2000, seed=11)
    config = FctConfig(mode="fct", label_delay=100)
    a = run(as_stream(insts, boundaries=(2000,)), config, window_size=500)
    b = run(as_stream(insts, boundaries=(2000,)), config, window_size=500)
    assert a.windows == b.windows
    assert a.drift_positions == b.drift_positions
    assert a.overall_accuracy == b.overall_accuracy
    assert a.winner_switches == b.winner_switches


def test_repository_winner_is_never_evicted():
    # stores happen only while a tree answers, so with room for a single
    # entry every later insert evicts, yet never the entry that is answering
    insts = flip_concept_instances(1000, seed=3, segments=8)
    state = FctState(schema_of(3),
                     FctConfig(mode="fct", label_delay=100, repository_capacity=1))
    repository_steps = 0
    for inst in insts:
        state.step(inst)
        # the answer is the current winner's, looked up afresh
        if state.winner.source == "repository":
            repository_steps += 1
            entry = state.repository.find(state.winner.model_id)
            assert entry is not None
            want = inverse_classify(entry.spectrum, inst.features)
        else:
            want = state.forest.classify(state.winner.model_id, inst.features)
        assert state.classify(inst.features) == want
    assert repository_steps > 0
    assert state.repository.entries[0].entry_id >= 2  # at least two evictions
