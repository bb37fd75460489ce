"""Transform correctness against hand-computed and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (all_inputs, grow_random_tree, manual_tree,
                      walsh_brute_force, worked_example_tree)
from fct.errors import InvalidModelError, SchemaError
from fct.hoeffding import TreePath
from fct.spectrum import (COEFF_BYTES, SPECTRUM_HEADER_BYTES, FourierSpectrum,
                          dft, dft_from_paths, inverse_classify, spectra_equal)

# Hand-computed oracle for the three-attribute worked tree (root tests x3,
# the x3=1 branch tests x1): coefficient of the empty index is the class-1
# mass 1/2 + 1/4; the single-attribute and pair coefficients follow from the
# same per-path sums. Masks use bit a for attribute a (x1 -> bit 0).
WORKED_COEFFS = {0b000: 0.75, 0b001: 0.25, 0b100: 0.25, 0b101: -0.25}
WORKED_TOTAL_ENERGY = 0.75
WORKED_ORDER_ENERGY = [0.5625, 0.125, 0.0625, 0.0]
# retained/(retained + (d - i + 1) * E_i) after each order, d = 3
WORKED_CEF = [0.2, 11 / 17, 6 / 7, 1.0]


def test_worked_example_coefficients_exact():
    spec = dft(worked_example_tree(), 1.0)
    for mask in range(8):
        assert spec.value(mask) == pytest.approx(
            WORKED_COEFFS.get(mask, 0.0), abs=1e-12)
    assert set(spec.coefficients) == set(WORKED_COEFFS)


def test_worked_example_energy_progression():
    spec = dft(worked_example_tree(), 1.0)
    for order, energy in enumerate(WORKED_ORDER_ENERGY):
        assert spec.order_energy(order) == pytest.approx(energy, abs=1e-15)
    assert spec.total_energy() == pytest.approx(WORKED_TOTAL_ENERGY, abs=1e-15)


@pytest.mark.parametrize("threshold,cutoff,n_coeffs", [
    (0.19, 0, 1),       # below CEF_0 = 0.2
    (0.2, 0, 1),        # exactly CEF_0
    (0.5, 1, 3),        # CEF_0 < 0.5 <= CEF_1
    (0.7, 2, 4),        # CEF_1 < 0.7 <= CEF_2
    (0.95, 2, 4),       # CEF_2 < 0.95 but order 2 exhausts every path
])
def test_stop_rule_on_worked_example(threshold, cutoff, n_coeffs):
    spec = dft(worked_example_tree(), threshold)
    assert spec.order_cutoff == cutoff
    assert len(spec) == n_coeffs


def test_captured_fraction_is_exact_ratio():
    spec = dft(worked_example_tree(), 0.19)
    assert spec.captured_energy_fraction == pytest.approx(
        0.5625 / 0.75, abs=1e-15)
    full = dft(worked_example_tree(), 1.0)
    assert full.captured_energy_fraction == pytest.approx(1.0, abs=1e-12)


def test_worked_example_classification_points():
    spec = dft(worked_example_tree(), 1.0)
    # (x1, x2, x3) = (0, 0, 0) sits on the all-wildcard-to-x3=0 path
    assert spec.evaluate(np.array([0, 0, 0], dtype=np.uint8)) == pytest.approx(1.0)
    assert inverse_classify(spec, np.array([0, 0, 0], dtype=np.uint8)) == 1
    assert spec.evaluate(np.array([1, 0, 1], dtype=np.uint8)) == pytest.approx(0.0)
    assert inverse_classify(spec, np.array([1, 0, 1], dtype=np.uint8)) == 0


def test_half_rounds_up_to_class_one():
    half = FourierSpectrum(2, {0: 0.5}, 0, 1.0)
    below = FourierSpectrum(2, {0: 0.4999999}, 0, 1.0)
    x = np.array([0, 1], dtype=np.uint8)
    assert inverse_classify(half, x) == 1
    assert inverse_classify(below, x) == 0


def test_path_contribution_requires_subset():
    # an index touching an attribute the path never tests contributes nothing
    from conftest import path_coefficient_contribution
    p = TreePath(0b011, 0b001, 1)
    assert path_coefficient_contribution(p, 0b100) == 0.0
    assert path_coefficient_contribution(p, 0b010) == pytest.approx(0.25)
    assert path_coefficient_contribution(p, 0b001) == pytest.approx(-0.25)


def test_zero_intermediate_order_does_not_truncate():
    # f = x1 xor x2 has no order-1 energy but half of it at order 2; an
    # empty order must not be read as proof the tail is empty too.
    xor_tree = manual_tree(2, (0, (1, 0, 1), (1, 1, 0)))
    full = dft(xor_tree, 1.0)
    assert full.coefficients == {0b00: pytest.approx(0.5),
                                 0b11: pytest.approx(-0.5)}
    X = all_inputs(2)
    want = np.array([xor_tree.classify(x) for x in X])
    got = (full.evaluate_batch(X) >= 0.5).astype(int)
    assert np.array_equal(got, want)
    truncated = dft(xor_tree, 0.95)
    assert truncated.order_cutoff == 2
    assert truncated.captured_energy_fraction == pytest.approx(1.0)
    assert truncated.coefficients.keys() == full.coefficients.keys()


@pytest.mark.parametrize("seed", [11, 23, 35, 47, 59, 71])
def test_round_trip_and_brute_force_agree(seed):
    tree = grow_random_tree(seed, d=int(np.random.default_rng(seed).integers(3, 9)))
    d = tree.schema.d
    spec = dft(tree, 1.0)
    X = all_inputs(d)
    f = np.array([tree.classify(x) for x in X])
    assert np.array_equal((spec.evaluate_batch(X) >= 0.5).astype(int), f)
    brute = walsh_brute_force(f)
    dense = np.zeros(1 << d)
    for m, v in spec.coefficients.items():
        dense[m] = v
    assert np.abs(dense - brute).max() < 1e-12


def test_absent_attribute_coefficients_are_exactly_zero():
    # two attributes of twelve ever make it into the tree
    tree = manual_tree(12, (3, 0, (9, 0, 1)))
    spec = dft(tree, 1.0)
    used = (1 << 3) | (1 << 9)
    for mask in spec.coefficients:
        assert mask & ~used == 0
    assert spec.value(1 << 5) == 0.0


def test_candidate_enumeration_stays_path_local():
    # a d=20 tree using three attributes must not enumerate 2^20 indices
    tree = manual_tree(20, (4, 1, (11, 0, (17, 1, 0))))
    spec = dft(tree, 1.0)
    assert len(spec) <= 2 ** 3


def test_parseval_on_grown_trees():
    for seed in (101, 202, 303):
        tree = grow_random_tree(seed)
        spec = dft(tree, 1.0)
        from fct.spectrum import exact_total_energy
        assert spec.total_energy() == pytest.approx(
            exact_total_energy(tree.extract_paths()), abs=1e-12)


def test_batch_evaluate_matches_scalar(rng):
    tree = grow_random_tree(5)
    spec = dft(tree, 1.0)
    X = rng.integers(0, 2, size=(64, tree.schema.d)).astype(np.uint8)
    batch = spec.evaluate_batch(X)
    for i, x in enumerate(X):
        # coefficients are sums of +-2^-depth terms: any summation order is
        # exact, so the packed evaluator equals a plain parity loop
        x_mask = sum(1 << a for a, bit in enumerate(x) if bit)
        loop = sum(-v if (m & x_mask).bit_count() & 1 else v
                   for m, v in spec.coefficients.items())
        assert batch[i] == spec.evaluate(x) == loop


def test_text_round_trip_preserves_values():
    spec = dft(grow_random_tree(9), 0.95)
    clone = FourierSpectrum.from_text(spec.to_text())
    assert clone.attribute_count == spec.attribute_count
    assert clone.order_cutoff == spec.order_cutoff
    assert clone.captured_energy_fraction == spec.captured_energy_fraction
    assert clone.coefficients == spec.coefficients  # 17 digits is lossless


# Any spectrum the text form can hold: coefficient masks over d attributes,
# finite values, and any cutoff and captured fraction.
random_spectra = st.integers(min_value=1, max_value=16).flatmap(
    lambda d: st.builds(
        FourierSpectrum,
        st.just(d),
        st.dictionaries(st.integers(min_value=0, max_value=(1 << d) - 1),
                        st.floats(allow_nan=False, allow_infinity=False),
                        max_size=20),
        st.integers(min_value=0, max_value=d),
        st.floats(min_value=0.0, max_value=1.0)))


@settings(max_examples=100)
@given(random_spectra)
def test_text_round_trip_is_exact_on_random_spectra(spec):
    assert FourierSpectrum.from_text(spec.to_text()) == spec


def test_file_round_trip(tmp_path):
    spec = dft(worked_example_tree(), 1.0)
    path = tmp_path / "spec.txt"
    spec.write(path)
    assert FourierSpectrum.read(path).coefficients == spec.coefficients


def test_from_text_rejects_garbage():
    with pytest.raises(InvalidModelError):
        FourierSpectrum.from_text("banana 3\n")
    with pytest.raises(InvalidModelError):
        FourierSpectrum.from_text("d 3\n")  # missing header fields


def test_spectra_equal_componentwise():
    a = FourierSpectrum(3, {0: 0.5, 1: 0.25}, 1, 1.0)
    b = FourierSpectrum(3, {0: 0.505, 1: 0.245}, 1, 1.0)
    c = FourierSpectrum(3, {0: 0.52, 1: 0.25}, 1, 1.0)
    d = FourierSpectrum(3, {0: 0.5, 1: 0.25, 5: 0.02}, 2, 1.0)
    assert spectra_equal(a, b)
    assert not spectra_equal(a, c)
    assert not spectra_equal(a, d)  # extra index compared against zero
    with pytest.raises(SchemaError):
        spectra_equal(a, FourierSpectrum(4, {}, 0, 1.0))


def test_memory_cost_model():
    spec = dft(worked_example_tree(), 1.0)
    assert spec.memory_bytes() == SPECTRUM_HEADER_BYTES + 4 * COEFF_BYTES


def test_dft_input_validation():
    with pytest.raises(InvalidModelError):
        dft_from_paths([], 3, 0.95)
    with pytest.raises(ValueError):
        dft_from_paths([TreePath(0, 0, 1)], 3, 0.0)
    with pytest.raises(ValueError):
        dft_from_paths([TreePath(0, 0, 1)], 3, 1.5)
    spec = dft(worked_example_tree(), 1.0)
    with pytest.raises(SchemaError):
        spec.evaluate(np.array([0, 1], dtype=np.uint8))
    with pytest.raises(SchemaError):
        spec.evaluate_batch(np.zeros((4, 7), dtype=np.uint8))


def test_constant_zero_tree_has_empty_spectrum():
    spec = dft(manual_tree(3, 0), 0.95)
    assert len(spec) == 0
    assert spec.captured_energy_fraction == 1.0
    assert inverse_classify(spec, np.array([1, 1, 1], dtype=np.uint8)) == 0


def test_constant_one_tree_is_single_coefficient():
    spec = dft(manual_tree(3, 1), 0.95)
    assert spec.coefficients == {0: pytest.approx(1.0)}
    assert inverse_classify(spec, np.array([0, 1, 0], dtype=np.uint8)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_thresholding_never_loses_low_orders(seed):
    # truncation only ever removes a suffix of orders
    tree = grow_random_tree(seed, d=5, n_instances=1200)
    full = dft(tree, 1.0)
    part = dft(tree, 0.6)
    for mask, value in part.coefficients.items():
        assert value == pytest.approx(full.value(mask), abs=1e-12)
    assert part.order_cutoff <= full.max_order() or len(part) == len(full)
