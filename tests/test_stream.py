"""Generators, schedules, and the quantile binarizer."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fct.errors import (InvalidParamsError, InvalidScheduleError,
                        RowParseError, UnsupportedDatasetError)
from fct.stream import (BLOCK_ROWS, DATASETS, MAX_BITS_PER_ATTRIBUTE, Binarizer,
                        ConceptSchedule, Schema, Segment, _segment_rngs,
                        binarize, file_stream, rbf_raw, recurring_schedule,
                        sea_raw, synthetic_stream)


def test_schema_validation():
    with pytest.raises(InvalidParamsError):
        Schema(())
    with pytest.raises(InvalidParamsError):
        Schema(("a", "a"))
    assert Schema(("a", "b")).d == 2


def test_schedule_boundaries_and_length():
    sched = recurring_schedule([{"threshold": 8.0}, {"threshold": 7.0}],
                               segment_length=100, recurrences=3)
    assert sched.total_length == 600
    assert sched.boundaries() == (100, 200, 300, 400, 500)
    assert [s.concept_id for s in sched.segments] == [0, 1, 0, 1, 0, 1]
    # recurrences reuse params but not seeds
    assert sched.segments[0].params == sched.segments[2].params
    assert sched.segments[0].seed != sched.segments[2].seed


def test_schedule_validation():
    with pytest.raises(InvalidScheduleError):
        ConceptSchedule((), 0.0)
    with pytest.raises(InvalidScheduleError):
        Segment(0, {}, 0, 1)
    with pytest.raises(InvalidScheduleError):
        ConceptSchedule((Segment(0, {}, 10, 1),), noise_probability=1.5)


def test_sea_stream_is_deterministic():
    sched = recurring_schedule([{"threshold": 8.0}], 400, 1,
                               noise_probability=0.1, base_seed=5)
    a = list(synthetic_stream("sea", sched, bits_per_attribute=2))
    b = list(synthetic_stream("sea", sched, bits_per_attribute=2))
    assert len(a) == 400
    assert all(np.array_equal(x.features, y.features) and x.label == y.label
               for x, y in zip(a, b))
    other = recurring_schedule([{"threshold": 8.0}], 400, 1,
                               noise_probability=0.1, base_seed=6)
    c = list(synthetic_stream("sea", other, bits_per_attribute=2))
    assert any(x.label != y.label for x, y in zip(a, c))


def test_sea_label_rate_matches_geometry():
    # P(f1 + f2 > 8) over the unit-scaled square is 1 - 8^2/200 = 0.68
    sched = recurring_schedule([{"threshold": 8.0}], 20_000, 1, base_seed=1)
    labels = [i.label for i in synthetic_stream("sea", sched)]
    assert 0.66 < np.mean(labels) < 0.70


def test_sea_noise_flips_labels():
    base = recurring_schedule([{"threshold": 8.0}], 2_000, 1, base_seed=9)
    noisy = recurring_schedule([{"threshold": 8.0}], 2_000, 1,
                               noise_probability=1.0, base_seed=9)
    clean = [i.label for i in synthetic_stream("sea", base)]
    flipped = [i.label for i in synthetic_stream("sea", noisy)]
    assert all(a == 1 - b for a, b in zip(clean, flipped))


def test_sea_requires_threshold():
    sched = ConceptSchedule((Segment(0, {}, 10, 1),))
    with pytest.raises(InvalidParamsError):
        list(synthetic_stream("sea", sched))


def test_stream_carries_schema_and_boundaries():
    sched = recurring_schedule([{"threshold": 8.0}, {"threshold": 9.0}], 50, 1)
    s = synthetic_stream("sea", sched, bits_per_attribute=2, calibration_size=20)
    assert s.boundaries == (50,)
    assert s.schema.d == 6
    assert s.schema.attribute_names[:2] == ("f1_b0", "f1_b1")
    insts = list(s)
    assert [i.index for i in insts] == list(range(100))


def test_binarizer_worked_example():
    # near-uniform calibration on [0,1]: thresholds about 0.25 / 0.50 / 0.75,
    # so 0.6 exceeds two of them -> code 2 -> bits (1, 0)
    calib = [[v] for v in np.linspace(0.001, 0.999, 999)]
    binz = binarize(calib, bits_per_attribute=2)
    np.testing.assert_allclose(binz.thresholds[0], [0.25, 0.5, 0.75], atol=0.01)
    assert binz.transform_row([0.6]).tolist() == [1, 0]
    assert binz.transform_row([0.1]).tolist() == [0, 0]
    assert binz.transform_row([0.99]).tolist() == [1, 1]


def test_binarizer_median_split():
    binz = binarize([[1.0], [2.0], [3.0], [4.0]], bits_per_attribute=1)
    assert binz.transform_row([1.0]).tolist() == [0]
    assert binz.transform_row([4.0]).tolist() == [1]


def test_binary_attributes_pass_through():
    calib = [[0.0, 3.0], [1.0, 5.0], [0.0, 4.0], [1.0, 6.0]]
    binz = binarize(calib, bits_per_attribute=2, attribute_names=("flag", "num"))
    assert binz.bits == [1, 2]
    assert binz.output_names() == ("flag", "num_b0", "num_b1")
    row = binz.transform_row([1.0, 5.9])
    assert row[0] == 1
    assert len(row) == 3


def test_constant_attribute_degenerates_to_zero(caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="fct.stream"):
        binz = binarize([[7.0], [7.0], [7.0]], bits_per_attribute=2)
    assert "constant" in caplog.text
    assert binz.transform_row([7.0]).tolist() == [0, 0]  # side='left' at ties


def searchsorted_row(binz: Binarizer, row) -> list[int]:
    """Oracle: one ``np.searchsorted`` per attribute, bits MSB first."""
    out = []
    for v, th, b in zip(row, binz.thresholds, binz.bits):
        if th is None:
            out.append(1 if v > 0.5 else 0)
        else:
            code = int(np.searchsorted(th, v, side="left"))
            out.extend((code >> (b - 1 - k)) & 1 for k in range(b))
    return out


def row_codes(binz: Binarizer, bits) -> list[int]:
    """Per-attribute codes read back from a transformed row."""
    codes, pos = [], 0
    for b in binz.bits:
        codes.append(int("".join(str(int(x)) for x in bits[pos:pos + b]), 2))
        pos += b
    return codes


# Calibration values mix binary flags, ties and spread-out numbers, so fitted
# binarizers have passthrough, constant and ordinary attributes.
calibration_values = st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                               st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def fitted_binarizers(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(calibration_values, min_size=d, max_size=d),
                         min_size=1, max_size=30))
    return binarize(rows, draw(st.integers(min_value=1, max_value=3)))


@settings(max_examples=80)
@given(fitted_binarizers(), st.data())
def test_transform_row_matches_searchsorted(binz, data):
    specials = [np.inf, -np.inf, np.nan, 0.5]
    per_attr = [
        st.sampled_from(specials + ([] if th is None else [float(t) for t in th]))
        | st.floats(-2e6, 2e6, allow_nan=False)
        for th in binz.thresholds
    ]
    rows = [[data.draw(s) for s in per_attr] for _ in range(5)]
    for row in rows:
        want = searchsorted_row(binz, row)
        for given_row in (row, np.array(row)):
            got = binz.transform_row(given_row)
            assert got.dtype == np.uint8
            assert got.tolist() == want
    # one block holding every special value and every exact threshold, coded
    # by the fitted attributes plus a passthrough one
    fitted = binz.thresholds
    specials = [[v] * len(fitted) for v in (np.nan, np.inf, -np.inf, 0.5)]
    exact = [[1.0 if th is None else float(th[j % len(th)]) for th in fitted]
             for j in range(2 ** max(binz.bits))]
    flag = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 0.5, 1.0])
    block = [row + [data.draw(flag)] for row in rows + specials + exact]
    binz = Binarizer(fitted + [None], binz.bits + [1])
    got = binz.transform(np.array(block))
    assert got.dtype == np.uint8 and got.shape == (len(block), sum(binz.bits))
    assert got.tolist() == [searchsorted_row(binz, row) for row in block]


@settings(max_examples=60)
@given(fitted_binarizers(), st.data())
def test_codes_are_monotone_in_each_value(binz, data):
    d = len(binz.bits)
    values = st.floats(allow_nan=False) | st.sampled_from([np.inf, -np.inf])
    columns = [sorted(data.draw(st.lists(values, min_size=2, max_size=6)))
               for _ in range(d)]
    n = min(len(c) for c in columns)
    codes = [row_codes(binz, binz.transform_row([c[k] for c in columns]))
             for k in range(n)]
    for a in range(d):
        assert [c[a] for c in codes] == sorted(c[a] for c in codes)


def test_binarize_rejects_bad_input():
    with pytest.raises(InvalidParamsError):
        binarize([], bits_per_attribute=1)
    with pytest.raises(InvalidParamsError):
        binarize([[1.0]], bits_per_attribute=0)
    with pytest.raises(InvalidParamsError):
        binarize([[1.0]], bits_per_attribute=MAX_BITS_PER_ATTRIBUTE + 1)
    widest = binarize([[2.5], [3.5]], MAX_BITS_PER_ATTRIBUTE)
    assert len(widest.thresholds[0]) == 2 ** MAX_BITS_PER_ATTRIBUTE - 1
    assert widest.transform_row([9.0]).tolist() == [1] * MAX_BITS_PER_ATTRIBUTE


def test_rbf_stream_smoke():
    sched = recurring_schedule([{"centroid_count": 6, "attribute_count": 4}],
                               1_500, 1, base_seed=3)
    insts = list(synthetic_stream("rbf", sched, bits_per_attribute=1,
                                  calibration_size=200))
    assert len(insts) == 1_500
    labels = {i.label for i in insts}
    assert labels <= {0, 1} and len(labels) == 2
    assert insts[0].features.shape == (4,)


def test_rbf_requires_centroids():
    sched = ConceptSchedule((Segment(0, {"centroid_count": 1}, 10, 1),))
    with pytest.raises(InvalidParamsError):
        list(synthetic_stream("rbf", sched))


def rows_and_labels(blocks):
    """Concatenated rows and labels of raw blocks, each block checked for
    its shape and dtypes; returns float lists and int labels."""
    rows, labels = [], []
    for block_rows, block_labels in blocks:
        n = len(block_labels)
        assert 1 <= n <= BLOCK_ROWS and block_rows.shape[0] == n
        assert block_rows.dtype == np.float64 and block_labels.dtype == np.uint8
        rows.extend(block_rows.tolist())
        labels.extend(block_labels.tolist())
    return rows, labels


def sea_raw_per_row(schedule):
    """Oracle: ``sea_raw`` drawing one row and one noise value at a time."""
    for seg in schedule.segments:
        rng, noise_rng = _segment_rngs(seg)
        for _ in range(seg.length):
            row = rng.uniform(0.0, 10.0, size=3)
            label = int(row[0] + row[1] > seg.params["threshold"])
            yield row, label ^ int(noise_rng.random() < schedule.noise_probability)


def rbf_raw_with_choice(schedule):
    """Oracle: ``rbf_raw`` one row at a time, drawing each centroid with
    ``rng.choice``."""
    for seg in schedule.segments:
        k, nd = seg.params["centroid_count"], seg.params["attribute_count"]
        rng, noise_rng = _segment_rngs(seg)
        centers = rng.uniform(0.0, 1.0, size=(k, nd))
        classes = rng.integers(0, 2, size=k)
        weights = rng.uniform(0.0, 1.0, size=k)
        weights = weights / weights.sum()
        spreads = rng.uniform(0.0, 1.0, size=k)
        for _ in range(seg.length):
            c = rng.choice(k, p=weights)
            direction = rng.uniform(-1.0, 1.0, size=nd)
            norm = np.linalg.norm(direction) or 1.0
            row = centers[c] + direction * (rng.normal(0.0, 1.0) * spreads[c] / norm)
            label = int(classes[c])
            flip = noise_rng.random() < schedule.noise_probability
            yield row, label ^ int(flip)


def hyperplane_raw_per_row(schedule):
    """Oracle: ``hyperplane_raw`` drawing one row and one noise value at a
    time, with the default drift speed and random starting weights."""
    for seg in schedule.segments:
        nd, k = seg.params["attribute_count"], seg.params["drifting_attribute_count"]
        rng, noise_rng = _segment_rngs(seg)
        w = rng.uniform(0.0, 1.0, size=nd)
        directions = np.ones(k)
        for _ in range(seg.length):
            row = rng.uniform(0.0, 1.0, size=nd)
            label = int(row @ w > 0.5 * w.sum())
            yield row, label ^ int(noise_rng.random() < schedule.noise_probability)
            if k:
                w[:k] += directions * 0.001
                directions[rng.random(k) < 0.1] *= -1.0


PER_ROW_ORACLES = {"sea": sea_raw_per_row, "rbf": rbf_raw_with_choice,
                   "hyperplane": hyperplane_raw_per_row}


@pytest.mark.parametrize("length", [1, BLOCK_ROWS, BLOCK_ROWS + 1])
@pytest.mark.parametrize("noise", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_blocks_equal_the_per_row_draws(name, noise, length):
    # numpy draws doubles in order, so one draw of n values per block equals
    # n single draws, also where a segment splits into several blocks
    recurrences = 3 if length == 1 else 1
    sched = recurring_schedule(DATASETS[name].concepts[:2], length, recurrences,
                               noise_probability=noise, base_seed=length)
    blocks = list(DATASETS[name].raw(sched))
    # no block spans two segments
    per_segment = [[n] if n <= BLOCK_ROWS else [BLOCK_ROWS, n - BLOCK_ROWS]
                   for n in (s.length for s in sched.segments)]
    assert [len(labels) for _, labels in blocks] == [n for ns in per_segment
                                                     for n in ns]
    rows, labels = rows_and_labels(blocks)
    want = list(PER_ROW_ORACLES[name](sched))
    assert rows == [row.tolist() for row, _ in want]
    assert labels == [label for _, label in want]


def test_rbf_centroid_draw_equals_rng_choice():
    # equal seeds give equal centroids, so equal rows, with the other draws of
    # each instance interleaved between two centroid draws
    sched = recurring_schedule(
        [{"centroid_count": k, "attribute_count": 3} for k in (2, 5, 35)],
        2_000, 2, noise_probability=0.1, base_seed=4)
    rows, labels = rows_and_labels(rbf_raw(sched))
    want = list(rbf_raw_with_choice(sched))
    assert len(rows) == len(want) == 12_000
    assert rows == [row.tolist() for row, _ in want]
    assert labels == [label for _, label in want]


@pytest.mark.parametrize("widths", [(4, 6), (6, 4)])
def test_schedule_rejects_segments_of_different_widths(widths):
    segments = tuple(Segment(i, {"centroid_count": 3, "attribute_count": w}, 10, i)
                     for i, w in enumerate(widths))
    with pytest.raises(InvalidScheduleError):
        ConceptSchedule(segments)
    # an unset width is the generators' default, 10
    with pytest.raises(InvalidScheduleError):
        ConceptSchedule((segments[0], Segment(1, {"centroid_count": 3}, 10, 1)))
    ConceptSchedule((Segment(0, {"attribute_count": 10}, 10, 0),
                     Segment(1, {}, 10, 1)))


def test_every_dataset_streams_its_whole_pool_with_default_names():
    for name, dataset in DATASETS.items():
        sched = recurring_schedule(dataset.concepts, 50, 1, base_seed=2)
        width = next(dataset.raw(sched))[0].shape[1]
        s = synthetic_stream(name, sched, calibration_size=40)
        assert s.schema.attribute_names == tuple(f"f{i+1}" for i in range(width))
        assert len(list(s)) == 50 * len(dataset.concepts)


def test_hyperplane_stream_fixed_weights_are_separable():
    sched = ConceptSchedule((Segment(
        0, {"attribute_count": 3, "drifting_attribute_count": 0,
            "weights": [5.0, 1.0, 1.0]}, 3_000, 11),))
    insts = list(synthetic_stream("hyperplane", sched, bits_per_attribute=1,
                                  calibration_size=500))
    # the heavy first weight decides most labels; its median bit must correlate
    hits = sum(1 for i in insts if i.label == i.features[0])
    assert hits / len(insts) > 0.8


def test_hyperplane_validation():
    sched = ConceptSchedule((Segment(0, {"drifting_attribute_count": 99}, 10, 1),))
    with pytest.raises(InvalidParamsError):
        list(synthetic_stream("hyperplane", sched))
    bad = ConceptSchedule((Segment(
        0, {"attribute_count": 3, "drifting_attribute_count": 0,
            "weights": [1.0]}, 10, 1),))
    with pytest.raises(InvalidParamsError):
        list(synthetic_stream("hyperplane", bad))


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_file_stream_basic(tmp_path, caplog):
    p = _write(tmp_path, "toy.csv",
               "a,b,label\n"
               "1.0,10.0,yes\n"
               "2.0,20.0,no\n"
               "3.0,30.0,yes\n"
               "4.0,40.0,no\n")
    caplog.set_level(logging.INFO, logger="fct.stream")
    s = file_stream(p, calibration_size=4, bits_per_attribute=1)
    insts = list(s)
    assert len(insts) == 4
    # first seen -> 1
    assert f"class mapping for {p}: 'yes' -> 1, 'no' -> 0" in caplog.messages
    assert [i.label for i in insts] == [1, 0, 1, 0]
    assert s.schema.attribute_names == ("a", "b")


def test_file_stream_semicolons(tmp_path):
    p = _write(tmp_path, "toy.csv",
               "a;b;label\n1.0;2.0;x\n3.0;4.0;y\n")
    insts = list(file_stream(p, calibration_size=2))
    assert [i.label for i in insts] == [1, 0]


def test_file_stream_row_errors(tmp_path):
    p = _write(tmp_path, "ragged.csv", "a,label\n1.0,x\n1.0\n")
    with pytest.raises(RowParseError) as err:
        list(file_stream(p, calibration_size=10))
    assert err.value.line_number == 3

    p2 = _write(tmp_path, "nonnum.csv", "a,label\n1.0,x\nfoo,x\n")
    with pytest.raises(RowParseError):
        list(file_stream(p2, calibration_size=10))

    # non-finite values are refused inside and after the calibration window
    for i, bad in enumerate(("nan", "inf", "-inf")):
        p3 = _write(tmp_path, f"nonfinite{i}.csv", f"a,label\n1.0,x\n{bad},y\n")
        for calibration_size in (10, 1):
            with pytest.raises(RowParseError) as err:
                list(file_stream(p3, calibration_size=calibration_size))
            assert err.value.line_number == 3


def test_file_stream_rejects_three_classes(tmp_path):
    p = _write(tmp_path, "tri.csv", "a,label\n1,x\n2,y\n3,z\n")
    with pytest.raises(UnsupportedDatasetError):
        list(file_stream(p, calibration_size=5))


def test_file_stream_rejects_empty(tmp_path):
    p = _write(tmp_path, "empty.csv", "")
    with pytest.raises(UnsupportedDatasetError):
        file_stream(p)
    p2 = _write(tmp_path, "headeronly.csv", "a,label\n")
    for bits in (1, 0):
        with pytest.raises(UnsupportedDatasetError,
                           match="headeronly.csv: no data rows"):
            file_stream(p2, bits_per_attribute=bits)
    # with rows to fit on, a bad bit width is the binarizer's error
    p3 = _write(tmp_path, "onerow.csv", "a,label\n1.0,x\n")
    with pytest.raises(InvalidParamsError):
        file_stream(p3, bits_per_attribute=0)


def test_file_and_synthetic_sources_code_rows_alike(tmp_path):
    # the same raw SEA rows, read back from a csv, give the same stream
    sched = recurring_schedule([{"threshold": 8.0}, {"threshold": 9.5}], 300, 1,
                               noise_probability=0.1, base_seed=8)
    p = tmp_path / "sea.csv"
    with open(p, "w") as fh:
        fh.write("f1,f2,f3,label\n")
        for rows, labels in sea_raw(sched):
            for row, label in zip(rows.tolist(), labels.tolist()):
                fh.write(",".join(map(repr, row)) + f",{label}\n")
    synthetic = synthetic_stream("sea", sched, bits_per_attribute=2,
                                 calibration_size=250)
    from_file = file_stream(p, bits_per_attribute=2, calibration_size=250)
    assert from_file.schema.attribute_names == synthetic.schema.attribute_names
    a, b = list(synthetic), list(from_file)
    assert len(a) == len(b) == 600
    class_map = {a[0].label: 1, 1 - a[0].label: 0}  # first seen -> 1
    for x, y in zip(a, b):
        assert x.features.tolist() == y.features.tolist()
        assert class_map[x.label] == y.label and x.index == y.index


def test_file_stream_reads_past_one_block(tmp_path):
    # a file shorter than one block streams every row; a bad row after the
    # first block keeps its own line number
    short = [[float(i), float(i % 7)] for i in range(50)]
    p = _write(tmp_path, "short.csv", "a,b,label\n" + "".join(
        f"{a!r},{b!r},{int(a) % 2}\n" for a, b in short))
    insts = list(file_stream(p, bits_per_attribute=2, calibration_size=20))
    binz = binarize(short[:20], 2)
    assert [i.index for i in insts] == list(range(50))
    assert [i.label for i in insts] == [1 - int(a) % 2 for a, _ in short]
    assert [i.features.tolist() for i in insts] == binz.transform(short).tolist()

    good = "".join(f"{i},{i % 2}\n" for i in range(BLOCK_ROWS + 3))
    line = 1 + BLOCK_ROWS + 3 + 1  # header, good rows, then the bad one
    for bad in ("foo", "nan"):
        p = _write(tmp_path, f"long_{bad}.csv", f"a,label\n{good}{bad},0\n1,1\n")
        stream = file_stream(p, calibration_size=10)
        with pytest.raises(RowParseError) as err:
            list(stream)
        assert err.value.line_number == line
