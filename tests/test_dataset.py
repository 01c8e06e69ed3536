"""Dataset container, deterministic splitting, and the directory layout."""

import re

import pytest

from freqscope.dataset import (
    DEFAULT_FRACTIONS,
    LabeledDataset,
    _partition_counts,
    load_dataset,
    measurement_filename,
    save_dataset,
    split_dataset,
    stable_seed,
)
from freqscope.trace import FrequencyTrace


def make_ds(classes=3, per_class=10, n=20):
    labels = [f"c{i}" for i in range(classes)]
    measurements = {
        label: [
            FrequencyTrace(
                samples=[1_000_000 + 1000 * (i * per_class + m + k) for k in range(n)],
                interval_ms=10,
                device="ryzen5",
                label=label,
            )
            for m in range(per_class)
        ]
        for i, label in enumerate(labels)
    }
    return LabeledDataset(classes=labels, measurements=measurements)


def test_stable_seed_is_stable_and_distinct():
    assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)
    assert stable_seed(1, "a", 2) != stable_seed(1, "a", 3)
    assert stable_seed("12") != stable_seed(12)


def test_dataset_validation():
    ds = make_ds()
    with pytest.raises(ValueError):
        LabeledDataset(classes=["a"], measurements={"b": ds.measurements["c0"]})
    with pytest.raises(ValueError):
        LabeledDataset(classes=["a", "a"], measurements={"a": ds.measurements["c0"]})
    short = FrequencyTrace(samples=[1, 2], interval_ms=10)
    with pytest.raises(ValueError):
        LabeledDataset(classes=["a"], measurements={"a": [short, make_ds().measurements["c0"][0]]})


def test_split_sizes_and_disjointness():
    ds = make_ds(classes=4, per_class=10)
    train, val, test = split_dataset(ds, 0, DEFAULT_FRACTIONS)
    for label in ds.classes:
        assert len(train.measurements[label]) == 8
        assert len(val.measurements[label]) == 1
        assert len(test.measurements[label]) == 1
        ids = [id(t) for part in (train, val, test) for t in part.measurements[label]]
        assert len(set(ids)) == 10


def test_split_is_pure_function_of_seed_label_index():
    a = split_dataset(make_ds(), 5, DEFAULT_FRACTIONS)
    b = split_dataset(make_ds(), 5, DEFAULT_FRACTIONS)
    for part_a, part_b in zip(a, b):
        for label in part_a.classes:
            sa = [t.samples.tolist() for t in part_a.measurements[label]]
            sb = [t.samples.tolist() for t in part_b.measurements[label]]
            assert sa == sb


def test_split_changes_with_seed():
    a, _, _ = split_dataset(make_ds(), 0, DEFAULT_FRACTIONS)
    b, _, _ = split_dataset(make_ds(), 1, DEFAULT_FRACTIONS)
    same = all(
        [t.samples.tolist() for t in a.measurements[l]]
        == [t.samples.tolist() for t in b.measurements[l]]
        for l in a.classes
    )
    assert not same


def test_zero_yield_split_rejected():
    with pytest.raises(ValueError, match="fraction"):
        split_dataset(make_ds(per_class=4), 0, DEFAULT_FRACTIONS)  # 0.1 of 4 floors to zero


def test_zero_fraction_is_allowed():
    train, val, test = split_dataset(make_ds(per_class=4), 0, (0.75, 0.0, 0.25))
    assert val.total_measurements() == 0
    assert train.total_measurements() == 3 * 3
    assert test.total_measurements() == 3 * 1


def test_fractions_must_sum_to_one():
    with pytest.raises(ValueError, match="must sum to 1"):
        split_dataset(make_ds(), 0, (0.5, 0.2, 0.2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_fraction_outside_zero_to_finite_names_its_key(bad):
    fractions = (0.5, bad, 0.5)
    message = f"split.val must be a finite fraction >= 0, got {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        split_dataset(make_ds(), 0, fractions)
    with pytest.raises(ValueError, match=re.escape(message)):
        _partition_counts(10, fractions)


def test_measurement_filename():
    assert measurement_filename(0) == "0000.ftrace"
    assert measurement_filename(123) == "0123.ftrace"


def test_save_load_roundtrip(tmp_path):
    ds = make_ds(classes=2, per_class=3)
    root = tmp_path / "ds"
    save_dataset(ds, root)
    back = load_dataset(root)
    assert back.classes == ds.classes
    for label in ds.classes:
        assert [t.samples.tolist() for t in back.measurements[label]] == [
            t.samples.tolist() for t in ds.measurements[label]
        ]
        assert all(t.label == label for t in back.measurements[label])


def test_label_directories_are_encoded(tmp_path):
    label = "shop/cart page"
    trace = FrequencyTrace(samples=[1, 2, 3], interval_ms=10, label=label)
    ds = LabeledDataset(classes=[label], measurements={label: [trace]})
    save_dataset(ds, tmp_path / "ds")
    subdirs = [p.name for p in (tmp_path / "ds").iterdir() if p.is_dir()]
    assert subdirs == ["shop%2Fcart%20page"]
    back = load_dataset(tmp_path / "ds")
    assert back.classes == [label]


def test_load_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")


def test_items_order():
    ds = make_ds(classes=3, per_class=2)
    labels = [label for label, _ in ds.items()]
    assert labels == sorted(labels)
    assert len(labels) == 6
