"""Dataset container, deterministic splitting, and the directory layout."""

import re

import numpy as np
import pytest

from dataset_oracle import split_dataset  # each label's rows at its split_indices
from freqscope.dataset import (
    DEFAULT_FRACTIONS,
    DatasetFormatError,
    LabeledDataset,
    load_dataset,
    measurement_filename,
    save_dataset,
    split_indices,
    stable_seed,
)
from freqscope.trace import FrequencyTrace


def make_ds(classes=3, per_class=10, n=20):
    labels = [f"c{i}" for i in range(classes)]
    return LabeledDataset(
        {label: np.array([[1_000_000 + 1000 * (i * per_class + m + k) for k in range(n)]
                          for m in range(per_class)], dtype=np.int64)
         for i, label in enumerate(labels)},
        {label: ["ryzen5"] * per_class for label in labels},
        10,
    )


def test_stable_seed_is_stable_and_distinct():
    assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)
    assert stable_seed(1, "a", 2) != stable_seed(1, "a", 3)
    assert stable_seed("12") != stable_seed(12)


def test_dataset_validation():
    ds = make_ds()
    unsorted = LabeledDataset({"b": ds.samples["c1"], "a": ds.samples["c0"]},
                              {"b": ds.devices["c1"], "a": ds.devices["c0"]}, 10)
    assert unsorted.classes == ["a", "b"]
    short = np.ones((2, 3), dtype=np.int64)
    with pytest.raises(DatasetFormatError, match=re.escape("sample count: [3, 20]")):
        LabeledDataset({"a": short, "b": ds.samples["c0"]}, {"a": ["x"] * 2, "b": ds.devices["c0"]},
                       10)
    for rows, devices in ((short.astype(np.float64), 2), (short[0], 3), (short, 1)):
        with pytest.raises(ValueError, match=re.escape("'a' needs an int64 [N, T] matrix and N")):
            LabeledDataset({"a": rows}, {"a": ["x"] * devices}, 10)


def test_dataset_matrices_are_read_only():
    rows = np.ones((2, 3), dtype=np.int64)
    LabeledDataset({"a": rows}, {"a": ["x", "y"]}, 10)
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 7


def test_split_sizes_and_disjointness():
    ds = make_ds(classes=4, per_class=10)
    train, val, test = split_dataset(ds, 0, DEFAULT_FRACTIONS)
    for label in ds.classes:
        assert len(train.samples[label]) == 8
        assert len(val.samples[label]) == 1
        assert len(test.samples[label]) == 1
        rows = [row.tobytes() for part in (train, val, test) for row in part.samples[label]]
        assert sorted(rows) == sorted(row.tobytes() for row in ds.samples[label])
        assert all(part.devices[label] == ["ryzen5"] * len(part.samples[label])
                   for part in (train, val, test))


def test_split_is_pure_function_of_seed_label_index():
    a = split_dataset(make_ds(), 5, DEFAULT_FRACTIONS)
    b = split_dataset(make_ds(), 5, DEFAULT_FRACTIONS)
    for part_a, part_b in zip(a, b):
        for label in part_a.classes:
            assert part_a.samples[label].tolist() == part_b.samples[label].tolist()


def test_split_changes_with_seed():
    a, _, _ = split_dataset(make_ds(), 0, DEFAULT_FRACTIONS)
    b, _, _ = split_dataset(make_ds(), 1, DEFAULT_FRACTIONS)
    same = all(a.samples[l].tolist() == b.samples[l].tolist() for l in a.classes)
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
        split_indices(0, "a", 10, fractions)


def test_measurement_filename():
    assert measurement_filename(0) == "0000.ftrace"
    assert measurement_filename(123) == "0123.ftrace"


def test_save_load_roundtrip(tmp_path):
    ds = make_ds(classes=2, per_class=3)
    root = tmp_path / "ds"
    save_dataset(ds, root)
    back = load_dataset(root)
    assert back.classes == ds.classes
    assert back.interval_ms == 10
    for label in ds.classes:
        assert back.samples[label].tobytes() == ds.samples[label].tobytes()
        assert back.devices[label] == ["ryzen5"] * 3
        assert not back.samples[label].flags.writeable
        first = (root / label / "0000.ftrace").read_text().splitlines()
        assert first[:4] == ["#ftrace v1", "#interval_ms=10", "#device=ryzen5", f"#label={label}"]


def test_label_directories_are_encoded(tmp_path):
    label = "shop/cart page"
    ds = LabeledDataset({label: np.array([[1, 2, 3]], dtype=np.int64)}, {label: ["x"]}, 10)
    save_dataset(ds, tmp_path / "ds")
    subdirs = [p.name for p in (tmp_path / "ds").iterdir() if p.is_dir()]
    assert subdirs == ["shop%2Fcart%20page"]
    back = load_dataset(tmp_path / "ds")
    assert back.classes == [label]


def test_load_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")


def test_a_member_without_a_label_header_loads(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "0000.ftrace").write_text("#ftrace v1\n#interval_ms=10\n0,100\n1,200\n")
    back = load_dataset(tmp_path)
    assert back.samples["a"].tolist() == [[100, 200]]
    assert back.devices == {"a": ["unknown"]}


def test_a_split_part_without_rows_keeps_every_label(tmp_path):
    save_dataset(make_ds(classes=2, per_class=4), tmp_path)
    val = load_dataset(tmp_path, split=(0, (0.75, 0.0, 0.25), "val"))
    assert val.classes == ["c0", "c1"] and val.total_measurements() == 0
    assert val.interval_ms is None  # no row was read, so no interval is known
