"""Dataset container, deterministic splitting, and the directory layout."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dataset_oracle import split_dataset  # each label's rows at its split_indices
from freqscope.dataset import (
    DEFAULT_FRACTIONS,
    DatasetFormatError,
    LOCK_NAME,
    LabeledDataset,
    LockError,
    dataset_lock,
    load_dataset,
    measurement_filename,
    save_dataset,
    split_indices,
    stable_seed,
)
from freqscope.trace import FrequencyTrace, load_trace


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


def test_samples_outside_int64_range_are_refused_before_any_write(tmp_path):
    """A label's matrix is checked whole when the dataset is made, so no
    save writes the rows before a bad one (FrequencyTrace's check, row by
    row, did)."""
    rows = np.ones((3, 4), dtype=np.int64)
    rows[2, 1] = -1
    with pytest.raises(ValueError, match=re.escape("integers in [0, 2**63), got -1")):
        save_dataset(LabeledDataset({"a": rows}, {"a": ["x"] * 3}, 10), tmp_path / "ds")
    big = np.ones((3, 4), dtype=np.uint64)  # 2**63 has no int64
    big[2, 1] = 2**63
    with pytest.raises(ValueError, match=re.escape("'a' needs an int64 [N, T] matrix")):
        save_dataset(LabeledDataset({"a": big}, {"a": ["x"] * 3}, 10), tmp_path / "ds")
    assert not (tmp_path / "ds").exists()
    assert LabeledDataset({"a": np.empty((0, 4), dtype=np.int64)}, {"a": []}, None).classes == ["a"]


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


def tree_files(root):
    """{path relative to root: bytes} of every file below root."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_save_appends_and_never_replaces(tmp_path):
    """A second save continues each label's ids after the highest numeric id
    already there, a gap and foreign names included, and rewrites nothing."""
    root = tmp_path / "ds"
    save_dataset(make_ds(classes=2, per_class=3, n=4), root)
    (root / "c1" / "0007.ftrace").write_bytes((root / "c1" / "0000.ftrace").read_bytes())
    (root / "c1" / "x9.ftrace").write_text("not a trace")
    (root / "c1" / "0042.tmp").write_text("not a trace")
    before = tree_files(root)
    more = LabeledDataset({label: np.full((2, 4), 7 + i, dtype=np.int64)
                           for i, label in enumerate(("c0", "c1", "new"))},
                          {label: ["other"] * 2 for label in ("c0", "c1", "new")}, 10)
    save_dataset(more, root)
    after = tree_files(root)
    assert {path: after[path] for path in before} == before
    assert sorted(map(str, set(after) - set(before))) == [
        "c0/0003.ftrace", "c0/0004.ftrace", "c1/0008.ftrace", "c1/0009.ftrace", "new/0000.ftrace",
        "new/0001.ftrace"]
    for path, value in (("c0/0004.ftrace", 7), ("c1/0008.ftrace", 8), ("new/0000.ftrace", 9)):
        trace = load_trace(root / path)
        assert trace.samples.tolist() == [value] * 4 and trace.device == "other"


def test_save_refuses_traces_unlike_those_under_the_root(tmp_path):
    root = tmp_path / "ds"
    save_dataset(make_ds(classes=2, per_class=3, n=4), root)
    before = tree_files(root)
    for n, interval in ((5, 10), (4, 20)):
        more = LabeledDataset({label: np.ones((2, n), dtype=np.int64) for label in ("c0", "new")},
                              {label: ["x"] * 2 for label in ("c0", "new")}, interval)
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{root} holds traces of 4 samples at 10 ms; cannot append traces of {n} samples"
                f" at {interval} ms")):
            save_dataset(more, root)
        assert tree_files(root) == before


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


def test_a_held_lock_refuses_and_a_released_one_is_removed(tmp_path):
    root = tmp_path / "new" / "root"
    with dataset_lock(root):
        assert os.listdir(root) == [LOCK_NAME]
        with pytest.raises(LockError, match=re.escape(f"{root} is being written by another run")):
            with dataset_lock(root):
                pass
    # the directories it created go with it when empty; a root that was
    # there, or that holds more than the lock, stays, and so do those above it
    assert not root.parent.exists() and os.listdir(tmp_path) == []
    with dataset_lock(root):
        (root / "kept").write_text("")
    with dataset_lock(root.parent):
        pass
    assert os.listdir(root) == ["kept"] and os.listdir(root.parent) == ["root"]


def test_a_root_that_names_no_directory_is_an_error(tmp_path):
    """A file or a dangling symlink at root, above it or at its lock file
    fails at once, where a root a releasing holder removed would be made
    again."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    (tmp_path / "ds").mkdir()
    (tmp_path / "ds" / LOCK_NAME).symlink_to(tmp_path / "nowhere" / "lock")
    for name, error in (("file", FileExistsError), ("dangling", FileExistsError),
                        ("dangling/ds", FileNotFoundError), ("ds", FileNotFoundError)):
        with pytest.raises(error):
            with dataset_lock(tmp_path / name):
                pass
    assert sorted(os.listdir(tmp_path)) == ["dangling", "ds", "file"]


def test_a_root_removed_before_its_lock_is_opened_is_made_again(tmp_path, monkeypatch):
    """A releasing holder may remove the root it created between another
    run's makedirs and its open of the lock file: that run makes it again."""
    root, calls, makedirs = tmp_path / "ds", [], os.makedirs

    def makedirs_then_lose_it(path, *args, **kwargs):
        makedirs(path, *args, **kwargs)
        calls.append(path)
        if len(calls) == 1:
            os.rmdir(path)

    monkeypatch.setattr(os, "makedirs", makedirs_then_lose_it)
    with dataset_lock(root):
        monkeypatch.undo()
        assert os.listdir(root) == [LOCK_NAME]
    assert calls == [str(root)] * 2 and not root.exists()


CONTEND = """
import os, sys, time
from freqscope.dataset import LockError, dataset_lock
root, held, end = sys.argv[1], 0, time.monotonic() + 1.5
while time.monotonic() < end:
    try:
        with dataset_lock(root):
            # O_EXCL: a second holder at the same time fails here
            os.close(os.open(os.path.join(root, "holder"), os.O_CREAT | os.O_EXCL))
            os.unlink(os.path.join(root, "holder"))
            held += 1
    except LockError:
        pass
print(held)
"""


def test_contending_processes_never_hold_the_lock_at_once(tmp_path):
    """Four processes take and release one root's lock for 1.5 s: a file a
    releasing holder just unlinked is never taken, so no two hold it at once."""
    runs = [subprocess.Popen([sys.executable, "-c", CONTEND, str(tmp_path)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(4)]
    results = [run.communicate(timeout=60) for run in runs]
    assert [run.returncode for run in runs] == [0] * 4, [err for _, err in results]
    assert all(int(out) > 0 for out, _ in results)
    assert os.listdir(tmp_path) == []


def test_contending_processes_on_a_root_they_create(tmp_path):
    """As above on a root that does not exist yet: a releasing holder
    removes the root it created, and a run that lost the root to it makes
    the root again; at the end it is gone, or empty when its last holder
    found it made."""
    root = tmp_path / "ds"
    runs = [subprocess.Popen([sys.executable, "-c", CONTEND, str(root)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(4)]
    results = [run.communicate(timeout=60) for run in runs]
    assert [run.returncode for run in runs] == [0] * 4, [err for _, err in results]
    assert all(int(out) > 0 for out, _ in results)
    assert not root.exists() or os.listdir(root) == []
