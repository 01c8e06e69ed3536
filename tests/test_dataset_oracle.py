"""The matrix dataset against the list-based one it replaced, kept in
`tests/dataset_oracle.py`: loading, splitting and defending give the same
traces, row for row, on simulated, collected and merged trees, and a
malformed tree fails both with the same exception class. Splitting is
taking each part's rows by index, as `load_dataset` and `dataset_matrix` do."""

import re
import shutil

import numpy as np
import pytest

import dataset_oracle as oracle
from freqscope.cli import main
from freqscope.classify import NORM_MINMAX, dataset_matrix
from freqscope.dataset import DEFAULT_FRACTIONS, SPLIT_PARTS, load_dataset, split_indices
from freqscope.defend import constant_mask, noise_inject, resolution_reduce
from helpers import defend_every_row, merge_datasets
from test_cli import MALFORMED_DATASETS, write_tree

SEEDS = (0, 1, 7)
SPLITS = ((0, DEFAULT_FRACTIONS), (5, (0.5, 0.25, 0.25)), (3, (0.6, 0.0, 0.4)))
DEFENSES = {  # one of each kind, plus the identities that hand back their input
    "resolution": resolution_reduce(5),
    "resolution_identity": resolution_reduce(1),
    "noise": noise_inject(40.0, burst_height=0.6, seed=3),
    "noise_identity": noise_inject(0.0),
    "mask": constant_mask(2_200_000),  # no P-state of cortex_a73: keystroke trees refuse it
}


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def assert_same(ds, listed):
    """Row i of each label is the oracle's trace i of that label: its samples
    byte for byte, its device, the dataset's interval and the label."""
    assert ds.classes == listed.classes
    for label in listed.classes:
        traces = listed.measurements[label]
        assert len(ds.samples[label]) == len(traces) == len(ds.devices[label])
        assert ds.samples[label].dtype == np.int64
        for row, device, trace in zip(ds.samples[label], ds.devices[label], traces):
            assert row.tobytes() == trace.samples.tobytes()
            assert device == trace.device
            assert ds.interval_ms == trace.interval_ms
            assert trace.label == label


def website(root, seed, profile="ryzen5"):
    run("simulate", "--kind", "website", "--classes", "3", "--measurements", "10",
        "--samples", "50", "--profile", profile, "--seed", seed, "--out", root)
    return root


def keystrokes(root, seed):
    (root.parent / "pw.txt").write_text("hunter2\nletmein\nqwerty\n")
    run("simulate", "--kind", "keystrokes", "--passwords", root.parent / "pw.txt",
        "--per-label", "10", "--seed", seed, "--out", root)
    return root


def collected(root, seed):
    for label, profile in (("idle run", "ryzen5"), ("idle run", "comet_lake"), ("web", "ryzen5")):
        run("collect", "--source", "sim", "--workload", "website", "--profile", profile,
            "--samples", "30", "--measurements", "10", "--sleep-ms", "0", "--seed", seed,
            "--label", label, "--out", root)
    return root


def merged(root, seed):
    """The README's file-tree union: a comet_lake copy of every trace beside
    each ryzen5 one, so devices alternate within every label."""
    website(root, seed)
    comet = website(root.parent / "comet", seed, profile="comet_lake")
    for trace in comet.glob("*/*.ftrace"):
        shutil.copy(trace, root / trace.parent.name / f"{trace.stem}-comet.ftrace")
    return root


TREES = {"website": website, "keystrokes": keystrokes, "collect": collected, "merged": merged}


@pytest.fixture(scope="module", params=[(kind, seed) for kind in sorted(TREES) for seed in SEEDS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def tree(request, tmp_path_factory):
    kind, seed = request.param
    return TREES[kind](tmp_path_factory.mktemp(kind) / "ds", seed)


def test_load_matches_the_list_loader(tree):
    ds, listed = load_dataset(tree), oracle.load_dataset(tree)
    assert_same(ds, listed)
    assert all(not rows.flags.writeable for rows in ds.samples.values())


def test_merged_tree_rows_alternate_devices(tmp_path):
    ds = load_dataset(merged(tmp_path / "ds", 0))
    assert all(devices == ["comet_lake", "ryzen5"] * 10 for devices in ds.devices.values())


@pytest.mark.parametrize("split", SPLITS, ids=str)
def test_split_parts_match_the_list_split(tree, split):
    seed, fractions = split
    ds = load_dataset(tree)
    listed_parts = oracle.split_dataset(oracle.load_dataset(tree), seed, fractions)
    for p, (part, listed) in enumerate(zip(SPLIT_PARTS, listed_parts)):
        loaded = load_dataset(tree, split=(seed, fractions, part))
        assert_same(loaded, oracle.load_dataset(tree, split=(seed, fractions, part)))
        if not listed.total_measurements():
            continue
        # the rows a sweep job takes by index, as dataset_matrix writes them
        rows = {label: split_indices(seed, label, len(r), fractions)[p]
                for label, r in ds.samples.items()}
        X, labels = dataset_matrix(ds, rows=rows)
        assert labels == [label for label, _ in listed.items()]
        assert X.tolist() == [t.samples.tolist() for _, t in listed.items()]
        assert (dataset_matrix(ds, NORM_MINMAX, rows)[0].tobytes()
                == dataset_matrix(loaded, NORM_MINMAX)[0].tobytes())


@pytest.mark.parametrize("case", sorted(DEFENSES))
def test_defended_dataset_matches_the_list_defense(tree, case):
    d = DEFENSES[case]
    ds, listed = load_dataset(tree), oracle.load_dataset(tree)
    try:
        want = oracle.defended_dataset(d, listed)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            defend_every_row(d, ds)
        return
    got = defend_every_row(d, ds)
    assert_same(got, want)
    assert got.total_measurements() == want.total_measurements()


def test_merge_is_row_concatenation(tmp_path):
    a = website(tmp_path / "a", 0)
    b = website(tmp_path / "b", 0, profile="comet_lake")
    got = merge_datasets([load_dataset(a), load_dataset(b)])
    first, second = oracle.load_dataset(a), oracle.load_dataset(b)
    assert_same(got, oracle.LabeledDataset({
        label: first.measurements[label] + second.measurements[label]
        for label in first.classes}))


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_malformed_tree_fails_as_the_list_loader(tmp_path, case):
    files, _ = MALFORMED_DATASETS[case]
    write_tree(tmp_path, files)
    with pytest.raises(ValueError) as got:
        load_dataset(tmp_path)
    if case == "label_header_of_another_directory":
        # the list loader never compared the two copies of the label
        assert [t.label for _, t in oracle.load_dataset(tmp_path).items()] == [None, "site02"]
        return
    with pytest.raises(ValueError) as want:
        oracle.load_dataset(tmp_path)
    assert type(got.value) is type(want.value)
