"""The batched forest split search against the per-feature reference loop:
single splits and the tree JSON must be identical."""

import json

import numpy as np
import pytest

import forest_oracle as oracle
from freqscope.classify import dataset_matrix
from freqscope.dataset import stable_seed
from freqscope.defend import constant_mask, defended_rows, noise_inject, resolution_reduce
from freqscope.forest import ForestParams, _best_split, forest_train
from freqscope.governors import SimConfig
from freqscope.profiles import get_profile
from freqscope.trace import FrequencyTrace
from freqscope.workloads import website_workload
from helpers import simulate, traces_dataset


def assert_same_trees(X, labels, params):
    want = json.dumps(oracle.forest_train(X, labels, params).trees)
    got = json.dumps(forest_train(X, labels, params).trees)
    assert got == want


def tied_data(seed, n_classes, n_rows=90, n_features=36, levels=5):
    """Integer-valued features with heavy ties, two constant columns, some
    columns shifted by class so trees grow past the root, and repeated rows."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n_rows)
    X = rng.integers(0, levels, size=(n_rows, n_features)).astype(np.float64)
    X[:, ::4] += y[:, None] % levels
    X[:, [3, 17]] = 7.0
    X = np.vstack([X, X[:12]])
    y = np.concatenate([y, y[:12]])
    return X, [f"c{int(c):02d}" for c in y]


@pytest.mark.parametrize("n_classes", (2, 20))
@pytest.mark.parametrize("subsample", ("sqrt", 0.3, 1.0))
@pytest.mark.parametrize("min_leaf,max_depth", ((1, 20), (3, 20), (1, 3), (3, 3)))
@pytest.mark.parametrize("seed", (0, 3))
def test_tied_data_trees_identical(seed, min_leaf, max_depth, subsample, n_classes):
    X, labels = tied_data(seed, n_classes)
    params = ForestParams(n_trees=3, max_depth=max_depth, min_leaf=min_leaf,
                          feature_subsample=subsample, seed=seed)
    assert_same_trees(X, labels, params)


def test_continuous_data_trees_identical():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(70, 12))
    labels = [f"c{i % 4}" for i in range(70)]
    assert_same_trees(X, labels, ForestParams(n_trees=4, feature_subsample=0.5, seed=1))


def test_constant_columns_only_yield_leaves():
    X = np.full((10, 5), 3.0)
    labels = ["a", "b"] * 5
    params = ForestParams(n_trees=2, seed=0)
    assert_same_trees(X, labels, params)
    assert all("f" not in t for t in forest_train(X, labels, params).trees)


def wide_codes(rng, n):
    # class codes above 2**15 would wrap in an int16 label copy
    return rng.choice([0, 1, 2**15 - 1, 2**15, 2**15 + 1, 39_999], size=n), 40_000


def all_but_one(rng, n):
    y = np.full(n, 3)
    y[rng.integers(n)] = 0
    return y, 4


def many_classes(rng, n):
    return rng.integers(0, 60, size=n), 60


@pytest.mark.parametrize("labels, min_leaf", [
    (wide_codes, 1), (wide_codes, 3), (all_but_one, 1), (all_but_one, 2),
    (many_classes, 2), (many_classes, 5),
])
@pytest.mark.parametrize("seed", range(4))
def test_edge_node_splits_identical(labels, min_leaf, seed):
    rng = np.random.default_rng(seed)
    n_rows = 48
    X = rng.integers(0, 6, size=(n_rows, 10)).astype(np.float64)
    X[:, 2] = 1.0  # one constant column
    y, n_classes = labels(rng, n_rows)
    idx = rng.integers(0, n_rows, size=n_rows)  # a bootstrap: repeated rows
    features = np.sort(rng.choice(10, size=int(rng.integers(1, 11)), replace=False))
    want = oracle.best_split(X, y, idx, features, min_leaf, n_classes)
    got = _best_split(X, y, idx, features, min_leaf, n_classes)
    assert oracle.plain(got) == oracle.plain(want)


@pytest.fixture(scope="module")
def website_small():
    cfg = SimConfig(profile=get_profile("ryzen5"), governor="schedutil")
    labels = [f"site-{i:02d}" for i in range(6)]
    measurements = {}
    for label in labels:
        rows = []
        for m in range(8):
            wl = website_workload(label, 160, seed=stable_seed(0, "website", label, m),
                                  jitter=0.3)
            sim = simulate(wl, cfg)
            rows.append(FrequencyTrace(samples=sim.samples, interval_ms=10,
                                       device=sim.device, label=label))
        measurements[label] = rows
    return traces_dataset(measurements)


DEFENSES = {
    "clean": None,
    "resolution": resolution_reduce(5),
    "noise": noise_inject(20.0),
    "mask": constant_mask(2_200_000),
}


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("defense", sorted(DEFENSES))
def test_defended_datasets_trees_identical(website_small, defense, seed):
    d = DEFENSES[defense]
    X, labels = dataset_matrix(website_small,
                               transform=None if d is None else defended_rows(d, website_small))
    for min_leaf in (1, 3):
        assert_same_trees(X, labels, ForestParams(n_trees=3, min_leaf=min_leaf, seed=seed))
