"""Random forest: determinism, fit quality, Gini oracle, serialization, and
the batched `rank_many` against the per-query ranking it replaced."""

import json

import numpy as np
import pytest

import forest_oracle as oracle
from forest_oracle import _gini_pair
from freqscope.forest import (
    ForestModel,
    ForestParams,
    _best_split,
    _square_sums,
    forest_train,
    rank_many,
)
from helpers import traced_peak


def gini_oracle(left_labels, right_labels):
    """Textbook weighted Gini computed label-by-label."""
    def gini(part):
        n = len(part)
        return 1.0 - sum((part.count(c) / n) ** 2 for c in set(part))
    n = len(left_labels) + len(right_labels)
    return (len(left_labels) * gini(left_labels) + len(right_labels) * gini(right_labels)) / n


def test_gini_pair_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, n_classes = int(rng.integers(4, 30)), int(rng.integers(2, 5))
        y = rng.integers(0, n_classes, size=n)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y] = 1.0
        cum = np.cumsum(onehot, axis=0)
        total = np.bincount(y, minlength=n_classes).astype(np.float64)
        boundaries = np.arange(n - 1)
        got = _gini_pair(cum[boundaries], total, (boundaries + 1).astype(np.float64), n)
        for b in boundaries:
            want = gini_oracle(y[: b + 1].tolist(), y[b + 1 :].tolist())
            assert got[b] == pytest.approx(want, abs=1e-12)


def square_counts(labels):
    """sum over classes of count**2, counted label by label."""
    return sum(labels.count(c) ** 2 for c in set(labels))


@pytest.mark.parametrize("seed", range(20))
def test_square_sums_are_exact(seed):
    rng = np.random.default_rng(seed)
    n, n_classes, m = int(rng.integers(2, 80)), int(rng.integers(2, 51)), int(rng.integers(1, 5))
    y = rng.integers(0, n_classes, size=n)
    # columns of few distinct values: ties keep the node's original order
    cols = rng.integers(0, 4, size=(n, m))
    ys = y[np.argsort(cols, axis=0, kind="stable")]
    total = np.bincount(y, minlength=n_classes)
    left_sq, right_sq = _square_sums(ys.astype(np.uint8), total)
    assert left_sq.dtype == right_sq.dtype == np.int64
    onehot = np.eye(n_classes)[ys]  # [n, m, C]
    cum = np.cumsum(onehot, axis=0)[:-1]
    assert np.array_equal(left_sq, np.sum(cum * cum, axis=2))
    assert np.array_equal(right_sq, np.sum((total - cum) ** 2, axis=2))
    for j in range(m):
        col = ys[:, j].tolist()
        for b in range(n - 1):
            left, right = col[: b + 1], col[b + 1 :]
            assert (left_sq[b, j], right_sq[b, j]) == (square_counts(left), square_counts(right))
            gini = (len(left) * (1 - left_sq[b, j] / len(left) ** 2)
                    + len(right) * (1 - right_sq[b, j] / len(right) ** 2)) / n
            assert gini == pytest.approx(gini_oracle(left, right), abs=1e-12)


def test_best_split_memory_has_no_class_axis():
    # a [n-1, m, C] float64 class-count tensor here would be 41 MB
    rng = np.random.default_rng(0)
    n, m, n_classes = 400, 32, 400
    X = rng.integers(0, 50, size=(n, m)).astype(np.float64)
    y = rng.integers(0, n_classes, size=n)
    idx, features = np.arange(n), np.arange(m)
    split, peak = traced_peak(lambda: _best_split(X, y, idx, features, 1, n_classes))
    assert split is not None
    assert peak < 8 * 2**20


def xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    labels = ["pos" if a * b > 0 else "neg" for a, b in x]
    return x, labels


def test_forest_fits_xor():
    x, labels = xor_data()
    model = forest_train(x, labels, ForestParams(n_trees=30, seed=1))
    order, _ = rank_many(model, x)
    correct = sum(model.classes[c] == lb for c, lb in zip(order[:, 0].tolist(), labels))
    assert correct / len(x) > 0.9  # a single axis split cannot do this


def test_forest_deterministic():
    x, labels = xor_data(seed=3)
    a = forest_train(x, labels, ForestParams(n_trees=10, seed=7))
    b = forest_train(x, labels, ForestParams(n_trees=10, seed=7))
    assert a.trees == b.trees
    q = np.array([[0.3, -0.4]])
    assert [r.tobytes() for r in rank_many(a, q)] == [r.tobytes() for r in rank_many(b, q)]


def test_forest_seed_changes_trees():
    x, labels = xor_data(seed=3)
    a = forest_train(x, labels, ForestParams(n_trees=10, seed=7))
    b = forest_train(x, labels, ForestParams(n_trees=10, seed=8))
    assert a.trees != b.trees


def test_trees_are_json_serializable():
    x, labels = xor_data(n=60)
    model = forest_train(x, labels, ForestParams(n_trees=5, seed=2))
    rebuilt = json.loads(json.dumps(model.trees))
    assert rebuilt == model.trees


def test_rank_is_total_and_scores_sum_to_one():
    x, labels = xor_data(n=80)
    model = forest_train(x, labels, ForestParams(n_trees=9, seed=4))
    (order,), (votes,) = rank_many(model, x[:1])
    assert sorted(order.tolist()) == [0, 1]
    assert votes.sum() == len(model.trees)
    assert votes[0] >= votes[1]


def test_vote_tie_falls_to_smaller_label():
    # one-feature data separable at 0; even tree count can tie exactly
    x = np.array([[-1.0], [1.0]])
    model = forest_train(x, ["b_right", "a_left"], ForestParams(n_trees=50, seed=0))
    (order,), (votes,) = rank_many(model, np.array([[0.0]]))
    if votes[0] == votes[1]:
        assert model.classes[order[0]] == "a_left"


def test_min_leaf_respected():
    x, labels = xor_data(n=100, seed=9)
    model = forest_train(x, labels, ForestParams(n_trees=5, min_leaf=10, seed=1))

    def max_depth(node):
        if "label" in node:
            return 0
        return 1 + max(max_depth(node["l"]), max_depth(node["r"]))

    # min_leaf=10 on 100 samples bounds the tree to ~log2(100/10) useful levels;
    # just assert trees stay shallow compared to the unconstrained default
    assert all(max_depth(t) <= 7 for t in model.trees)


def test_max_depth_respected():
    x, labels = xor_data(n=150, seed=10)
    model = forest_train(x, labels, ForestParams(n_trees=5, max_depth=3, seed=1))

    def max_depth(node):
        if "label" in node:
            return 0
        return 1 + max(max_depth(node["l"]), max_depth(node["r"]))

    assert all(max_depth(t) <= 3 for t in model.trees)


def test_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_trees=0)
    with pytest.raises(ValueError):
        ForestParams(max_depth=0)
    with pytest.raises(ValueError):
        ForestParams(feature_subsample=0.0)
    with pytest.raises(ValueError):
        ForestParams(feature_subsample="log2")
    assert ForestParams(feature_subsample="sqrt").features_per_split(100) == 10
    assert ForestParams(feature_subsample=0.5).features_per_split(10) == 5
    assert ForestParams().features_per_split(1) == 1


def test_train_validation():
    with pytest.raises(ValueError):
        forest_train(np.zeros((0, 2)), [], ForestParams())
    with pytest.raises(ValueError):
        forest_train(np.zeros((3, 2)), ["a", "a", "a"], ForestParams())
    with pytest.raises(ValueError):
        forest_train(np.zeros((3, 2)), ["a", "b"], ForestParams())


def test_constant_feature_yields_leaf():
    x = np.zeros((6, 2))
    labels = ["a", "a", "a", "b", "b", "b"]
    model = forest_train(x, labels, ForestParams(n_trees=3, seed=0))
    # nothing to split on: every tree is a single leaf
    assert all("label" in t and "f" not in t for t in model.trees)


def assert_matches_oracle(model, Q):
    """rank_many against the per-query ranking, bit for bit: the label
    order, and votes / trees against the oracle's scores."""
    order, votes = rank_many(model, Q)
    assert order.shape == votes.shape == (len(Q), len(model.classes))
    assert votes.dtype == np.int64
    want = [oracle.forest_rank(model, q) for q in Q]
    assert [[model.classes[c] for c in row] for row in order.tolist()] == \
        [[label for label, _ in ranking] for ranking in want]
    scores = np.array([[score for _, score in ranking] for ranking in want])
    assert (votes / len(model.trees)).tobytes() == scores.reshape(votes.shape).tobytes()


def hand_forest(classes, trees):
    return ForestModel(params=ForestParams(n_trees=len(trees)), classes=classes, trees=trees)


STUMP = {"f": 0, "t": 0.5, "l": {"label": 0}, "r": {"f": 1, "t": -1.0, "l": {"label": 1},
                                                     "r": {"label": 3}}}


def test_rank_many_vote_ties_and_zero_vote_classes():
    # a and c tie on one vote each; b and d get none: label order breaks both ties
    model = hand_forest(["a", "b", "c", "d"], [{"label": 2}, {"label": 0}])
    order, votes = rank_many(model, np.zeros((3, 2)))
    assert order.tolist() == [[0, 2, 1, 3]] * 3
    assert votes.tolist() == [[1, 1, 0, 0]] * 3
    assert_matches_oracle(model, np.zeros((3, 2)))


def test_rank_many_routes_each_row_down_its_own_path():
    model = hand_forest(["a", "b", "c", "d"], [STUMP, STUMP, {"label": 1}])
    # <= goes left, so a value equal to the threshold does; NaN compares false
    Q = np.array([[0.5, 9.0], [0.6, -1.0], [0.6, -0.5], [np.nan, np.nan], [-np.inf, 0.0]])
    order, votes = rank_many(model, Q)
    assert order[:, 0].tolist() == [0, 1, 3, 3, 0]
    assert votes[:, 0].tolist() == [2, 3, 2, 2, 2]
    assert_matches_oracle(model, Q)


def test_rank_many_one_tree_one_query_no_query():
    x, labels = xor_data(n=60, seed=4)
    model = forest_train(x, labels, ForestParams(n_trees=1, seed=2))
    for Q in (x[:1], x, np.zeros((0, 2))):
        assert_matches_oracle(model, Q)
    model = forest_train(x, labels, ForestParams(n_trees=6, seed=2))
    assert_matches_oracle(model, x[:1])
    with pytest.raises(ValueError, match="2-d"):
        rank_many(model, x[0])


@pytest.mark.parametrize("seed", range(4))
def test_rank_many_matches_oracle_on_trained_forests(seed):
    rng = np.random.default_rng(seed)
    n, d, n_classes = 120, 6, int(rng.integers(2, 9))
    x = rng.integers(0, 4, size=(n, d)).astype(np.float64)  # few levels: split ties
    labels = [f"c{int(v)}" for v in rng.integers(0, n_classes, size=n)]
    model = forest_train(x, labels, ForestParams(n_trees=8, max_depth=6, seed=seed))
    # half-steps hit the split thresholds exactly
    assert_matches_oracle(model, rng.integers(-1, 9, size=(200, d)) / 2.0)


def test_rank_many_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def problems(draw):
        n, d = draw(st.integers(2, 30)), draw(st.integers(1, 4))
        cell = st.integers(0, draw(st.integers(1, 4)))
        x = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
        labels = draw(st.lists(st.sampled_from("abcde"), min_size=n, max_size=n)
                      .filter(lambda ls: len(set(ls)) > 1))
        params = ForestParams(n_trees=draw(st.integers(1, 6)), max_depth=draw(st.integers(1, 5)),
                              min_leaf=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)))
        q = draw(st.lists(st.lists(st.integers(-1, 9), min_size=d, max_size=d), max_size=15))
        model = forest_train(np.array(x, dtype=np.float64), labels, params)
        return model, np.array(q, dtype=np.float64).reshape(len(q), d) / 2.0

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(problem=problems())
    def check(problem):
        assert_matches_oracle(*problem)

    check()
