"""KNN ranking verified against an independent brute-force implementation,
and the batched `rank_many` against the per-query loop it replaced."""

import numpy as np
import pytest

from freqscope import knn
from freqscope.knn import KnnModel, fit_knn, rank_many
from helpers import knn_rank
from knn_oracle import loop_rank_many, oracle_rank


def test_ranking_matches_oracle_on_random_data():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n, dim = int(rng.integers(8, 40)), int(rng.integers(2, 12))
        labels = [f"c{int(v)}" for v in rng.integers(0, 5, size=n)]
        # quantized coordinates force frequent exact distance ties
        x = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
        k = int(rng.integers(1, min(8, n) + 1))
        model = fit_knn(x, labels, k=k)
        for _ in range(10):
            q = rng.integers(0, 4, size=dim).astype(np.float64)
            got = knn_rank(model, q)
            want = oracle_rank(x.tolist(), labels, k, q.tolist())
            assert got == want, f"trial {trial}"


def test_vote_majority_wins():
    x = np.array([[0.0], [0.1], [0.2], [5.0]])
    model = fit_knn(x, ["a", "a", "b", "b"], k=3)
    ranking = knn_rank(model, [0.0])
    assert ranking[0] == ("a", 2 / 3)
    assert ranking[1] == ("b", 1 / 3)


def test_vote_tie_broken_by_mean_distance():
    # two votes each; "far" neighbors average further away
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    model = fit_knn(x, ["near", "near", "far", "far"], k=4)
    ranking = knn_rank(model, [0.0])
    assert [lb for lb, _ in ranking] == ["near", "far"]


def test_full_tie_broken_by_label_order():
    x = np.array([[1.0], [-1.0]])
    model = fit_knn(x, ["zeta", "alpha"], k=2)
    ranking = knn_rank(model, [0.0])
    assert [lb for lb, _ in ranking] == ["alpha", "zeta"]


def test_distance_tie_uses_training_index():
    # both rows at distance 1; index 0 wins the single neighbor slot
    x = np.array([[1.0], [-1.0]])
    model = fit_knn(x, ["first", "second"], k=1)
    assert knn_rank(model, [0.0])[0] == ("first", 1.0)


def test_unvoted_labels_complete_the_ranking():
    x = np.array([[0.0], [0.1], [9.0], [12.0]])
    model = fit_knn(x, ["a", "a", "b", "c"], k=2)
    ranking = knn_rank(model, [0.0])
    assert [lb for lb, _ in ranking] == ["a", "b", "c"]
    assert [s for _, s in ranking] == [1.0, 0.0, 0.0]


def test_model_validation():
    with pytest.raises(ValueError):
        fit_knn(np.zeros((0, 3)), [], k=1)
    with pytest.raises(ValueError):
        fit_knn(np.zeros((3, 2)), ["a", "b"], k=1)
    with pytest.raises(ValueError):
        fit_knn(np.zeros((3, 2)), ["a", "b", "c"], k=4)


def test_query_length_checked():
    model = fit_knn(np.zeros((2, 3)), ["a", "b"], k=1)
    with pytest.raises(ValueError, match="length"):
        rank_many(model, [[0.0, 0.0]])


def test_model_rejects_non_integer_k():
    x = np.zeros((3, 2))
    for k in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="integer"):
            KnnModel(k=k, train_x=x, train_labels=["a", "b", "c"])
    assert KnnModel(k=np.int64(2), train_x=x, train_labels=["a", "b", "c"]).k == 2


def assert_matches_loop(model, Q):
    order, votes = rank_many(model, Q)
    want_order, want_votes = loop_rank_many(model, Q)
    assert order.shape == votes.shape == (len(Q), len(model.classes))
    assert order.tobytes() == want_order.tobytes()
    assert votes.tobytes() == want_votes.tobytes()


def labels_for(rng, n, n_classes):
    return [f"c{int(v):02d}" for v in rng.integers(0, n_classes, size=n)]


RANK_CASES = {  # case: (n, d, queries, classes, k or None for n, integer coordinates)
    "continuous": (60, 7, 200, 6, 5, False),
    "integer_ties": (40, 3, 300, 5, 4, True),
    "k_equals_n": (25, 4, 100, 4, None, True),
    "single_class": (30, 5, 50, 1, 3, False),
    "no_features": (6, 0, 4, 3, 2, False),
    "three_blocks": (50, 10, 600, 8, 4, True),  # 262 queries a block
    "one_query_a_block": (400, 400, 5, 12, 7, False),
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_rank_many_matches_loop(case):
    n, d, queries, n_classes, k, integer = RANK_CASES[case]
    rng = np.random.default_rng(sorted(RANK_CASES).index(case))
    draw = (lambda *shape: rng.integers(0, 3, size=shape).astype(np.float64)) if integer \
        else (lambda *shape: rng.normal(size=shape))
    model = fit_knn(draw(n, d), labels_for(rng, n, n_classes), k=k or n)
    assert_matches_loop(model, draw(queries, d))


@pytest.mark.parametrize("case, blocks", [("three_blocks", 3), ("one_query_a_block", 5)])
def test_rank_many_ranks_a_block_at_a_time(monkeypatch, case, blocks):
    n, d, queries, n_classes, k, _ = RANK_CASES[case]
    rng = np.random.default_rng(0)
    model = fit_knn(rng.normal(size=(n, d)), labels_for(rng, n, n_classes), k=k)
    distances, sizes = knn._distances, []

    def counted(train_x, Q):
        sizes.append(len(Q))
        return distances(train_x, Q)

    monkeypatch.setattr(knn, "_distances", counted)
    rank_many(model, rng.normal(size=(queries, d)))
    assert len(sizes) == blocks and sum(sizes) == queries


def test_rank_many_duplicate_rows():
    rng = np.random.default_rng(5)
    base = rng.integers(0, 3, size=(10, 4)).astype(np.float64)
    x = np.vstack([base, base, base[:5]])
    model = fit_knn(x, labels_for(rng, len(x), 4), k=6)
    assert_matches_loop(model, np.vstack([base, rng.integers(0, 3, size=(40, 4))]))


def test_rank_many_of_no_queries():
    model = fit_knn(np.zeros((3, 2)), ["a", "b", "a"], k=2)
    order, votes = rank_many(model, np.zeros((0, 2)))
    assert order.shape == votes.shape == (0, 2)


def test_rank_many_rejects_bad_queries():
    model = fit_knn(np.array([[0.0, 0.0], [1e200, 0.0]]), ["a", "b"], k=1)
    with pytest.raises(ValueError, match="shape"):
        rank_many(model, np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        rank_many(model, np.zeros((1, 3)))
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [-1e200, 0.0]):  # the last overflows
        with pytest.raises(ValueError, match="finite"):
            rank_many(model, np.array([[0.0, 0.0], bad]))
    nan_row = fit_knn(np.array([[0.0, 0.0], [np.nan, 0.0]]), ["a", "b"], k=1)
    with pytest.raises(ValueError, match="finite"):
        rank_many(nan_row, np.zeros((1, 2)))


def test_rank_many_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def problems(draw):
        n, d = draw(st.integers(1, 30)), draw(st.integers(1, 6))
        levels = draw(st.integers(1, 4))  # few levels: many exact ties
        cell = st.integers(0, levels - 1)
        x = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
        labels = draw(st.lists(st.sampled_from("abcde"), min_size=n, max_size=n))
        q = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=20))
        k = draw(st.integers(1, n))
        return (fit_knn(np.array(x, dtype=np.float64), labels, k=k),
                np.array(q, dtype=np.float64))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(problem=problems())
    def check(problem):
        assert_matches_loop(*problem)

    check()


def test_topk_hits_counts_the_truth_within_each_rank():
    rng = np.random.default_rng(7)
    for q, c in ((1, 1), (5, 3), (40, 9)):
        order = np.array([rng.permutation(c) for _ in range(q)])
        truth = rng.integers(-1, c + 1, size=q)  # -1 and c rank nowhere
        want = [sum(t in row[:g] for row, t in zip(order, truth)) for g in range(1, c + 1)]
        assert knn.topk_hits(order, truth).tolist() == want
