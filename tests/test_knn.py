"""KNN ranking verified against an independent brute-force implementation."""

import math

import numpy as np
import pytest

from freqscope.knn import KnnModel, fit_knn, knn_rank


def oracle_rank(train_x, train_labels, k, query):
    """Straight-line reimplementation of the documented ranking rule."""
    dists = [
        (math.sqrt(sum((a - b) ** 2 for a, b in zip(row, query))), i)
        for i, row in enumerate(train_x)
    ]
    neighbors = sorted(dists)[:k]

    votes, sums = {}, {}
    for d, i in neighbors:
        lb = train_labels[i]
        votes[lb] = votes.get(lb, 0) + 1
        sums[lb] = sums.get(lb, 0.0) + d
    voted = sorted(votes, key=lambda lb: (-votes[lb], sums[lb] / votes[lb], lb))

    nearest = {}
    for d, i in dists:
        lb = train_labels[i]
        if lb not in nearest or d < nearest[lb]:
            nearest[lb] = d
    unvoted = sorted(
        (lb for lb in set(train_labels) if lb not in votes),
        key=lambda lb: (nearest[lb], lb),
    )
    return [(lb, votes[lb] / k) for lb in voted] + [(lb, 0.0) for lb in unvoted]


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
            assert [lb for lb, _ in got] == [lb for lb, _ in want], f"trial {trial}"
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws)


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
    with pytest.raises(ValueError):
        KnnModel(k=1, train_x=np.zeros((2, 2)), train_labels=["a", "b"], metric="cosine")


def test_query_length_checked():
    model = fit_knn(np.zeros((2, 3)), ["a", "b"], k=1)
    with pytest.raises(ValueError, match="length"):
        knn_rank(model, [0.0, 0.0])
