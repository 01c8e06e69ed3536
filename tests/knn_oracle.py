"""Reference KNN rankings for the batched `freqscope.knn.rank_many`.

`oracle_rank` restates the documented ranking rule in plain Python, with
no numpy. `loop_rank` is the per-query ranking that `rank_many` replaced:
one distance row, one `sorted` and two dict passes per query. Both return
`[(label, score), ...]` best first, with score exactly votes / k.
"""

from __future__ import annotations

import math

import numpy as np

from freqscope.knn import KnnModel


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


def _distances(model: KnnModel, x: np.ndarray) -> np.ndarray:
    diff = model.train_x - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def loop_rank(model: KnnModel, x) -> list[tuple[str, float]]:
    """Full label ranking for one query, per the module rule."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.train_x.shape[1],):
        raise ValueError(
            f"query length {x.shape} does not match training length "
            f"({model.train_x.shape[1]},)"
        )
    dist = _distances(model, x)
    order = sorted(range(len(dist)), key=lambda i: (dist[i], i))
    neighbors = order[: model.k]

    votes: dict[str, int] = {}
    dist_sums: dict[str, float] = {}
    for i in neighbors:
        label = model.train_labels[i]
        votes[label] = votes.get(label, 0) + 1
        dist_sums[label] = dist_sums.get(label, 0.0) + float(dist[i])

    voted = sorted(votes, key=lambda lb: (-votes[lb], dist_sums[lb] / votes[lb], lb))

    nearest: dict[str, float] = {}
    for i, label in enumerate(model.train_labels):
        d = float(dist[i])
        if label not in nearest or d < nearest[label]:
            nearest[label] = d
    unvoted = sorted(
        (lb for lb in model.classes if lb not in votes),
        key=lambda lb: (nearest[lb], lb),
    )

    ranking = [(lb, votes[lb] / model.k) for lb in voted]
    ranking.extend((lb, 0.0) for lb in unvoted)
    return ranking


def loop_rank_many(model: KnnModel, Q) -> tuple[np.ndarray, np.ndarray]:
    """`rank_many`'s (order, votes) arrays, built from `loop_rank` rows."""
    index = {label: c for c, label in enumerate(model.classes)}
    rankings = [loop_rank(model, x) for x in np.asarray(Q, dtype=np.float64)]
    order = np.array([[index[lb] for lb, _ in r] for r in rankings], dtype=np.intp)
    votes = np.array([[round(s * model.k) for _, s in r] for r in rankings], dtype=np.int64)
    return order.reshape(len(rankings), len(model.classes)), votes.reshape(order.shape)
