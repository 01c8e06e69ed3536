"""K-nearest-neighbor classifier with fully deterministic tie handling.

The ranking rule is normative so an independent oracle can reproduce it
bit for bit:

  1. euclidean distances from the query to every training point
  2. neighbors = the k smallest by (distance, training index)
  3. labels voted by neighbors rank by (votes desc, mean neighbor distance
     asc, label sort order)
  4. remaining labels follow, ordered by (distance to their nearest training
     point asc, label sort order)
  5. score = votes / k for voted labels, 0.0 otherwise

Step 4 makes the ranking total over all training labels, which top-k
scoring relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KnnModel:
    k: int
    train_x: np.ndarray
    train_labels: list[str]
    metric: str = "euclidean"
    classes: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.train_x = np.asarray(self.train_x, dtype=np.float64)
        if self.train_x.ndim != 2 or len(self.train_x) == 0:
            raise ValueError("training matrix must be non-empty and 2-d")
        if len(self.train_labels) != len(self.train_x):
            raise ValueError("one label per training row required")
        if self.k < 1 or self.k > len(self.train_x):
            raise ValueError(f"k={self.k} outside [1, {len(self.train_x)}]")
        if self.metric != "euclidean":
            raise ValueError(f"unsupported metric {self.metric!r}")
        self.classes = sorted(set(self.train_labels))


def fit_knn(train_x: np.ndarray, train_labels: list[str], k: int = 4) -> KnnModel:
    return KnnModel(k=k, train_x=train_x, train_labels=train_labels)


def _distances(model: KnnModel, x: np.ndarray) -> np.ndarray:
    diff = model.train_x - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def knn_rank(model: KnnModel, x) -> list[tuple[str, float]]:
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
