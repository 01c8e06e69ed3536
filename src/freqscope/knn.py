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
scoring relies on. `rank_many` ranks a whole query matrix; one query is a
one-row matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass
class KnnModel:
    k: int
    train_x: np.ndarray
    train_labels: list[str]
    classes: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.train_x = np.asarray(self.train_x, dtype=np.float64)
        if self.train_x.ndim != 2 or len(self.train_x) == 0:
            raise ValueError("training matrix must be non-empty and 2-d")
        if len(self.train_labels) != len(self.train_x):
            raise ValueError("one label per training row required")
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1 or self.k > len(self.train_x):
            raise ValueError(f"k={self.k} outside [1, {len(self.train_x)}]")
        self.classes = sorted(set(self.train_labels))


def fit_knn(train_x: np.ndarray, train_labels: list[str], k: int = 4) -> KnnModel:
    return KnnModel(k=k, train_x=train_x, train_labels=train_labels)


# float64 bytes of one block's [b, n, d] query-minus-training differences
BLOCK_BYTES = 1 << 20


def _distances(train_x: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """[b, n] distances from each query row to each training row, by the
    one-query kernel row for row, so they are bit-identical to it."""
    (b, d), n = Q.shape, len(train_x)
    diff = (train_x[None] - Q[:, None]).reshape(b * n, d)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(b, n)


def rank_many(model: KnnModel, Q) -> tuple[np.ndarray, np.ndarray]:
    """Full label rankings for every row of the [Q, d] query matrix, per the
    module rule, ranked a block of queries at a time.

    Returns (order, votes), both [Q, C]: order[q] holds indices into
    model.classes best first, and votes[q, j] the votes of class
    order[q, j] (its score is votes / k). A non-finite distance has no
    rank under the rule and raises ValueError.
    """
    Q = np.asarray(Q, dtype=np.float64)
    n, d = model.train_x.shape
    if Q.ndim != 2 or Q.shape[1] != d:
        raise ValueError(f"query matrix shape {Q.shape} does not match training length ({d},)")
    index = {label: c for c, label in enumerate(model.classes)}
    codes = np.array([index[label] for label in model.train_labels])
    by_class = np.argsort(codes, kind="stable")
    first_rows = np.searchsorted(codes[by_class], np.arange(len(model.classes)))
    block = max(1, BLOCK_BYTES // (8 * n * max(d, 1)))
    order = np.empty((len(Q), len(model.classes)), dtype=np.intp)
    votes = np.empty((len(Q), len(model.classes)), dtype=np.int64)
    for lo in range(0, len(Q), block):
        dist = _distances(model.train_x, Q[lo:lo + block])
        b = len(dist)
        if not np.isfinite(dist).all():
            raise ValueError("query distances must be finite")
        neighbors = np.argsort(dist, axis=1, kind="stable")[:, :model.k]
        rows = np.arange(b)
        count = np.zeros((b, len(model.classes)), dtype=np.int64)
        sums = np.zeros((b, len(model.classes)))
        for j in range(model.k):  # neighbour order, as the rule adds them
            c = codes[neighbors[:, j]]
            count[rows, c] += 1
            sums[rows, c] += dist[rows, neighbors[:, j]]
        nearest = np.minimum.reduceat(dist[:, by_class], first_rows, axis=1)
        unvoted = count == 0
        with np.errstate(invalid="ignore"):
            secondary = np.where(unvoted, nearest, sums / count)
        # lexsort is stable, so full ties fall to class (label sort) order
        order[lo:lo + b] = np.lexsort((secondary, -count, unvoted), axis=1)
        votes[lo:lo + b] = np.take_along_axis(count, order[lo:lo + b], axis=1)
    return order, votes

