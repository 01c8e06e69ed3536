"""Random forest built from scratch: Gini impurity, axis-aligned threshold
splits, seeded bootstrap per tree, per-node feature subsampling.

Everything is deterministic under the seed: bootstraps, feature subsets,
split selection (lowest weighted Gini, from exact int64 sums of squared class
counts; ties go to the lowest feature index, then the lowest boundary), and
ranking (by votes, ties to the smallest label in sort order). Trees
serialize to plain dicts so models round-trip through the JSON container.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 20
    min_leaf: int = 1
    feature_subsample: float | str = "sqrt"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("forest params must be positive")
        if isinstance(self.feature_subsample, str):
            if self.feature_subsample != "sqrt":
                raise ValueError("feature_subsample must be a fraction or 'sqrt'")
        elif not 0.0 < self.feature_subsample <= 1.0:
            raise ValueError("feature_subsample fraction must lie in (0, 1]")

    def features_per_split(self, n_features: int) -> int:
        if self.feature_subsample == "sqrt":
            m = int(round(math.sqrt(n_features)))
        else:
            m = int(round(n_features * self.feature_subsample))
        return min(n_features, max(1, m))


@dataclass
class ForestModel:
    params: ForestParams
    classes: list[str]
    trees: list[dict] = field(default_factory=list)


def _square_sums(ys: np.ndarray, total: np.ndarray):
    """sum_c count_c**2 left and right of every boundary of every column of
    the sorted class codes `ys`, without a class axis (CART's incremental
    update): a sample joining a class that holds k on the left adds 2k+1."""
    by_class = np.argsort(ys, axis=0, kind="stable")
    # k[i, j]: samples of ys[i, j]'s class above row i in column j
    rank = np.arange(len(ys)) - np.repeat(np.cumsum(total) - total, total)
    k = np.empty(ys.shape, dtype=np.int64)
    k[by_class, np.arange(ys.shape[1])] = rank[:, None]
    left_sq = np.cumsum(2 * k + 1, axis=0)[:-1]
    right_sq = total @ total - 2 * np.cumsum(total[ys], axis=0)[:-1] + left_sq
    return left_sq, right_sq


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray, features: np.ndarray,
                min_leaf: int, n_classes: int):
    """Lowest-impurity split of node `idx` over the ascending `features`, as
    (feature, boundary, threshold, node order sorted by that feature), or
    None when no boundary separates two values and respects min_leaf.
    Equal impurities go to the lowest feature, then the lowest boundary: the
    flat argmin over the feature-major [m, n-1] array.

    Scoring sorts unstably: a boundary between two distinct values has the
    same samples on each side whatever the order of ties, and boundaries
    between equal values are masked. Only the winning column is sorted
    stably, for the node order the children inherit."""
    n = len(idx)
    y_node = y[idx]
    cols = X[idx[:, None], features]  # [n, m]
    order = cols.argsort(axis=0)
    xs = cols[order, np.arange(len(features))]
    total = np.bincount(y_node, minlength=n_classes)
    # the narrowest code dtype lets the stable argsort of the labels radix sort
    ys = y_node.astype(np.min_scalar_type(n_classes - 1))[order]
    left_sq, right_sq = _square_sums(ys, total)
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    impurity = (n_left * (1.0 - left_sq / (n_left * n_left))  # weighted Gini, [n-1, m]
                + n_right * (1.0 - right_sq / (n_right * n_right))) / n
    # a boundary must fall between two distinct values and leave min_leaf a side
    impurity[xs[:-1] == xs[1:]] = np.inf
    impurity[: min_leaf - 1] = np.inf
    impurity[n - min_leaf :] = np.inf
    flat = impurity.T
    j, b = divmod(int(np.argmin(flat)), n - 1)
    if flat[j, b] == np.inf:
        return None
    threshold = (float(xs[b, j]) + float(xs[b + 1, j])) / 2.0
    return int(features[j]), b, threshold, idx[np.argsort(cols[:, j], kind="stable")]


def _build_tree(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int,
                params: ForestParams, n_classes: int, rng: np.random.Generator) -> dict:
    counts = np.bincount(y[idx])
    split = None
    can_split = depth < params.max_depth and len(idx) >= 2 * params.min_leaf
    if can_split and counts.max() < len(idx):  # pure nodes stay leaves
        m = params.features_per_split(X.shape[1])
        features = np.sort(rng.choice(X.shape[1], size=m, replace=False))
        split = _best_split(X, y, idx, features, params.min_leaf, n_classes)
    if split is None:
        # argmax returns the first maximum: smallest class code wins ties
        return {"label": int(np.argmax(counts))}

    feature, b, threshold, order = split
    left = _build_tree(X, y, order[: b + 1], depth + 1, params, n_classes, rng)
    right = _build_tree(X, y, order[b + 1 :], depth + 1, params, n_classes, rng)
    return {"f": feature, "t": threshold, "l": left, "r": right}


def forest_train(X: np.ndarray, labels: list[str], params: ForestParams) -> ForestModel:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training matrix must be non-empty and 2-d")
    if len(labels) != len(X):
        raise ValueError("one label per training row required")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("need at least 2 classes to train a forest")
    code = {label: i for i, label in enumerate(classes)}
    y = np.array([code[label] for label in labels], dtype=np.intp)

    rng = np.random.default_rng(params.seed)
    trees = []
    for _ in range(params.n_trees):
        bootstrap = rng.integers(0, len(X), size=len(X))
        trees.append(_build_tree(X, y, bootstrap, 0, params, len(classes), rng))
    return ForestModel(params=params, classes=classes, trees=trees)


def rank_many(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Full label rankings for every row of the [Q, d] query matrix.

    Returns (order, votes), both [Q, C]: order[q] holds indices into
    model.classes best first (most votes; ties and zero-vote classes in
    label order), and votes[q, j] the votes of class order[q, j] (its score
    is votes / len(model.trees)). Each row walks each tree in Python: with
    far more nodes than queries, numpy passes node by node cost more.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"query matrix must be 2-d, got shape {X.shape}")
    votes = np.zeros((len(X), len(model.classes)), dtype=np.int64)
    for q, x in enumerate(X):
        for node in model.trees:
            while "label" not in node:
                node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
            votes[q, node["label"]] += 1
    order = np.argsort(-votes, axis=1, kind="stable")
    return order, np.take_along_axis(votes, order, axis=1)
