"""Reference forest split search and ranking: one candidate feature, and
one query, at a time.

These are the loops the batched code in `freqscope.forest` replaced, kept
as the oracles the new code is compared against byte for byte.
`best_split` argsorts, one-hot encodes, cumsums and scores every candidate
feature on its own, in ascending feature order, and keeps a split only on
strict improvement. `forest_rank` walks every tree from the root for one
query and sorts the labels by vote share.
"""

from __future__ import annotations

import numpy as np

from freqscope.forest import ForestModel, ForestParams


def _gini_pair(cum: np.ndarray, total: np.ndarray, n_left: np.ndarray, n: int):
    """Weighted Gini impurity for every candidate boundary at once.

    cum[i] holds class counts of the first i+1 sorted samples; boundary i
    splits into left size i+1 and right size n-i-1.
    """
    n_right = n - n_left
    left_sq = np.sum(cum * cum, axis=1)
    right = total - cum
    right_sq = np.sum(right * right, axis=1)
    gini_left = 1.0 - left_sq / (n_left * n_left)
    gini_right = 1.0 - right_sq / (n_right * n_right)
    return (n_left * gini_left + n_right * gini_right) / n


def _leaf(y: np.ndarray, n_classes: int) -> dict:
    counts = np.bincount(y, minlength=n_classes)
    # argmax returns the first maximum: smallest class code wins ties
    return {"label": int(np.argmax(counts))}


def best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray, features: np.ndarray,
               min_leaf: int, n_classes: int):
    """(feature, boundary, threshold, node order) of the lowest-impurity
    split, feature by feature, or None: the contract of
    `freqscope.forest._best_split`."""
    n = len(idx)
    total = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
    best = None  # (impurity, feature, threshold, sorted order, boundary)
    for f in features:
        order = idx[np.argsort(X[idx, f], kind="stable")]
        xs = X[order, f]
        if xs[0] == xs[-1]:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)

        boundaries = np.nonzero(xs[:-1] != xs[1:])[0]
        boundaries = boundaries[
            (boundaries + 1 >= min_leaf) & (n - boundaries - 1 >= min_leaf)
        ]
        if len(boundaries) == 0:
            continue
        n_left = (boundaries + 1).astype(np.float64)
        impurity = _gini_pair(cum[boundaries], total, n_left, n)
        i = int(np.argmin(impurity))
        if best is None or impurity[i] < best[0]:
            b = int(boundaries[i])
            best = (float(impurity[i]), int(f), (float(xs[b]) + float(xs[b + 1])) / 2.0, order, b)

    if best is None:
        return None
    _, feature, threshold, order, b = best
    return feature, b, threshold, order


def plain(split):
    """A split tuple with its order as a list, so splits compare with ==."""
    if split is None:
        return None
    feature, b, threshold, order = split
    return feature, b, threshold, order.tolist()


def _build_tree(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int,
                params: ForestParams, n_classes: int, rng: np.random.Generator) -> dict:
    y_node = y[idx]
    if depth >= params.max_depth or len(idx) < 2 * params.min_leaf:
        return _leaf(y_node, n_classes)
    first = y_node[0]
    if np.all(y_node == first):
        return {"label": int(first)}

    m = params.features_per_split(X.shape[1])
    features = np.sort(rng.choice(X.shape[1], size=m, replace=False))
    split = best_split(X, y, idx, features, params.min_leaf, n_classes)
    if split is None:
        return _leaf(y_node, n_classes)

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


def _tree_predict(tree: dict, x: np.ndarray) -> int:
    node = tree
    while "label" not in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return node["label"]


def forest_rank(model: ForestModel, x) -> list[tuple[str, float]]:
    """Labels ranked by vote share; ties and zero-vote labels fall back to
    label sort order."""
    x = np.asarray(x, dtype=np.float64)
    votes = np.zeros(len(model.classes))
    for tree in model.trees:
        votes[_tree_predict(tree, x)] += 1
    order = sorted(range(len(model.classes)), key=lambda c: (-votes[c], c))
    n = len(model.trees)
    return [(model.classes[c], votes[c] / n) for c in order]
