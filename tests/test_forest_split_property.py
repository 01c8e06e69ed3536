"""The batched split search picks the same split as the per-feature
reference loop for arbitrary small nodes."""

import numpy as np
import pytest

import forest_oracle as oracle
from freqscope.forest import _best_split

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def nodes(draw):
    n_rows = draw(st.integers(2, 25))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 12))
    levels = draw(st.integers(1, 4))  # 1: every column constant
    values = st.integers(0, levels - 1)
    X = np.array(draw(st.lists(st.lists(values, min_size=n_features, max_size=n_features),
                               min_size=n_rows, max_size=n_rows)), dtype=np.float64)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n_rows, max_size=n_rows)), dtype=np.intp)
    idx = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=30)),
                   dtype=np.intp)
    features = np.array(sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1))),
                        dtype=np.intp)
    min_leaf = draw(st.integers(1, 4))
    return X, y, idx, features, n_classes, min_leaf


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(node=nodes())
def test_best_split_matches_reference_loop(node):
    X, y, idx, features, n_classes, min_leaf = node
    want = oracle.best_split(X, y, idx, features, min_leaf, n_classes)
    got = _best_split(X, y, idx, features, min_leaf, n_classes)
    assert oracle.plain(got) == oracle.plain(want)
