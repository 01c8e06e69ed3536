"""Property test for split loading: `load_dataset(root, split=(seed,
fractions, part))` reads exactly the traces, in the same order, that
`split_dataset` puts in that part of the whole dataset, or fails with the
same error."""

import tempfile

import pytest

from freqscope.dataset import (
    SPLIT_PARTS,
    LabeledDataset,
    load_dataset,
    save_dataset,
    split_dataset,
)
from freqscope.trace import FrequencyTrace

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def outcome(fn):
    """A dataset as (label, trace fields) pairs, or the ValueError it raised."""
    try:
        ds = fn()
    except ValueError as exc:
        return type(exc), str(exc)
    return ds.classes, [(label, t.samples.tolist(), t.interval_ms, t.device, t.label)
                        for label, t in ds.items()]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32),
    weights=st.tuples(*[st.integers(0, 6)] * 3).filter(any),
    counts=st.lists(st.integers(1, 14), min_size=1, max_size=4),
)
def test_split_load_reads_what_split_dataset_selects(seed, weights, counts):
    fractions = tuple(w / sum(weights) for w in weights)
    labels = [f"p{i}" for i in range(len(counts))]
    ds = LabeledDataset(classes=labels, measurements={
        label: [FrequencyTrace(samples=[1000 * c + m, m, 7], interval_ms=10, label=label)
                for m in range(n)]
        for c, (label, n) in enumerate(zip(labels, counts))
    })
    with tempfile.TemporaryDirectory() as root:
        save_dataset(ds, root)
        for i, part in enumerate(SPLIT_PARTS):
            want = outcome(lambda: split_dataset(load_dataset(root), seed, fractions)[i])
            assert outcome(lambda: load_dataset(root, split=(seed, fractions, part))) == want
