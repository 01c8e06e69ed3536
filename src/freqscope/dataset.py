"""Labeled trace datasets: disk layout, loading, and deterministic splits.

On disk a dataset is `root/<label>/<measurement_id>.ftrace` with labels
percent-encoded in directory names and zero-padded measurement ids. In
memory it is a map from label to an ordered list of traces. A split is a
pure function of (split seed, label, the label's trace count, fractions),
so re-splitting with the same seed always reproduces the same partition,
and a loader can read one part's traces without opening the others.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .trace import (
    FrequencyTrace,
    decode_label,
    encode_label,
    load_trace,
    save_trace,
)

DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)
SPLIT_PARTS = ("train", "val", "test")


class DatasetFormatError(ValueError):
    """Raised for dataset trees without traces, or whose traces disagree on
    sample count or interval; a malformed trace file raises TraceFormatError."""


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from heterogeneous parts, hash-seed proof.

    Parts are tagged with their type so e.g. the label "12" and the
    measurement index 12 never land on the same stream.
    """
    text = "\x1f".join(f"{type(p).__name__}:{p}" for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class LabeledDataset:
    measurements: dict[str, list[FrequencyTrace]]

    def __post_init__(self) -> None:
        lengths = {len(t) for traces in self.measurements.values() for t in traces}
        intervals = {t.interval_ms for traces in self.measurements.values() for t in traces}
        if len(lengths) > 1:
            raise DatasetFormatError(f"traces disagree on sample count: {sorted(lengths)}")
        if len(intervals) > 1:
            raise DatasetFormatError(f"traces disagree on interval_ms: {sorted(intervals)}")

    @property
    def classes(self) -> list[str]:
        return sorted(self.measurements)

    def total_measurements(self) -> int:
        return sum(len(v) for v in self.measurements.values())

    def items(self):
        """Yield (label, trace) pairs in deterministic label-sorted order."""
        for label in self.classes:
            for trace in self.measurements[label]:
                yield label, trace


def _check_fractions(fractions: tuple[float, float, float]) -> None:
    """ValueError naming the split key of a negative, infinite or NaN
    fraction, or for fractions that do not sum to 1."""
    for name, f in zip(SPLIT_PARTS, fractions):
        if not 0 <= f < np.inf:  # also rejects NaN
            raise ValueError(f"split.{name} must be a finite fraction >= 0, got {f}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")


def _partition_counts(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    _check_fractions(fractions)
    train_f, val_f, test_f = fractions
    n_val = int(n * val_f)
    n_test = int(n * test_f)
    n_train = n - n_val - n_test  # rounding remainder goes to train
    for frac, count, name in ((train_f, n_train, "train"), (val_f, n_val, "val"), (test_f, n_test, "test")):
        if frac > 0 and count < 1:
            raise ValueError(f"class too small: {name} fraction {frac} yields no measurements from {n}")
    return n_train, n_val, n_test


def split_indices(seed: int, label: str, n: int, fractions: tuple[float, float, float]
                  ) -> tuple[list[int], list[int], list[int]]:
    """Sorted (train, val, test) indices into a label's n traces: one
    permutation drawn from (seed, label), cut by the fractions' counts."""
    n_train, n_val, _ = _partition_counts(n, fractions)
    order = np.random.default_rng(stable_seed(seed, "split", label)).permutation(n)
    cut1, cut2 = n_train, n_train + n_val
    return tuple(sorted(idx.tolist()) for idx in (order[:cut1], order[cut1:cut2], order[cut2:]))


def split_dataset(ds: LabeledDataset, seed: int, fractions: tuple[float, float, float]
                  ) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Per-class deterministic partition into (train, val, test) views."""
    parts: tuple[dict, dict, dict] = ({}, {}, {})
    for label in ds.classes:
        traces = ds.measurements[label]
        for part, idx in zip(parts, split_indices(seed, label, len(traces), fractions)):
            part[label] = [traces[i] for i in idx]
    return tuple(LabeledDataset(part) for part in parts)


def measurement_filename(index: int) -> str:
    return f"{index:04d}.ftrace"


def save_dataset(ds: LabeledDataset, root: str | os.PathLike) -> None:
    """Write the directory layout; label dirs are percent-encoded."""
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    for label in ds.classes:
        label_dir = os.path.join(root, encode_label(label))
        os.makedirs(label_dir, exist_ok=True)
        for i, trace in enumerate(ds.measurements[label]):
            save_trace(trace, os.path.join(label_dir, measurement_filename(i)))


def load_dataset(root: str | os.PathLike, split: tuple | None = None) -> LabeledDataset:
    """Read every `<label>/<id>.ftrace` under root, ids in sorted order. A
    split `(seed, fractions, part)`, part one of SPLIT_PARTS, reads only the
    traces that `split_dataset` would put in that part; a label keeps its
    (possibly empty) list even when the part takes none of its traces."""
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root!r} does not exist")
    measurements: dict[str, list[FrequencyTrace]] = {}
    for entry in sorted(os.listdir(root)):
        label_dir = os.path.join(root, entry)
        if not os.path.isdir(label_dir):
            continue
        label = decode_label(entry)
        files = sorted(f for f in os.listdir(label_dir) if f.endswith(".ftrace"))
        if not files:
            continue
        if split is not None:
            seed, fractions, part = split
            chosen = split_indices(seed, label, len(files), fractions)[SPLIT_PARTS.index(part)]
            files = [files[i] for i in chosen]
        measurements[label] = [load_trace(os.path.join(label_dir, f)) for f in files]
    if not measurements:
        raise DatasetFormatError(f"no traces found under {root!r}")
    return LabeledDataset(measurements)

