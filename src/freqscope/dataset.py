"""Labeled trace datasets: disk layout, loading, and deterministic splits.

On disk a dataset is `root/<label>/<measurement_id>.ftrace` with labels
percent-encoded in directory names and zero-padded measurement ids. In
memory it is a map from label to an ordered list of traces. Splits are a
pure function of (split_seed, label, measurement index), so re-splitting
with the same seed always reproduces the same partition.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .trace import (
    FrequencyTrace,
    TraceFormatError,
    decode_label,
    encode_label,
    load_trace,
    save_trace,
)

DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)


class DatasetFormatError(ValueError):
    """Raised for dataset trees without traces, with a malformed trace file,
    or whose traces disagree on sample count or interval."""


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
    classes: list[str]
    measurements: dict[str, list[FrequencyTrace]]
    split_seed: int = 0
    split_fractions: tuple[float, float, float] = DEFAULT_FRACTIONS

    def __post_init__(self) -> None:
        if sorted(self.classes) != sorted(self.measurements):
            raise ValueError("classes and measurement keys disagree")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class labels")
        lengths = {len(t) for traces in self.measurements.values() for t in traces}
        intervals = {t.interval_ms for traces in self.measurements.values() for t in traces}
        if len(lengths) > 1:
            raise DatasetFormatError(f"traces disagree on sample count: {sorted(lengths)}")
        if len(intervals) > 1:
            raise DatasetFormatError(f"traces disagree on interval_ms: {sorted(intervals)}")
        _check_fractions(self.split_fractions)

    def total_measurements(self) -> int:
        return sum(len(v) for v in self.measurements.values())

    def items(self):
        """Yield (label, trace) pairs in deterministic label-sorted order."""
        for label in sorted(self.classes):
            for trace in self.measurements[label]:
                yield label, trace


def _check_fractions(fractions: tuple[float, float, float]) -> None:
    """ValueError naming the split key of a negative, infinite or NaN
    fraction, or for fractions that do not sum to 1."""
    for name, f in zip(("train", "val", "test"), fractions):
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


def split_dataset(ds: LabeledDataset) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Per-class deterministic partition into (train, val, test) views."""
    parts: tuple[dict, dict, dict] = ({}, {}, {})
    for label in ds.classes:
        traces = ds.measurements[label]
        n_train, n_val, n_test = _partition_counts(len(traces), ds.split_fractions)
        rng = np.random.default_rng(stable_seed(ds.split_seed, "split", label))
        order = rng.permutation(len(traces))
        cut1, cut2 = n_train, n_train + n_val
        for part, idx in zip(parts, (order[:cut1], order[cut1:cut2], order[cut2:])):
            part[label] = [traces[i] for i in sorted(idx)]
    return tuple(
        LabeledDataset(
            classes=list(ds.classes),
            measurements=part,
            split_seed=ds.split_seed,
            split_fractions=ds.split_fractions,
        )
        for part in parts
    )


def measurement_filename(index: int, width: int = 4) -> str:
    return f"{index:0{width}d}.ftrace"


def save_dataset(ds: LabeledDataset, root: str | os.PathLike) -> None:
    """Write the directory layout; label dirs are percent-encoded."""
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    for label in ds.classes:
        label_dir = os.path.join(root, encode_label(label))
        os.makedirs(label_dir, exist_ok=True)
        for i, trace in enumerate(ds.measurements[label]):
            save_trace(trace, os.path.join(label_dir, measurement_filename(i)))


def load_dataset(
    root: str | os.PathLike,
    split_seed: int = 0,
    split_fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
) -> LabeledDataset:
    """Read every `<label>/<id>.ftrace` under root, ids in sorted order."""
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
        measurements[label] = [_load_member(os.path.join(label_dir, f)) for f in files]
    if not measurements:
        raise DatasetFormatError(f"no traces found under {root!r}")
    return LabeledDataset(
        classes=sorted(measurements),
        measurements=measurements,
        split_seed=split_seed,
        split_fractions=split_fractions,
    )


def _load_member(path: str) -> FrequencyTrace:
    try:
        return load_trace(path)
    except TraceFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc
