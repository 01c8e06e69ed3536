"""Labeled trace datasets: disk layout, loading, and deterministic splits.

On disk a dataset is `root/<label>/<measurement_id>.ftrace` with labels
percent-encoded in directory names and zero-padded measurement ids. In
memory it is one sample matrix per label, with the device of each row. A
split is a pure function of (split seed, label, the label's trace count, fractions),
so re-splitting with the same seed always reproduces the same partition,
and a loader can read, or a defense sweep job take, one part's traces
without touching the others.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .trace import FrequencyTrace, decode_label, encode_label, load_trace, save_trace

DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)
SPLIT_PARTS = ("train", "val", "test")


class DatasetFormatError(ValueError):
    """Raised for dataset trees without traces, or with a member unlike the
    first or its directory; a malformed trace file raises TraceFormatError."""


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
    """`samples[label]` is an int64 [N, T] matrix, taken without a copy and made
    read-only, and `devices[label][i]` is its row i's device. All labels share T
    and `interval_ms` (None only for a loaded split part that read no trace)."""

    samples: dict[str, np.ndarray]
    devices: dict[str, list[str]]
    interval_ms: int | None

    def __post_init__(self) -> None:
        for label, rows in self.samples.items():
            if rows.dtype != np.int64 or rows.ndim != 2 or len(rows) != len(self.devices[label]):
                raise ValueError(f"{label!r} needs an int64 [N, T] matrix and N devices")
            rows.flags.writeable = False
        widths = sorted({rows.shape[1] for rows in self.samples.values()})
        if len(widths) > 1:
            raise DatasetFormatError(f"traces disagree on sample count: {widths}")

    @property
    def classes(self) -> list[str]:
        return sorted(self.samples)

    def total_measurements(self) -> int:
        return sum(len(rows) for rows in self.samples.values())


def split_indices(seed: int, label: str, n: int, fractions: tuple[float, float, float]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted (train, val, test) index arrays into a label's n traces: one
    permutation drawn from (seed, label), cut by the fractions' counts. A
    negative, infinite or NaN fraction is a ValueError naming its split key,
    as are fractions that do not sum to 1 or that leave a part with a
    non-zero fraction no trace."""
    for name, f in zip(SPLIT_PARTS, fractions):
        if not 0 <= f < np.inf:  # also rejects NaN
            raise ValueError(f"split.{name} must be a finite fraction >= 0, got {f}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    n_val, n_test = int(n * fractions[1]), int(n * fractions[2])
    counts = (n - n_val - n_test, n_val, n_test)  # rounding remainder goes to train
    for name, frac, count in zip(SPLIT_PARTS, fractions, counts):
        if frac > 0 and count < 1:
            raise ValueError(f"class too small: {name} fraction {frac} yields no measurements from {n}")
    order = np.random.default_rng(stable_seed(seed, "split", label)).permutation(n)
    cut1, cut2 = counts[0], counts[0] + counts[1]
    return tuple(np.sort(idx) for idx in (order[:cut1], order[cut1:cut2], order[cut2:]))


def measurement_filename(index: int) -> str:
    return f"{index:04d}.ftrace"


def save_dataset(ds: LabeledDataset, root: str | os.PathLike) -> None:
    """Write the directory layout; label dirs are percent-encoded, and an
    empty label, which would name the root, is a ValueError."""
    if "" in ds.samples:
        raise ValueError("a dataset label must not be empty")
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    for label in ds.classes:
        label_dir = os.path.join(root, encode_label(label))
        os.makedirs(label_dir, exist_ok=True)
        for i, (row, device) in enumerate(zip(ds.samples[label], ds.devices[label])):
            save_trace(FrequencyTrace(row, ds.interval_ms, device, label),
                       os.path.join(label_dir, measurement_filename(i)))


def load_dataset(root: str | os.PathLike, split: tuple | None = None) -> LabeledDataset:
    """Read every `<label>/<id>.ftrace` under root, ids in sorted order, into
    its label's matrix. A split `(seed, fractions, part)`, part one of
    SPLIT_PARTS, reads only the traces at that part's `split_indices`; a label
    keeps its (possibly empty) matrix when the part takes none."""
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root!r} does not exist")
    samples, devices = {}, {}
    first = None  # (path, sample count, interval_ms) of the first member read
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
        devices[label] = []
        for i, path in enumerate(os.path.join(label_dir, f) for f in files):
            trace = load_trace(path)
            if trace.label not in (None, label):
                raise DatasetFormatError(f"{path}: #label= header names {trace.label!r},"
                                         f" not its directory's label {label!r}")
            first = first or (path, len(trace), trace.interval_ms)
            for what, got, want in zip(("sample count", "interval_ms"),
                                       (len(trace), trace.interval_ms), first[1:]):
                if got != want:
                    raise DatasetFormatError(f"{path}: traces disagree on {what}:"
                                             f" {got} here, {want} in {first[0]}")
            if i == 0:
                samples[label] = np.empty((len(files), len(trace)), dtype=np.int64)
            samples[label][i] = trace.samples
            devices[label].append(trace.device)
    if not devices:
        raise DatasetFormatError(f"no traces found under {root!r}")
    _, width, interval_ms = first or (None, 0, None)
    empty = np.empty((0, width), dtype=np.int64)  # a label the split part takes nothing of
    return LabeledDataset({label: samples.get(label, empty) for label in devices}, devices,
                          interval_ms)
