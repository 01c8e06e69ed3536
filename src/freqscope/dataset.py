"""Labeled trace datasets: disk layout, loading, and deterministic splits.

On disk a dataset is `root/<label>/<measurement_id>.ftrace` with labels
percent-encoded in directory names and zero-padded measurement ids. A root
has one writer at a time (`dataset_lock`), and a save only appends traces
shaped like those already there. In memory it is one sample matrix per
label, with the device of each row. A split is a pure function of (split
seed, label, the label's trace count, fractions), so re-splitting with the
same seed always reproduces the same partition, and a loader can read, or a
defense sweep job take, one part's traces without touching the others.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .trace import FrequencyTrace, decode_label, encode_label, load_trace, save_trace

DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)
SPLIT_PARTS = ("train", "val", "test")
LOCK_NAME = ".freqscope.lock"


class DatasetFormatError(ValueError):
    """Raised for dataset trees without traces, or with a member unlike the
    first or its directory; a malformed trace file raises TraceFormatError."""


class LockError(RuntimeError):
    """Raised when another run holds a dataset root's lock."""


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
    """`samples[label]` is an int64 [N, T] matrix of samples in [0, 2**63),
    taken without a copy and made read-only, and `devices[label][i]` is its row
    i's device. All labels share T and `interval_ms` (None only for a loaded
    split part that read no trace)."""

    samples: dict[str, np.ndarray]
    devices: dict[str, list[str]]
    interval_ms: int | None

    def __post_init__(self) -> None:
        for label, rows in self.samples.items():
            if rows.dtype != np.int64 or rows.ndim != 2 or len(rows) != len(self.devices[label]):
                raise ValueError(f"{label!r} needs an int64 [N, T] matrix and N devices")
            if rows.size and rows.min() < 0:  # an int64 cannot reach 2**63
                raise ValueError(f"samples must be integers in [0, 2**63), got {rows.min()}")
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


def _missing_dirs(root: str) -> tuple[list[str], str]:
    """The directories root lacks, root first, and the nearest path above
    them that exists."""
    missing, head = [], os.path.abspath(root)
    while not os.path.lexists(head):
        missing.append(head)
        head = os.path.dirname(head)
    return missing, head


@contextmanager
def dataset_lock(root: str | os.PathLike):
    """One dataset directory, one writer: an exclusive flock on
    `<root>/.freqscope.lock`, created with root if need be; a held lock is a
    LockError naming root, never a wait. The kernel drops a lock when its
    holder exits, however it exits; a release unlinks the file, then removes
    the directories this lock created, root first, while they are empty."""
    root = os.fspath(root)
    path = os.path.join(root, LOCK_NAME)
    while True:
        made = _missing_dirs(root)[0]
        try:
            os.makedirs(root, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o666)
        except (FileExistsError, FileNotFoundError):
            missing, head = _missing_dirs(root)
            if not missing or not os.path.isdir(head):
                raise  # a file or a dangling link at root or above it
            continue  # a releasing holder removed the root it had created: make it again
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                break
        except BlockingIOError:
            os.close(fd)
            raise LockError(f"{root} is being written by another run (lock {path})") from None
        except FileNotFoundError:
            pass
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)  # a releasing holder unlinked the file locked here: lock the new one
    try:
        yield
    finally:
        with suppress(FileNotFoundError):  # removed by hand meanwhile
            os.unlink(path)  # while still held, so no other run locks a file about to go
        os.close(fd)
        with suppress(OSError):  # one holding what this run wrote, or another's lock, stays
            for directory in made:
                os.rmdir(directory)


def _label_dirs(root: str):
    """(label, directory, sorted `.ftrace` names) of each directory under root
    that holds a trace, in load order."""
    for entry in sorted(os.listdir(root)):
        label_dir = os.path.join(root, entry)
        if os.path.isdir(label_dir):
            files = sorted(f for f in os.listdir(label_dir) if f.endswith(".ftrace"))
            if files:
                yield decode_label(entry), label_dir, files


def check_append(root: str | os.PathLike, samples: int, interval_ms: int) -> None:
    """Refuse rows of `samples` samples at `interval_ms` that the traces
    already under root, judged by the first in load order, disagree with: a
    DatasetFormatError naming root and both shapes."""
    root = os.fspath(root)
    first = next(_label_dirs(root), None) if os.path.isdir(root) else None
    if first:
        trace = load_trace(os.path.join(first[1], first[2][0]))
        if (len(trace), trace.interval_ms) != (samples, interval_ms):
            raise DatasetFormatError(
                f"{root} holds traces of {len(trace)} samples at {trace.interval_ms} ms;"
                f" cannot append traces of {samples} samples at {interval_ms} ms")


def save_dataset(ds: LabeledDataset, root: str | os.PathLike) -> None:
    """Append to the directory layout, never replacing a trace: label dirs are
    percent-encoded, and a label's traces take the ids after the highest
    numeric id in its directory. An empty label, which would name the root,
    is a ValueError, and traces unlike those already under root are refused
    by `check_append`, each before anything is written."""
    if "" in ds.samples:
        raise ValueError("a dataset label must not be empty")
    root = os.fspath(root)
    if ds.total_measurements():
        check_append(root, next(iter(ds.samples.values())).shape[1], ds.interval_ms)
    os.makedirs(root, exist_ok=True)
    for label in ds.classes:
        label_dir = os.path.join(root, encode_label(label))
        os.makedirs(label_dir, exist_ok=True)
        ids = [f[:-len(".ftrace")] for f in os.listdir(label_dir) if f.endswith(".ftrace")]
        first = max((int(t) for t in ids if t.isascii() and t.isdigit()), default=-1) + 1
        for i, (row, device) in enumerate(zip(ds.samples[label], ds.devices[label]), first):
            save_trace(FrequencyTrace(row, ds.interval_ms, device, label),
                       os.path.join(label_dir, measurement_filename(i)), overwrite=False)


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
    for label, label_dir, files in _label_dirs(root):
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
