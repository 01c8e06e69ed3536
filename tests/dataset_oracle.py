"""Reference for `freqscope.dataset` and `defend.defended_rows`: the
list-based dataset they replaced, which held each label's measurements as a
list of `FrequencyTrace`s and checked their lengths and intervals after
loading them all. Resolution and mask transform trace by trace, as they did;
noise goes through `defend._defended_samples` on the stacked traces of one
label, since `tests/test_defend.py` pins that law to its per-sample loop."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from freqscope.dataset import SPLIT_PARTS, DatasetFormatError, split_indices, stable_seed
from freqscope.defend import KIND_MASK, KIND_RESOLUTION, Defense, _defended_samples
from freqscope.profiles import builtin_profiles
from freqscope.trace import FrequencyTrace, decode_label, load_trace


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


def split_dataset(ds, seed: int, fractions: tuple[float, float, float]) -> tuple:
    """Per-class deterministic partition into (train, val, test) views, of a
    list-based dataset or of a `freqscope.dataset.LabeledDataset` (a label's
    rows at each part's indices, each label gathered on its own)."""
    parts: tuple[dict, dict, dict] = ({}, {}, {})
    if isinstance(ds, LabeledDataset):
        for label in ds.classes:
            traces = ds.measurements[label]
            for part, idx in zip(parts, split_indices(seed, label, len(traces), fractions)):
                part[label] = [traces[i] for i in idx]
        return tuple(LabeledDataset(part) for part in parts)
    for label, rows in ds.samples.items():
        for part, idx in zip(parts, split_indices(seed, label, len(rows), fractions)):
            part[label] = rows[idx], [ds.devices[label][i] for i in idx]
    return tuple(type(ds)({label: rows for label, (rows, _) in part.items()},
                          {label: devices for label, (_, devices) in part.items()},
                          ds.interval_ms) for part in parts)


def load_dataset(root: str | os.PathLike, split: tuple | None = None) -> LabeledDataset:
    """Read every `<label>/<id>.ftrace` under root, ids in sorted order. A
    split `(seed, fractions, part)`, part one of SPLIT_PARTS, reads only the
    traces that `split_dataset` puts in that part; a label keeps its
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


def _defended_rows(d: Defense, traces: list[FrequencyTrace], salts: list[int]):
    n = len(traces[0].samples)
    if d.kind == KIND_RESOLUTION:
        keep = (np.arange(n) // d.factor) * d.factor
        return [t.samples[keep] for t in traces]
    if d.kind == KIND_MASK:
        for t in traces:
            profile = builtin_profiles().get(t.device)
            if profile is not None and d.mask_freq_khz not in profile.pstates:
                raise ValueError(f"mask frequency {d.mask_freq_khz} is not a pstate of {t.device}")
        return [np.full(n, d.mask_freq_khz)] * len(traces)
    return _defended_samples(d, np.array([t.samples for t in traces]),
                             [t.device for t in traces], traces[0].interval_ms, salts)


def defended_dataset(d: Defense, ds: LabeledDataset) -> LabeledDataset:
    """Apply a defense to every measurement, one label at a time; per-trace
    salts keep noise patterns independent across traces while staying
    reproducible."""
    measurements = {}
    for label in ds.classes:
        traces = ds.measurements[label]
        salts = [stable_seed("trace-salt", label, i) for i in range(len(traces))]
        rows = _defended_rows(d, traces, salts) if traces else []
        measurements[label] = [replace(t, samples=row) for t, row in zip(traces, rows)]
    return LabeledDataset(measurements)
