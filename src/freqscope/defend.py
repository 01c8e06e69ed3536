"""Countermeasures against frequency-trace fingerprinting, and the harness
that measures how much accuracy each one costs the attacker.

Transforms operate on recorded traces: sample-and-hold resolution
reduction (length-preserving, so classifier dimensions are unchanged),
seeded plateau-shaped noise bursts (a governor reacting to injected
workloads produces plateaus, not white noise), and constant masking.
Access restriction is not a trace transform: it is the source policy that
refuses reads (`sources.POLICY_MASKED`).

The evaluation harness trains the attacker on defended data too: a real
attacker profiles the system as deployed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classify import TrainedModel, evaluate
from .dataset import LabeledDataset, split_indices, stable_seed
from .profiles import builtin_profiles

KIND_RESOLUTION = "resolution_reduce"
KIND_NOISE = "noise_inject"
KIND_MASK = "constant_mask"

DEFENSE_KINDS = (KIND_RESOLUTION, KIND_NOISE, KIND_MASK)

NOISE_WIDTHS = (3, 8)  # plateau width range in samples, inclusive


@dataclass(frozen=True)
class Defense:
    kind: str
    factor: int = 1
    burst_rate_hz: float = 0.0
    burst_height: float = 0.5
    mask_freq_khz: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}")
        if self.kind == KIND_RESOLUTION:
            if not isinstance(self.factor, int) or self.factor < 1:
                raise ValueError("resolution factor must be an integer >= 1")
        elif self.kind == KIND_NOISE:
            if not 0 <= self.burst_rate_hz < np.inf:  # also rejects NaN
                raise ValueError("burst_rate_hz must be finite and >= 0")
            if not 0.0 <= self.burst_height <= 1.0:
                raise ValueError("burst_height must be a fraction of range in [0, 1]")
        elif self.kind == KIND_MASK:
            if not self.mask_freq_khz or self.mask_freq_khz <= 0:
                raise ValueError("constant_mask needs a positive mask_freq_khz")

    def param_label(self) -> str:
        if self.kind == KIND_RESOLUTION:
            return str(self.factor)
        if self.kind == KIND_NOISE:
            return f"{self.burst_rate_hz:g}x{self.burst_height:g}"
        return str(self.mask_freq_khz)


def resolution_reduce(factor: int) -> Defense:
    return Defense(kind=KIND_RESOLUTION, factor=factor)


def noise_inject(burst_rate_hz: float, burst_height: float = 0.5, seed: int = 0) -> Defense:
    return Defense(kind=KIND_NOISE, burst_rate_hz=burst_rate_hz,
                   burst_height=burst_height, seed=seed)


def constant_mask(freq_khz: int) -> Defense:
    return Defense(kind=KIND_MASK, mask_freq_khz=freq_khz)


def _number(cast: type, text: str, spec: str):
    try:
        return cast(text)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ValueError(f"defend.defenses: {text!r} in defense spec {spec!r} is not {what}")


def parse_defense(spec: str) -> list[Defense]:
    """`resolution:F1,F2,...` (one defense per factor),
    `noise:RATE[:HEIGHT[:SEED]]` or `mask:FREQ`."""
    kind, _, rest = spec.partition(":")
    if kind == "resolution":
        if not rest:
            raise ValueError("resolution defense needs factors, e.g. resolution:1,2,5")
        return [resolution_reduce(_number(int, f, spec)) for f in rest.split(",")]
    if kind == "noise":
        if not rest:
            raise ValueError("noise defense needs a rate, e.g. noise:20 or noise:20:0.8")
        fields = rest.split(":")
        if len(fields) > 3:
            raise ValueError(f"noise defense is noise:RATE[:HEIGHT[:SEED]], got {spec!r}")
        # HEIGHT and SEED left out keep noise_inject's defaults
        return [noise_inject(*(_number(f, o, spec) for f, o in zip((float, float, int), fields)))]
    if kind == "mask":
        if not rest:
            raise ValueError("mask defense needs a frequency, e.g. mask:2200000")
        return [constant_mask(_number(int, rest, spec))]
    if kind == "restrict":
        raise ValueError(
            "access_restrict is a source policy, not a trace transform;"
            " demonstrate it with: freqscope collect --policy masked"
        )
    raise ValueError(f"unknown defense spec {spec!r} (resolution: | noise: | mask:)")


def _freq_range(device: str, samples: np.ndarray) -> tuple[int, int]:
    """A known device's profile range, else the trace's own observed range."""
    profile = builtin_profiles().get(device)
    if profile is None:
        return int(samples.min()), int(samples.max())
    return profile.min_freq_khz, profile.boost_cap_khz


def _defended_samples(d: Defense, samples: np.ndarray, devices: list[str], interval_ms: int,
                      salts: list[int]) -> np.ndarray:
    """The defended [traces, samples] matrix of one label's samples: row i
    is of devices[i], sampled each interval_ms, and salted by salts[i]."""
    n = samples.shape[1]
    if d.kind == KIND_RESOLUTION:
        return samples[:, (np.arange(n) // d.factor) * d.factor]
    if d.kind == KIND_MASK:
        for device in dict.fromkeys(devices):
            profile = builtin_profiles().get(device)
            if profile is not None and d.mask_freq_khz not in profile.pstates:
                raise ValueError(f"mask frequency {d.mask_freq_khz} is not a pstate of {device}")
        return np.broadcast_to(np.int64(d.mask_freq_khz), samples.shape)  # one value, no copies
    n_bursts = _burst_count(d, n, interval_ms)
    if n_bursts == 0 or not len(samples):
        return samples
    samples = samples.copy()
    lo, hi = np.array([_freq_range(*dev_row) for dev_row in zip(devices, samples)],
                      dtype=np.int64).T
    # each trace draws positions, widths and scales, in turn, from its own stream
    rngs = [np.random.default_rng(stable_seed(d.seed, "noise-inject", salt)) for salt in salts]
    positions = np.array([rng.integers(0, n, n_bursts) for rng in rngs])  # [T, bursts]
    low, high = NOISE_WIDTHS
    widths = np.array([rng.integers(low, high + 1, n_bursts) for rng in rngs])
    scales = np.array([rng.uniform(0.5, 1.0, n_bursts) for rng in rngs])
    deltas = np.round(d.burst_height * scales * (hi - lo)[:, None]).astype(np.int64)
    # per sample, its first burst (n_bursts if none) and its deltas' sum, an offset at a time
    wide = int(deltas.max()) * n_bursts >= 2**63  # a sample's deltas could sum past int64
    first = np.full(samples.shape, n_bursts, dtype=np.min_scalar_type(n_bursts))
    total = np.zeros(samples.shape, dtype=object if wide else np.int64)
    bursts = np.broadcast_to(np.arange(n_bursts, dtype=first.dtype), positions.shape)
    starts = positions + n * np.arange(len(samples))[:, None]  # flat indices into samples
    for offset in range(high):
        on = (offset < widths) & (positions + offset < n)
        at = starts[on] + offset
        np.minimum.at(first.reshape(-1), at, bursts[on])
        np.add.at(total.reshape(-1), at, deltas[on])
    # Bursts compound one after another, each clamped to [lo, hi]. Every
    # delta is >= 0, so only a sample's first burst can meet the lower clamp,
    # and the upper one acts once on the sum: the sample becomes
    # min(max(x + first, lo) + rest, hi), arranged so that no step leaves int64.
    for out, burst, add, delta, bottom, top in zip(samples, first, total, deltas, lo, hi):
        cell = np.flatnonzero(burst < n_bursts)
        x, head = out[cell], delta[burst[cell]]
        v = np.maximum(x + np.minimum(head, top - x), bottom)
        out[cell] = v + np.minimum(add[cell] - head, top - v)
    return samples


def _burst_count(d: Defense, n_samples: int, interval_ms: int) -> int:
    duration_s = n_samples * interval_ms / 1000.0
    return int(round(d.burst_rate_hz * duration_s))


def defended_rows(d: Defense, ds: LabeledDataset):
    """d as a row transform for `dataset_matrix`: rows idx of a label's samples,
    defended, with row i salted by stable_seed("trace-salt", label, i), so a
    trace's noise does not depend on which other traces are taken with it."""
    def transform(label: str, idx, samples: np.ndarray) -> np.ndarray:
        return _defended_samples(d, samples, [ds.devices[label][i] for i in idx], ds.interval_ms,
                                 [stable_seed("trace-salt", label, int(i)) for i in idx])
    return transform


Trainer = Callable[..., TrainedModel]  # called as trainer(ds, rows=..., transform=...)


@dataclass(frozen=True)
class SweepRow:
    kind: str
    param: str
    top1_clean: float
    top1_defended: float


_inherited: tuple | None = None  # a worker process's sweep, set once by _inherit


def _inherit(sweep: tuple) -> None:
    global _inherited
    _inherited = sweep


def _sweep_job(i: int, sweep: tuple | None = None) -> float:
    """Top-1 accuracy of job i of a sweep: -1 is the clean baseline, i >= 0
    is `defenses[i]`, run on the sweep a worker inherited. It takes only the
    train and test rows of each label's `split_indices`, each defended as
    `dataset_matrix` writes it into the float64 matrix the trainer fits or the
    model ranks: no copy of the dataset or of a part is made."""
    defenses, ds, trainer, seed, fractions = sweep or _inherited
    split = {label: split_indices(seed, label, len(rows), fractions)
             for label, rows in ds.samples.items()}
    transform = None if i < 0 else defended_rows(defenses[i], ds)
    model = trainer(ds, rows={label: idx[0] for label, idx in split.items()}, transform=transform)
    test = {label: idx[2] for label, idx in split.items()}
    return evaluate(model, ds, (1,), test, transform).top1_accuracy


def _changes_samples(d: Defense, ds: LabeledDataset) -> bool:
    """False when d leaves every sample of ds as it is: resolution factor 1,
    and noise whose burst count rounds to 0."""
    if d.kind == KIND_NOISE and ds.total_measurements():
        return _burst_count(d, ds.samples[ds.classes[0]].shape[1], ds.interval_ms) > 0
    return d.kind != KIND_RESOLUTION or d.factor > 1


def defense_sweep(defenses: list[Defense], ds: LabeledDataset, trainer: Trainer, seed: int,
                  fractions: tuple[float, float, float]) -> list[SweepRow]:
    """Evaluate several defenses against one dataset, training and testing
    on the train and test rows of each label's `split_indices(seed, label,
    n, fractions)`; the clean baseline is trained once and shared across
    rows. The baseline and each distinct defense that changes some sample
    are jobs for forked workers, one per usable CPU, which inherit the
    dataset and the trainer; a job holds one train matrix and its test rows,
    and an identity defense reads the baseline. Rows do not depend on the
    worker count. A job's exception reaches the caller as raised; a worker
    that dies raises ChildProcessError."""
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    distinct = list(dict.fromkeys(d for d in defenses if _changes_samples(d, ds)))
    sweep, jobs = (distinct, ds, trainer, seed, fractions), range(-1, len(distinct))
    # without CPU affinity (macOS, Windows) the jobs run in this process
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        accuracies = [_sweep_job(i, sweep) for i in jobs]
    else:
        try:
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_inherit, initargs=(sweep,)) as pool:
                accuracies = list(pool.map(_sweep_job, jobs))
        except BrokenExecutor as exc:
            raise ChildProcessError(f"defense sweep lost a worker process: {exc}") from None
    clean, *defended = accuracies
    accuracy = dict(zip(distinct, defended))
    return [SweepRow(kind=d.kind, param=d.param_label(), top1_clean=clean,
                     top1_defended=accuracy.get(d, clean)) for d in defenses]


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    out = ["defense,param,top1_clean,top1_defended"]
    for r in rows:
        out.append(f"{r.kind},{r.param},{r.top1_clean:.6f},{r.top1_defended:.6f}")
    return out
