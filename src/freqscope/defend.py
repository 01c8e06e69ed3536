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
from .dataset import LabeledDataset, split_dataset, stable_seed
from .profiles import get_profile
from .trace import FrequencyTrace

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


def _freq_range(trace: FrequencyTrace) -> tuple[int, int]:
    # known devices clip against the profile; ad-hoc devices fall back to
    # the observed range of the trace itself
    try:
        profile = get_profile(trace.device)
    except KeyError:
        return int(trace.samples.min()), int(trace.samples.max())
    return profile.min_freq_khz, profile.boost_cap_khz


def apply_defense(d: Defense, t: FrequencyTrace, salt: int = 0) -> FrequencyTrace:
    """Transform one trace. `salt` decorrelates the noise pattern between
    traces that share a defense seed; other kinds ignore it."""
    if d.kind == KIND_RESOLUTION:
        f = d.factor
        samples = t.samples[(np.arange(len(t.samples)) // f) * f]
    elif d.kind == KIND_MASK:
        try:
            profile = get_profile(t.device)
        except KeyError:
            profile = None
        if profile is not None and d.mask_freq_khz not in profile.pstates:
            raise ValueError(
                f"mask frequency {d.mask_freq_khz} is not a pstate of {t.device}"
            )
        samples = np.full(len(t.samples), d.mask_freq_khz)
    else:
        samples = _inject_noise(d, t, salt)
    return FrequencyTrace(
        samples=samples,
        interval_ms=t.interval_ms,
        device=t.device,
        label=t.label,
        start_index=t.start_index,
    )


def _inject_noise(d: Defense, t: FrequencyTrace, salt: int) -> np.ndarray:
    n = len(t.samples)
    duration_s = n * t.interval_ms / 1000.0
    n_bursts = int(round(d.burst_rate_hz * duration_s))
    if n_bursts == 0:
        return t.samples
    lo, hi = _freq_range(t)
    span = hi - lo
    rng = np.random.default_rng(stable_seed(d.seed, "noise-inject", salt))
    positions = rng.integers(0, n, n_bursts)
    widths = rng.integers(NOISE_WIDTHS[0], NOISE_WIDTHS[1] + 1, n_bursts)
    scales = rng.uniform(0.5, 1.0, n_bursts)
    deltas = np.round(d.burst_height * scales * span).astype(np.int64)
    # every (sample, delta) a burst adds, burst-major, then stably grouped by
    # sample: bursts that overlap a sample stay in burst order, so round k
    # adds and clamps each sample's k-th burst, as the bursts compound one
    # after another
    offsets = np.arange(NOISE_WIDTHS[1])
    cells = positions[:, None] + offsets
    covered = (offsets < widths[:, None]) & (cells < n)
    order = np.argsort(cells[covered], kind="stable")
    at = cells[covered][order]
    add = np.broadcast_to(deltas[:, None], cells.shape)[covered][order]
    depth = np.arange(len(at)) - np.searchsorted(at, at)
    out = t.samples.copy()
    for k in range(depth.max() + 1):
        hit = depth == k
        out[at[hit]] = np.clip(out[at[hit]] + add[hit], lo, hi)
    return out


def defended_dataset(d: Defense, ds: LabeledDataset) -> LabeledDataset:
    """Apply a defense to every measurement; per-trace salts keep noise
    patterns independent across traces while staying reproducible."""
    measurements = {}
    for label in ds.classes:
        traces = ds.measurements[label]
        measurements[label] = [
            apply_defense(d, t, salt=stable_seed("trace-salt", label, i))
            for i, t in enumerate(traces)
        ]
    return LabeledDataset(
        classes=list(ds.classes),
        measurements=measurements,
        split_seed=ds.split_seed,
        split_fractions=ds.split_fractions,
    )


Trainer = Callable[[LabeledDataset], TrainedModel]


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
    is `defenses[i]`. A worker process runs the sweep it inherited."""
    defenses, ds, trainer, topk = sweep or _inherited
    view = ds if i < 0 else defended_dataset(defenses[i], ds)
    train, _, test = split_dataset(view)
    return evaluate(trainer(train), test, topk=topk).top1_accuracy


def defense_sweep(defenses: list[Defense], ds: LabeledDataset, trainer: Trainer,
                  topk: tuple[int, ...] = (1, 5)) -> list[SweepRow]:
    """Evaluate several defenses against one dataset; the clean baseline is
    trained once and shared across rows. The baseline and each row are jobs
    for forked workers, one per usable CPU, which inherit the dataset and the
    trainer; rows do not depend on the worker count. A job's exception reaches
    the caller as raised; a worker that dies raises ChildProcessError."""
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    sweep, jobs = (defenses, ds, trainer, topk), range(-1, len(defenses))
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
    return [SweepRow(kind=d.kind, param=d.param_label(), top1_clean=clean, top1_defended=acc)
            for d, acc in zip(defenses, defended)]


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    out = ["defense,param,top1_clean,top1_defended"]
    for r in rows:
        out.append(f"{r.kind},{r.param},{r.top1_clean:.6f},{r.top1_defended:.6f}")
    return out


def sweep_plot_lines(rows: list[SweepRow]) -> list[str]:
    """Whitespace-separated columns, one block per defense kind."""
    out = ["# defense param top1_clean top1_defended"]
    for r in rows:
        out.append(f"{r.kind} {r.param} {r.top1_clean:.6f} {r.top1_defended:.6f}")
    return out
