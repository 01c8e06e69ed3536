"""Library functions that only the tests call: datasets built from and read
back as traces, merging datasets in memory (the CLI merges dataset trees by
copying files), synthetic timing vectors (the CLI measures timings from
simulated traces), the sampling-rate repetitiveness diagnostic, one-row
calls of the batch entry points, a dataset defended row by row, a patcher
for law constants, and a tracemalloc peak probe."""

import tracemalloc
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest.mock import patch

import numpy as np

import dataset_oracle
from freqscope.dataset import DatasetFormatError, LabeledDataset, stable_seed
from freqscope.defend import Defense, _defended_samples, defended_rows
from freqscope.governors import SimConfig, WorkloadTrace, simulate_batch
from freqscope.keystroke import MEASUREMENTS_PER_LABEL, sample_timing_vector
from freqscope.knn import KnnModel, rank_many
from freqscope.sources import FreqSource
from freqscope.trace import FrequencyTrace


@contextmanager
def law_constants(module, **values):
    """Patch law constants of `module`, which its code and the test oracles
    both read when they are called."""
    with ExitStack() as stack:
        for name, value in values.items():
            stack.enter_context(patch.object(module, name, value))
        yield


def traced_peak(fn):
    """fn()'s result and the peak of the bytes tracemalloc traced while fn
    ran: what was allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def simulate(workload: WorkloadTrace, cfg: SimConfig) -> FrequencyTrace:
    """One workload as a one-row `simulate_batch`: sample k is the frequency
    during workload tick k."""
    (samples,), _ = simulate_batch([workload.loads], workload.tick_ms, cfg)
    return FrequencyTrace(samples=samples, interval_ms=workload.tick_ms, device=cfg.profile.name)


def read_freq(src: FreqSource) -> int:
    """One reading that moves no time."""
    return int(src.read_series(1, 0)[0])


def knn_rank(model: KnnModel, x) -> list[tuple[str, float]]:
    """One query's ranking from a one-row `knn.rank_many`: every class as
    (label, score), best first."""
    (order,), (votes,) = rank_many(model, np.asarray(x, dtype=np.float64)[None])
    return [(model.classes[c], v / model.k) for c, v in zip(order.tolist(), votes.tolist())]


def apply_defense(d: Defense, t: FrequencyTrace, salt: int = 0) -> FrequencyTrace:
    """One trace defended, as a one-row `defend._defended_samples`. `salt`
    decorrelates the noise pattern between traces that share a defense seed;
    other kinds ignore it."""
    (row,) = _defended_samples(d, t.samples[None], [t.device], t.interval_ms, [salt])
    return replace(t, samples=row)


def defend_every_row(d: Defense, ds: LabeledDataset) -> LabeledDataset:
    """ds with each row defended by `defend.defended_rows`, the transform a
    sweep job applies to the rows it takes."""
    transform = defended_rows(d, ds)
    return LabeledDataset({label: transform(label, range(len(rows)), rows)
                           for label, rows in ds.samples.items()}, ds.devices, ds.interval_ms)


def traces_dataset(measurements: dict[str, list[FrequencyTrace]]) -> LabeledDataset:
    """The dataset of traces grouped by label, each label's stacked into its
    matrix; like the list-based dataset it replaced, it rejects traces of
    mixed length or interval."""
    first = next((t for _, t in dataset_oracle.LabeledDataset(measurements).items()), None)
    width = len(first) if first else 0
    return LabeledDataset(
        {label: np.array([t.samples for t in ts], dtype=np.int64).reshape(len(ts), width)
         for label, ts in measurements.items()},
        {label: [t.device for t in ts] for label, ts in measurements.items()},
        first.interval_ms if first else None)


def dataset_traces(ds: LabeledDataset) -> list[tuple[str, FrequencyTrace]]:
    """(label, trace) of every row, labels in sorted order: the pairs the
    list-based dataset's `items()` gave."""
    return [(label, FrequencyTrace(row, ds.interval_ms, device, label))
            for label in ds.classes
            for row, device in zip(ds.samples[label], ds.devices[label])]


def merge_datasets(datasets: list[LabeledDataset]) -> LabeledDataset:
    """Union measurements per class, each label's rows in input order; inputs
    must agree on classes, length and interval."""
    if not datasets:
        raise ValueError("nothing to merge")
    classes = datasets[0].classes
    if any(ds.classes != classes for ds in datasets[1:]):
        raise ValueError("datasets disagree on class sets")
    widths = {ds.samples[label].shape[1] for ds in datasets for label in classes}
    intervals = {ds.interval_ms for ds in datasets}
    if len(widths) > 1:
        raise DatasetFormatError(f"traces disagree on sample count: {sorted(widths)}")
    if len(intervals) > 1:
        raise DatasetFormatError(f"traces disagree on interval_ms: {sorted(intervals)}")
    return LabeledDataset(
        {label: np.concatenate([ds.samples[label] for ds in datasets]) for label in classes},
        {label: [dev for ds in datasets for dev in ds.devices[label]] for label in classes},
        datasets[0].interval_ms)


def password_timing_vectors(passwords: list[str], per_label: int = MEASUREMENTS_PER_LABEL,
                            seed: int = 0) -> dict[str, list[np.ndarray]]:
    """Synthetic measurement set: per-gap means from key adjacency, gaussian
    jitter per measurement. Deterministic per (seed, password, index)."""
    out: dict[str, list[np.ndarray]] = {}
    for pw in passwords:
        vecs = []
        for i in range(per_label):
            rng = np.random.default_rng(stable_seed(seed, "password-timing", pw, i))
            vecs.append(sample_timing_vector(pw, rng))
        out[pw] = vecs
    return out


def repetitiveness(src: FreqSource, delays_ms: list[int], reads_per_delay: int) -> dict[int, float]:
    """Mean run length of identical consecutive readings per delay.

    1.0 means every reading was unique; reads_per_delay means the source
    never changed. Lower is better for an attacker sampling at that delay.
    """
    if not delays_ms:
        raise ValueError("delays_ms must be non-empty")
    if reads_per_delay < 2:
        raise ValueError("reads_per_delay must be >= 2")
    result: dict[int, float] = {}
    for delay in delays_ms:
        values = src.read_series(reads_per_delay, delay)
        runs = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
        result[delay] = len(values) / runs
    return result
