"""Library functions that only the tests call: merging datasets in memory
(the CLI merges dataset trees by copying files), synthetic timing vectors
(the CLI measures timings from simulated traces), the sampling-rate
repetitiveness diagnostic, one-row calls of the batch entry points, and a
patcher for law constants."""

from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest.mock import patch

import numpy as np

from freqscope.dataset import LabeledDataset, stable_seed
from freqscope.defend import Defense, _defended_samples
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
    return replace(t, samples=_defended_samples(d, [t], [salt])[0])


def merge_datasets(datasets: list[LabeledDataset]) -> LabeledDataset:
    """Union measurements per class; inputs must agree on classes, and the
    merged dataset rejects traces of mixed length or interval."""
    if not datasets:
        raise ValueError("nothing to merge")
    first = datasets[0]
    classes = sorted(first.classes)
    for ds in datasets[1:]:
        if sorted(ds.classes) != classes:
            raise ValueError("datasets disagree on class sets")
    merged = {label: [] for label in classes}
    for ds in datasets:
        for label in classes:
            merged[label].extend(ds.measurements[label])
    return LabeledDataset(classes=classes, measurements=merged)


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
