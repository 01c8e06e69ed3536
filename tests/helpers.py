"""Library functions that only the tests call: merging datasets in memory
(the CLI merges dataset trees by copying files), synthetic timing vectors
(the CLI measures timings from simulated traces) and the sampling-rate
repetitiveness diagnostic."""

import numpy as np

from freqscope.dataset import LabeledDataset, stable_seed
from freqscope.keystroke import GAP_SIGMA_MS, MEASUREMENTS_PER_LABEL, sample_timing_vector
from freqscope.sources import FreqSource


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
    return LabeledDataset(
        classes=classes,
        measurements=merged,
        split_seed=first.split_seed,
        split_fractions=first.split_fractions,
    )


def password_timing_vectors(passwords: list[str], per_label: int = MEASUREMENTS_PER_LABEL,
                            sigma_ms: float = GAP_SIGMA_MS, seed: int = 0
                            ) -> dict[str, list[np.ndarray]]:
    """Synthetic measurement set: per-gap means from key adjacency, gaussian
    jitter per measurement. Deterministic per (seed, password, index)."""
    out: dict[str, list[np.ndarray]] = {}
    for pw in passwords:
        vecs = []
        for i in range(per_label):
            rng = np.random.default_rng(stable_seed(seed, "password-timing", pw, i))
            vecs.append(sample_timing_vector(pw, rng, sigma_ms))
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
