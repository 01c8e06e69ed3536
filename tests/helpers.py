"""Library functions that only the tests call: merging datasets in memory
(the CLI merges dataset trees by copying files) and synthetic timing
vectors (the CLI measures timings from simulated traces)."""

import numpy as np

from freqscope.dataset import LabeledDataset, stable_seed
from freqscope.keystroke import GAP_SIGMA_MS, MEASUREMENTS_PER_LABEL, sample_timing_vector


def merge_datasets(datasets: list[LabeledDataset]) -> LabeledDataset:
    """Union measurements per class; inputs must agree on classes and shape."""
    if not datasets:
        raise ValueError("nothing to merge")
    first = datasets[0]
    classes = sorted(first.classes)
    for ds in datasets[1:]:
        if sorted(ds.classes) != classes:
            raise ValueError("datasets disagree on class sets")
        if ds.n_samples != first.n_samples:
            raise ValueError(
                f"datasets disagree on sample count: {ds.n_samples} != {first.n_samples}"
            )
        if ds.interval_ms != first.interval_ms:
            raise ValueError("datasets disagree on interval_ms")
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
