"""Keystroke detection and password recovery from frequency traces.

A key press shows up in a 20 ms frequency trace as a short elevated run
with three properties: (1) a single press spans 8-12 samples, (2) its peak
stays at or below ~1.6 GHz, and (3) two presses close enough to fuse
produce a run longer than 12 samples that stays high (>= 1.2 GHz) for more
than 12 samples. Runs are segmented against idle + hysteresis; fused runs
are split evenly into inferred presses. Inter-keystroke timings then feed
a small KNN over fixed-length timing vectors to rank candidate passwords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import stable_seed
from .knn import KnnModel, fit_knn, rank_many, topk_hits
from .trace import FrequencyTrace

PASSWORD_K = 4
MEASUREMENTS_PER_LABEL = 10
TRAIN_FRACTION = 0.7

# Inter-key gap model: mean grows linearly with key travel distance on a
# staggered QWERTY grid, jitter is gaussian, and gaps never drop below a
# floor (fingers cannot teleport).
GAP_BASE_MS = 150.0
GAP_SPAN_MS = 300.0
GAP_SIGMA_MS = 30.0
GAP_MIN_MS = 120.0
FIRST_PRESS_MS = 400

# The detection law of the module docstring. The threshold is idle +
# hysteresis; 100 MHz keeps every signal level more than 50 MHz away from
# it. `detect_keystrokes` reads these when it is called.
IDLE_FREQ_KHZ = 800_000
HYSTERESIS_KHZ = 100_000
PEAK_CAP_KHZ = 1_600_000
SUSTAINED_FREQ_KHZ = 1_200_000
MIN_PULSE_SAMPLES = 8
MAX_SINGLE_PULSE_SAMPLES = 12
SAMPLE_INTERVAL_MS = 20


@dataclass(frozen=True)
class KeystrokeEvent:
    start_index: int
    length_samples: int
    inferred_count: int

    @property
    def extrapolated(self) -> bool:
        """More than two presses fused: the split is extrapolated."""
        return self.inferred_count > 2


@dataclass
class KeystrokeReport:
    events: list[KeystrokeEvent] = field(default_factory=list)
    press_times_ms: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.press_times_ms, self.press_times_ms[1:])):
            raise ValueError("press times must be strictly increasing")

    @property
    def press_count(self) -> int:
        return len(self.press_times_ms)

    @property
    def inter_key_timings_ms(self) -> list[int]:
        return [b - a for a, b in zip(self.press_times_ms, self.press_times_ms[1:])]

    def key_value_lines(self) -> list[str]:
        lines = [
            f"events = {len(self.events)}",
            f"presses = {self.press_count}",
            "press_times_ms = " + ",".join(str(t) for t in self.press_times_ms),
            "timings_ms = " + ",".join(str(t) for t in self.inter_key_timings_ms),
        ]
        for i, ev in enumerate(self.events):
            lines.append(
                f"event.{i} = start={ev.start_index} length={ev.length_samples}"
                f" count={ev.inferred_count} extrapolated={str(ev.extrapolated).lower()}"
            )
        return lines


def detect_keystrokes(trace: FrequencyTrace) -> KeystrokeReport:
    if trace.interval_ms != SAMPLE_INTERVAL_MS:
        raise ValueError(
            f"trace interval {trace.interval_ms} ms != expected {SAMPLE_INTERVAL_MS} ms")
    samples = trace.samples
    padded = np.zeros(len(samples) + 2, dtype=bool)
    padded[1:-1] = above = samples > IDLE_FREQ_KHZ + HYSTERESIS_KHZ
    # maximal runs of samples above the threshold: [starts[i], ends[i])
    edges = np.diff(padded).nonzero()[0]
    if not len(edges):
        return KeystrokeReport()
    starts, ends = edges[0::2], edges[1::2]
    # run i is the only stretch above the threshold in [starts[i], starts[i + 1])
    under_cap = np.maximum.reduceat(samples * above, starts) <= PEAK_CAP_KHZ
    sustained = np.add.reduceat(above & (samples >= SUSTAINED_FREQ_KHZ), starts, dtype=np.int64)
    stays_high = sustained > MAX_SINGLE_PULSE_SAMPLES
    events: list[KeystrokeEvent] = []
    presses: list[int] = []
    for start, length, quiet, high in zip(starts.tolist(), (ends - starts).tolist(),
                                          under_cap.tolist(), stays_high.tolist()):
        if length < MIN_PULSE_SAMPLES:
            continue  # too short: scheduler noise
        if length <= MAX_SINGLE_PULSE_SAMPLES:
            if quiet:
                events.append(KeystrokeEvent(start, length, 1))
                presses.append(start * SAMPLE_INTERVAL_MS)
            # over-cap short runs are background interference, not keys
            continue
        if high:
            # fused presses: the run never settles, so split it evenly
            count = math.ceil(length / MAX_SINGLE_PULSE_SAMPLES)
            events.append(KeystrokeEvent(start, length, count))
            for i in range(count):
                presses.append((start + i * length // count) * SAMPLE_INTERVAL_MS)
        # long but not sustained: some other workload
    return KeystrokeReport(events=events, press_times_ms=presses)


# --- password timing model ---------------------------------------------

_QWERTY_ROWS = (
    ("1234567890", -0.25, -1.0),
    ("qwertyuiop", 0.0, 0.0),
    ("asdfghjkl", 0.25, 1.0),
    ("zxcvbnm", 0.75, 2.0),
)
_KEY_POS = {
    ch: (x_off + i, y)
    for row, x_off, y in _QWERTY_ROWS
    for i, ch in enumerate(row)
}
_MAX_KEY_DIST = 9.0
_UNKNOWN_KEY_DIST = 4.0


def key_distance(a: str, b: str) -> float:
    pa = _KEY_POS.get(a.lower())
    pb = _KEY_POS.get(b.lower())
    if pa is None or pb is None:
        return _UNKNOWN_KEY_DIST
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


def gap_mean_ms(a: str, b: str) -> float:
    norm = min(key_distance(a, b) / _MAX_KEY_DIST, 1.0)
    return GAP_BASE_MS + GAP_SPAN_MS * norm


def password_gap_means(password: str) -> list[float]:
    if len(password) < 2:
        raise ValueError("password needs at least 2 characters")
    return [gap_mean_ms(a, b) for a, b in zip(password, password[1:])]


def sample_timing_vector(password: str, rng: np.random.Generator) -> np.ndarray:
    means = np.array(password_gap_means(password))
    gaps = rng.normal(means, GAP_SIGMA_MS)
    return np.maximum(gaps, GAP_MIN_MS)


def password_press_schedule(password: str, seed: int = 0) -> list[int]:
    """Press times (ms) for typing one password, for the workload generator."""
    rng = np.random.default_rng(stable_seed(seed, "password-schedule", password))
    gaps = sample_timing_vector(password, rng)
    out = [FIRST_PRESS_MS]
    for g in gaps:
        out.append(out[-1] + int(round(g)))
    return out


def _padded(vecs: list, width: int | None = None) -> np.ndarray:
    """The vectors as rows of a float64 matrix, zero-padded to `width`
    columns (by default the longest vector's length)."""
    vecs = [np.asarray(v, dtype=np.float64) for v in vecs]
    width = max(map(len, vecs)) if width is None else width
    out = np.zeros((len(vecs), width))
    for row, vec in zip(out, vecs):
        if len(vec) > width:
            raise ValueError(f"timing vector of length {len(vec)} exceeds model length {width}")
        row[:len(vec)] = vec
    return out


def train_password_model(ds: dict[str, list], split_seed: int = 0
                         ) -> tuple[KnnModel, list[tuple[str, np.ndarray]]]:
    """Subsample exactly 10 measurements per password, split 7/3, fit
    KNN(k=4) on zero-padded timing vectors. Returns the model, whose classes
    are the passwords and whose width is the timing length, plus the
    held-out (label, vector) pairs for evaluation."""
    labels = sorted(ds)
    if len(labels) < 2:
        raise ValueError("need at least 2 passwords")
    picked = []  # each password's 10 measurements, in its split order
    for label in labels:
        vecs = ds[label]
        if len(vecs) < MEASUREMENTS_PER_LABEL:
            raise ValueError(
                f"password {label!r} has {len(vecs)} measurements;"
                f" need >= {MEASUREMENTS_PER_LABEL}"
            )
        rng = np.random.default_rng(stable_seed(split_seed, "password-split", label))
        idx = sorted(rng.choice(len(vecs), MEASUREMENTS_PER_LABEL, replace=False).tolist())
        picked += [vecs[idx[j]] for j in rng.permutation(MEASUREMENTS_PER_LABEL)]
    X = _padded(picked)
    X = X.reshape(len(labels), MEASUREMENTS_PER_LABEL, X.shape[1])
    n_train = round(TRAIN_FRACTION * MEASUREMENTS_PER_LABEL)
    train_y = [label for label in labels for _ in range(n_train)]
    held_y = [label for label in labels for _ in range(MEASUREMENTS_PER_LABEL - n_train)]
    held_x = X[:, n_train:].reshape(len(held_y), X.shape[2])
    return (fit_knn(X[:, :n_train].reshape(len(train_y), X.shape[2]), train_y, k=PASSWORD_K),
            list(zip(held_y, held_x)))


def guess_curve(model: KnnModel, test_pairs: list[tuple[str, np.ndarray]],
                max_guesses: int) -> list[float]:
    """Cumulative accuracy by guess count: entry g-1 is the fraction of
    test vectors whose true password ranks within the top g."""
    if not test_pairs:
        raise ValueError("empty test set")
    if not 1 <= max_guesses <= len(model.classes):
        raise ValueError(
            f"max_guesses must be in [1, {len(model.classes)}], got {max_guesses}"
        )
    X = _padded([vec for _, vec in test_pairs], model.train_x.shape[1])
    order, _ = rank_many(model, X)
    index = {label: c for c, label in enumerate(model.classes)}
    truth = np.array([index.get(label, -1) for label, _ in test_pairs])
    return [h / len(test_pairs) for h in topk_hits(order, truth)[:max_guesses]]
