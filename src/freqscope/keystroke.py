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
from .knn import KnnModel, fit_knn, rank_many
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


@dataclass(frozen=True)
class KeystrokeParams:
    idle_freq_khz: int = 800_000
    peak_cap_khz: int = 1_600_000
    sustained_freq_khz: int = 1_200_000
    min_pulse_samples: int = 8
    max_single_pulse_samples: int = 12
    sample_interval_ms: int = 20
    # segmentation threshold is idle + hysteresis; 100 MHz keeps every
    # signal level more than 50 MHz away from the threshold
    hysteresis_khz: int = 100_000

    def __post_init__(self) -> None:
        if self.min_pulse_samples > self.max_single_pulse_samples:
            raise ValueError("min_pulse_samples must be <= max_single_pulse_samples")
        if not (self.idle_freq_khz < self.sustained_freq_khz < self.peak_cap_khz):
            raise ValueError("need idle < sustained < peak_cap")
        if self.sample_interval_ms <= 0:
            raise ValueError("sample_interval_ms must be positive")
        if self.hysteresis_khz < 0:
            raise ValueError("hysteresis_khz must be >= 0")

    @property
    def threshold_khz(self) -> int:
        return self.idle_freq_khz + self.hysteresis_khz


@dataclass(frozen=True)
class KeystrokeEvent:
    start_index: int
    length_samples: int
    inferred_count: int
    extrapolated: bool = False


@dataclass
class KeystrokeReport:
    events: list[KeystrokeEvent] = field(default_factory=list)
    press_times_ms: list[int] = field(default_factory=list)
    inter_key_timings_ms: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.press_times_ms, self.press_times_ms[1:])):
            raise ValueError("press times must be strictly increasing")

    @property
    def press_count(self) -> int:
        return len(self.press_times_ms)

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


def detect_keystrokes(trace: FrequencyTrace, p: KeystrokeParams | None = None) -> KeystrokeReport:
    p = p or KeystrokeParams()
    if trace.interval_ms != p.sample_interval_ms:
        raise ValueError(
            f"trace interval {trace.interval_ms} ms != expected {p.sample_interval_ms} ms"
        )
    samples = trace.samples
    padded = np.zeros(len(samples) + 2, dtype=bool)
    padded[1:-1] = above = samples > p.threshold_khz
    # maximal runs of samples above the threshold: [starts[i], ends[i])
    edges = np.diff(padded).nonzero()[0]
    if not len(edges):
        return KeystrokeReport()
    starts, ends = edges[0::2], edges[1::2]
    # run i is the only stretch above the threshold in [starts[i], starts[i + 1])
    under_cap = np.maximum.reduceat(samples * above, starts) <= p.peak_cap_khz
    sustained = np.add.reduceat(above & (samples >= p.sustained_freq_khz), starts, dtype=np.int64)
    stays_high = sustained > p.max_single_pulse_samples
    events: list[KeystrokeEvent] = []
    presses: list[int] = []
    for start, length, quiet, high in zip(starts.tolist(), (ends - starts).tolist(),
                                          under_cap.tolist(), stays_high.tolist()):
        if length < p.min_pulse_samples:
            continue  # too short: scheduler noise
        if length <= p.max_single_pulse_samples:
            if quiet:
                events.append(KeystrokeEvent(start, length, 1))
                presses.append(start * p.sample_interval_ms)
            # over-cap short runs are background interference, not keys
            continue
        if high:
            # fused presses: the run never settles, so split it evenly
            count = math.ceil(length / p.max_single_pulse_samples)
            events.append(KeystrokeEvent(start, length, count, extrapolated=count > 2))
            for i in range(count):
                presses.append((start + i * length // count) * p.sample_interval_ms)
        # long but not sustained: some other workload
    return KeystrokeReport(
        events=events,
        press_times_ms=presses,
        inter_key_timings_ms=[b - a for a, b in zip(presses, presses[1:])],
    )


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


def sample_timing_vector(password: str, rng: np.random.Generator,
                         sigma_ms: float = GAP_SIGMA_MS) -> np.ndarray:
    means = np.array(password_gap_means(password))
    gaps = rng.normal(means, sigma_ms)
    return np.maximum(gaps, GAP_MIN_MS)


def password_press_schedule(password: str, seed: int = 0,
                            sigma_ms: float = GAP_SIGMA_MS,
                            first_press_ms: int = FIRST_PRESS_MS) -> list[int]:
    """Press times (ms) for typing one password, for the workload generator."""
    rng = np.random.default_rng(stable_seed(seed, "password-schedule", password))
    gaps = sample_timing_vector(password, rng, sigma_ms)
    out = [first_press_ms]
    for g in gaps:
        out.append(out[-1] + int(round(g)))
    return out


@dataclass
class PasswordModel:
    knn: KnnModel
    password_labels: list[str]
    timing_length: int


def _pad(vec: np.ndarray, n: int) -> np.ndarray:
    if len(vec) > n:
        raise ValueError(f"timing vector of length {len(vec)} exceeds model length {n}")
    return np.pad(np.asarray(vec, dtype=np.float64), (0, n - len(vec)))


def train_password_model(ds: dict[str, list], split_seed: int = 0
                         ) -> tuple[PasswordModel, list[tuple[str, np.ndarray]]]:
    """Subsample exactly 10 measurements per password, split 7/3, fit
    KNN(k=4) on zero-padded timing vectors. Returns the model plus the
    held-out (label, vector) pairs for evaluation."""
    labels = sorted(ds)
    if len(labels) < 2:
        raise ValueError("need at least 2 passwords")
    picked: dict[str, list[np.ndarray]] = {}
    order: dict[str, np.ndarray] = {}
    max_len = 0
    for label in labels:
        vecs = ds[label]
        if len(vecs) < MEASUREMENTS_PER_LABEL:
            raise ValueError(
                f"password {label!r} has {len(vecs)} measurements;"
                f" need >= {MEASUREMENTS_PER_LABEL}"
            )
        rng = np.random.default_rng(stable_seed(split_seed, "password-split", label))
        idx = sorted(rng.choice(len(vecs), MEASUREMENTS_PER_LABEL, replace=False).tolist())
        picked[label] = [np.asarray(vecs[i], dtype=np.float64) for i in idx]
        order[label] = rng.permutation(MEASUREMENTS_PER_LABEL)
        max_len = max(max_len, max(len(v) for v in picked[label]))

    n_train = round(TRAIN_FRACTION * MEASUREMENTS_PER_LABEL)
    train_x, train_y = [], []
    held_out: list[tuple[str, np.ndarray]] = []
    for label in labels:
        padded = [_pad(v, max_len) for v in picked[label]]
        perm = order[label]
        for j in perm[:n_train]:
            train_x.append(padded[j])
            train_y.append(label)
        for j in perm[n_train:]:
            held_out.append((label, padded[j]))

    knn = fit_knn(np.vstack(train_x), train_y, k=PASSWORD_K)
    model = PasswordModel(knn=knn, password_labels=labels, timing_length=max_len)
    return model, held_out


def guess_curve(model: PasswordModel, test_pairs: list[tuple[str, np.ndarray]],
                max_guesses: int) -> list[float]:
    """Cumulative accuracy by guess count: entry g-1 is the fraction of
    test vectors whose true password ranks within the top g."""
    if not test_pairs:
        raise ValueError("empty test set")
    if not 1 <= max_guesses <= len(model.password_labels):
        raise ValueError(
            f"max_guesses must be in [1, {len(model.password_labels)}], got {max_guesses}"
        )
    X = np.stack([_pad(np.asarray(vec, dtype=np.float64), model.timing_length)
                  for _, vec in test_pairs])
    order, _ = rank_many(model.knn, X)
    index = {label: c for c, label in enumerate(model.knn.classes)}
    truth = np.array([index.get(label, -1) for label, _ in test_pairs])
    # found[q, g]: query q's true password is its guess g + 1
    found = order[:, :max_guesses] == truth[:, None]
    hits = np.cumsum(found.sum(axis=0))
    return [h / len(test_pairs) for h in hits]
