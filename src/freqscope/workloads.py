"""Seeded synthetic CPU-load generators.

Four kinds feed the governor simulator:

  website    per-class burst signature; the class label alone seeds burst
             positions/widths/heights, so every measurement of a class shares
             the skeleton and differs only by additive per-measurement jitter
  keystrokes short load pulses at given press times; pulse widths are drawn
             from the range that yields 8-12 elevated frequency samples at
             20 ms ticks under the interactive governor
  idle       low-level noise, load < 0.05
  noise      random bursts with no class structure
"""

from __future__ import annotations

import numpy as np

from .dataset import stable_seed
from .governors import WorkloadTrace

WEBSITE_BURSTS = (5, 10)  # count range, inclusive lower / exclusive upper
WEBSITE_WIDTHS = (4, 8)
WEBSITE_HEIGHTS = (0.25, 1.0)
WEBSITE_BASE_LOAD = 0.05
WEBSITE_JITTER = 0.03

KEYSTROKE_WIDTHS = (4, 8)  # ticks; yields 8-12 elevated samples at 20 ms
KEYSTROKE_LOADS = (0.33, 0.50)
KEYSTROKE_TAIL_TICKS = 24  # ticks a trace runs past its last press: the pulse and its decay
IDLE_LOAD_MAX = 0.02


def _burst_overlay(loads: np.ndarray, rng: np.random.Generator, count: int,
                   widths: tuple[int, int], heights: tuple[float, float]) -> None:
    n = len(loads)
    for _ in range(count):
        width = int(rng.integers(widths[0], widths[1] + 1))
        start = int(rng.integers(0, max(1, n - width)))
        height = float(rng.uniform(*heights))
        end = min(n, start + width)
        np.maximum(loads[start:end], height, out=loads[start:end])


def website_workload(class_id: str, n_ticks: int, tick_ms: int = 10, *,
                     seed: int, jitter: float = WEBSITE_JITTER) -> WorkloadTrace:
    """Burst skeleton fixed by class_id; `seed` only shapes the jitter."""
    if n_ticks < 1:
        raise ValueError("n_ticks must be >= 1")
    skeleton_rng = np.random.default_rng(stable_seed("website-skeleton", class_id))
    loads = np.full(n_ticks, WEBSITE_BASE_LOAD)
    count = int(skeleton_rng.integers(*WEBSITE_BURSTS))
    _burst_overlay(loads, skeleton_rng, count, WEBSITE_WIDTHS, WEBSITE_HEIGHTS)

    jitter_rng = np.random.default_rng(seed)
    loads = loads + jitter_rng.normal(0.0, jitter, size=n_ticks)
    return WorkloadTrace(loads=np.clip(loads, 0.0, 1.0), tick_ms=tick_ms)


def keystroke_workload(press_times_ms: list[int], n_ticks: int, tick_ms: int = 20, *,
                       seed: int) -> WorkloadTrace:
    """One short pulse per press; presses must fall inside the trace."""
    if n_ticks < 1:
        raise ValueError("n_ticks must be >= 1")
    duration = n_ticks * tick_ms
    rng = np.random.default_rng(seed)
    loads = rng.uniform(0.0, IDLE_LOAD_MAX, size=n_ticks)
    for press_ms in press_times_ms:
        if not 0 <= press_ms < duration:
            raise ValueError(f"press at {press_ms} ms outside trace of {duration} ms")
        start = press_ms // tick_ms
        width = int(rng.integers(KEYSTROKE_WIDTHS[0], KEYSTROKE_WIDTHS[1] + 1))
        amp = float(rng.uniform(*KEYSTROKE_LOADS))
        end = min(n_ticks, start + width)
        np.maximum(loads[start:end], amp, out=loads[start:end])
    return WorkloadTrace(loads=loads, tick_ms=tick_ms)


def idle_workload(n_ticks: int, tick_ms: int = 10, *, seed: int) -> WorkloadTrace:
    if n_ticks < 1:
        raise ValueError("n_ticks must be >= 1")
    rng = np.random.default_rng(seed)
    loads = rng.uniform(0.0, IDLE_LOAD_MAX, size=n_ticks)
    return WorkloadTrace(loads=loads, tick_ms=tick_ms)


def noise_workload(n_ticks: int, tick_ms: int = 10, *, seed: int) -> WorkloadTrace:
    """Random bursts entirely from the seed; no reproducible class skeleton."""
    if n_ticks < 1:
        raise ValueError("n_ticks must be >= 1")
    rng = np.random.default_rng(seed)
    loads = np.full(n_ticks, WEBSITE_BASE_LOAD)
    _burst_overlay(loads, rng, int(rng.integers(*WEBSITE_BURSTS)), WEBSITE_WIDTHS,
                   WEBSITE_HEIGHTS)
    loads = loads + rng.normal(0.0, WEBSITE_JITTER, size=n_ticks)
    return WorkloadTrace(loads=np.clip(loads, 0.0, 1.0), tick_ms=tick_ms)
