"""Seeded synthetic CPU-load generators.

Three generators feed the governor simulator:

  website    per-class burst signature; the class label alone seeds burst
             positions/widths/heights, so every measurement of a class shares
             the skeleton and differs only by additive per-measurement jitter
  keystrokes short load pulses at given press times over low-level idle
             noise (load < 0.02); pulse widths are drawn from the range that
             yields 8-12 elevated frequency samples at 20 ms ticks under the
             interactive governor. Idle load is this law with no press.
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


def _burst_workload(skeleton_rng: np.random.Generator, jitter_rng: np.random.Generator,
                    n_ticks: int, tick_ms: int, jitter: float) -> WorkloadTrace:
    """WEBSITE_BURSTS bursts over WEBSITE_BASE_LOAD, drawn from skeleton_rng,
    plus gaussian jitter from jitter_rng, clipped to [0, 1]."""
    if n_ticks < 1:
        raise ValueError("n_ticks must be >= 1")
    loads = np.full(n_ticks, WEBSITE_BASE_LOAD)
    for _ in range(int(skeleton_rng.integers(*WEBSITE_BURSTS))):
        width = int(skeleton_rng.integers(WEBSITE_WIDTHS[0], WEBSITE_WIDTHS[1] + 1))
        start = int(skeleton_rng.integers(0, max(1, n_ticks - width)))
        height = float(skeleton_rng.uniform(*WEBSITE_HEIGHTS))
        np.maximum(loads[start:start + width], height, out=loads[start:start + width])
    loads += jitter_rng.normal(0.0, jitter, size=n_ticks)
    return WorkloadTrace(loads=np.clip(loads, 0.0, 1.0), tick_ms=tick_ms)


def website_workload(class_id: str, n_ticks: int, tick_ms: int = 10, *,
                     seed: int, jitter: float = WEBSITE_JITTER) -> WorkloadTrace:
    """Burst skeleton fixed by class_id; `seed` only shapes the jitter."""
    return _burst_workload(np.random.default_rng(stable_seed("website-skeleton", class_id)),
                           np.random.default_rng(seed), n_ticks, tick_ms, jitter)


def noise_workload(n_ticks: int, tick_ms: int = 10, *, seed: int) -> WorkloadTrace:
    """Random bursts entirely from the seed; no reproducible class skeleton."""
    rng = np.random.default_rng(seed)
    return _burst_workload(rng, rng, n_ticks, tick_ms, WEBSITE_JITTER)


def check_presses(press_times_ms: list[int], n_ticks: int, tick_ms: int) -> None:
    """The ValueError `keystroke_workload` raises for the first press outside
    its trace, so a caller can check a schedule before it synthesizes."""
    duration = n_ticks * tick_ms
    for press_ms in press_times_ms:
        if not 0 <= press_ms < duration:
            raise ValueError(f"press at {press_ms} ms outside trace of {duration} ms")


def keystroke_workload(press_times_ms: list[int], n_ticks: int, tick_ms: int = 20, *,
                       seed: int) -> WorkloadTrace:
    """One short pulse per press over idle noise; presses must fall inside
    the trace. With no press this is the idle load."""
    if n_ticks < 1:
        raise ValueError("n_ticks must be >= 1")
    check_presses(press_times_ms, n_ticks, tick_ms)
    rng = np.random.default_rng(seed)
    loads = rng.uniform(0.0, IDLE_LOAD_MAX, size=n_ticks)
    for press_ms in press_times_ms:
        start = press_ms // tick_ms
        width = int(rng.integers(KEYSTROKE_WIDTHS[0], KEYSTROKE_WIDTHS[1] + 1))
        amp = float(rng.uniform(*KEYSTROKE_LOADS))
        end = min(n_ticks, start + width)
        np.maximum(loads[start:end], amp, out=loads[start:end])
    return WorkloadTrace(loads=loads, tick_ms=tick_ms)
