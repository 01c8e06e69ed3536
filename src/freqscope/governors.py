"""Batch simulation of Linux scaling governors plus a turbo budget.

Each governor is a deterministic update law mapping (state, load) to the
next frequency, always quantized onto the profile's P-state table with
exact midpoints rounding upward. The normative laws:

  performance   pin max_freq
  powersave     pin min_freq; on intel_pstate parts it follows the ondemand
                law under the turbo ceiling (the driver picks states itself)
  userspace     set_speed plus at most one load-dependent pstate step
  ondemand      min + load * (max - min)
  conservative  walk one pstate index per tick toward the ondemand target
  interactive   boost to hispeed_freq on load >= 0.3, hold it for 80 ms,
                change at most once per 20 ms, decay three pstate indices
                per tick
  schedutil     PELT tracking (half-life 32 ms), freq = min + 1.25*pelt*span

Turbo, when enabled, caps output at the profile's boost cap and charges a
leaky-bucket budget 0.02 for every tick spent above base frequency; with the
budget drained the output is clamped to base until idle ticks (load < 0.1)
refill it by 0.05 each.

One engine, `simulate_batch`, runs every law over a [B, T] load matrix,
from given states or the initial ones; one trace is a one-row matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .profiles import GOVERNORS, DeviceProfile, quantize_indices

PELT_HALF_LIFE_MS = 32
SCHEDUTIL_MARGIN = 1.25
INTERACTIVE_BOOSTPULSE_MS = 80
INTERACTIVE_MIN_SAMPLE_TIME_MS = 20
INTERACTIVE_LOAD_TRIGGER = 0.3
INTERACTIVE_DECAY_STEPS = 3  # pstate indices shed per tick on the way down
TURBO_IDLE_LOAD = 0.1
TURBO_GAIN_PER_IDLE_TICK = 0.05
TURBO_COST_PER_BOOST_TICK = 0.02
BLOCK_VALUES = 1 << 15  # float targets the engine holds at once: B of them a column


def _check_loads(loads: np.ndarray) -> None:
    if not (loads.min(initial=0.0) >= 0.0 and loads.max(initial=1.0) <= 1.0):  # NaN fails both
        raise ValueError("loads must lie in [0, 1]")


@dataclass(frozen=True)
class WorkloadTrace:
    """`loads` is a read-only 1-d float64 array in [0, 1] that the workload owns."""

    loads: np.ndarray
    tick_ms: int

    def __post_init__(self) -> None:
        loads = np.array(self.loads, dtype=np.float64)  # always a copy: no caller can write into it
        if loads.ndim != 1 or not len(loads):
            raise ValueError("workload needs a 1-d sequence of at least one tick")
        if self.tick_ms < 1:
            raise ValueError("tick_ms must be >= 1")
        _check_loads(loads)
        loads.flags.writeable = False
        object.__setattr__(self, "loads", loads)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkloadTrace):
            return NotImplemented
        return np.array_equal(self.loads, other.loads) and self.tick_ms == other.tick_ms

    def __len__(self) -> int:
        return len(self.loads)


@dataclass(frozen=True)
class SimConfig:
    """A governor on a profile. Unset values come from the profile: turbo
    from `turbo_boost`, the interactive hispeed from 1.2 GHz quantized (so it
    is a pstate), the userspace pin from the quantized base, else the middle pstate."""

    profile: DeviceProfile
    governor: str
    turbo: bool | None = None
    hispeed_freq_khz: int | None = None
    set_speed_khz: int | None = None

    def __post_init__(self) -> None:
        profile, base = self.profile, self.profile.base_freq_khz
        mid = profile.pstates[len(profile.pstates) // 2]
        for name, default in (("turbo", profile.turbo_boost),
                              ("hispeed_freq_khz", profile.quantize(1_200_000)),
                              ("set_speed_khz", mid if base is None else profile.quantize(base))):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.governor not in GOVERNORS:
            raise ValueError(f"unknown governor {self.governor!r}")
        if self.governor not in profile.supported_governors:
            raise ValueError(f"governor {self.governor!r} not supported by {profile.name} "
                             f"(supported: {', '.join(profile.supported_governors)})")
        if self.turbo:
            if base is None:
                raise ValueError(f"turbo requires a base frequency; {profile.name} has none")
            if self.governor == "interactive":
                raise ValueError("turbo is not modeled under the interactive governor")
        if self.hispeed_freq_khz not in profile.pstates:
            raise ValueError("hispeed_freq_khz must be a profile pstate")
        lo, hi = profile.min_freq_khz, profile.max_freq_khz
        if not lo <= self.set_speed_khz <= hi:
            raise ValueError(f"set_speed_khz must be in [{lo}, {hi}] on {profile.name},"
                             f" got {self.set_speed_khz}")


@dataclass
class GovernorState:
    """What a law carries from one tick to the next."""

    current_freq_khz: int
    pelt_load: float = 0.0
    boost_remaining_ms: int = 0
    turbo_budget: float = 1.0
    ms_since_change: int = 1 << 30  # large: first change is never rate-limited
    boost_pending: bool = False


def init_state(cfg: SimConfig) -> GovernorState:
    profile, governor = cfg.profile, cfg.governor
    if governor == "userspace":
        return GovernorState(profile.quantize(cfg.set_speed_khz))
    start = profile.max_freq_khz if governor == "performance" else profile.min_freq_khz
    return GovernorState(start)


def simulate_batch(loads, tick_ms: int, cfg: SimConfig,
                   states: list[GovernorState] | None = None,
                   ) -> tuple[np.ndarray, list[GovernorState]]:
    """Run the governor over every row of a [B, T] load matrix; row r starts
    from states[r] (default: init_state(cfg)). Returns the [B, T] int64
    matrix of the frequency during each tick, and per row the state after
    the last tick.

    Each law picks P-state indices of the narrowest unsigned type, from float
    targets a block of columns at a time; what carries over from tick to tick
    (PELT, the conservative walk, interactive boost and rate limit, the turbo
    bucket) is stepped a tick at a time, on an intp copy of each [B] column
    (numpy's fast paths; a walk or decay cannot wrap below 0). A step costs
    15-30 us at B=1 and little more at B=600, so a single 1000-tick row takes
    about 15 ms: callers with many traces should pass them as one matrix.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 2 or loads.shape[1] == 0:
        raise ValueError("loads must be a [B, T] matrix with T >= 1")
    _check_loads(loads)
    states = [init_state(cfg)] * len(loads) if states is None else list(states)
    if len(states) != len(loads):
        raise ValueError(f"{len(states)} start states for {len(loads)} load rows")

    profile, governor, pstates = cfg.profile, cfg.governor, cfg.profile.pstates
    lo, span = profile.min_freq_khz, profile.max_freq_khz - profile.min_freq_khz
    index_type = np.min_scalar_type(len(pstates) - 1)  # one byte up to 256 P-states
    if governor == "performance" or (governor == "powersave"
                                     and profile.scaling_driver != "intel_pstate"):
        pin = len(pstates) - 1 if governor == "performance" else 0
        want = np.broadcast_to(np.array(pin, dtype=index_type), loads.shape)
    else:
        # ondemand; conservative and interactive walk toward it; powersave
        # on intel_pstate, whose driver schedules states itself
        at, scale = lo, span
        if governor == "userspace":  # real parts wiggle a little with the load around the pin
            at, scale = cfg.set_speed_khz, span / max(len(pstates) - 1, 1)
        alpha = 1.0 - 2.0 ** (-tick_ms / PELT_HALF_LIFE_MS)
        pelt = np.array([s.pelt_load for s in states], dtype=np.float64)
        want = np.empty(loads.shape, dtype=index_type)
        step = max(1, BLOCK_VALUES // max(len(loads), 1))  # columns of float scratch at once
        for t in range(0, loads.shape[1], step):
            block = loads[:, t:t + step]
            if governor == "schedutil":  # PELT for the load; targets past max quantize to it
                block = block.T.copy()  # [K, B]: each tick's loads, then its PELT
                for col in block:
                    pelt = col[:] = alpha * col + (1.0 - alpha) * pelt
                block = SCHEDUTIL_MARGIN * block.T
            want[:, t:t + step] = quantize_indices(pstates, at + block * scale)
        if governor == "schedutil":
            states = [replace(s, pelt_load=p) for s, p in zip(states, pelt.tolist())]

    if governor == "interactive":
        trigger = loads >= INTERACTIVE_LOAD_TRIGGER
        return _interactive_law(want, trigger, states, cfg, tick_ms)
    if governor == "conservative" or cfg.turbo:
        return _pstate_law(want, loads < TURBO_IDLE_LOAD, states, cfg)
    freqs = np.asarray(pstates, dtype=np.int64)[want]
    return freqs, [replace(s, current_freq_khz=int(f)) for s, f in zip(states, freqs[:, -1])]


def _pstate_law(want: np.ndarray, idle: np.ndarray, states: list[GovernorState],
                cfg: SimConfig) -> tuple[np.ndarray, list[GovernorState]]:
    """The conservative walk (one index per tick toward `want`; other laws go
    straight to it) and the turbo bucket, one tick at a time over all rows."""
    profile = cfg.profile
    # turbo clamping can leave current off-grid; re-anchor before walking
    cur = quantize_indices(profile.pstates, [s.current_freq_khz for s in states])
    budget = np.array([s.turbo_budget for s in states], dtype=np.float64)
    capped = np.asarray(profile.pstates, dtype=np.int64)
    if cfg.turbo:
        base = profile.base_freq_khz  # not None: SimConfig enforces it under turbo
        base_q = profile.quantize(base)
        cost, gain = TURBO_COST_PER_BOOST_TICK, TURBO_GAIN_PER_IDLE_TICK
        capped = np.minimum(capped, profile.boost_cap_khz)
        anchor = quantize_indices(profile.pstates, capped)  # where each output re-anchors
        base_index = profile.pstate_index(base_q)
    out = np.empty(want.shape[::-1], dtype=np.int64)  # [T, B]: a tick's row is contiguous
    for t, (w, is_idle) in enumerate(zip((c.astype(np.intp) for c in want.T), idle.T)):
        cur = cur + np.sign(w - cur) if cfg.governor == "conservative" else w
        freq = capped[cur]
        if cfg.turbo:
            boosted = freq > base
            paid = boosted & (budget > cost)
            budget = np.where(paid, np.maximum(0.0, budget - cost), budget)
            clamped = boosted ^ paid
            freq[clamped] = base_q
            budget = np.where(is_idle, np.minimum(1.0, budget + gain), budget)
            cur = np.where(clamped, base_index, anchor[cur])
        out[t] = freq
    return out.T, [replace(s, current_freq_khz=f, turbo_budget=b)
                   for s, f, b in zip(states, out[-1].tolist(), budget.tolist())]


def _interactive_law(want: np.ndarray, trigger: np.ndarray, states: list[GovernorState],
                     cfg: SimConfig, tick_ms: int) -> tuple[np.ndarray, list[GovernorState]]:
    """The interactive law, one tick at a time over all rows: boost to hispeed on
    a trigger tick and hold it for the boostpulse once reached, change at most
    once per min_sample_time, shed at most INTERACTIVE_DECAY_STEPS a tick."""
    profile = cfg.profile
    pstates = np.asarray(profile.pstates, dtype=np.int64)
    hispeed = profile.pstate_index(cfg.hispeed_freq_khz)
    cur = np.array([profile.pstate_index(s.current_freq_khz) for s in states], dtype=np.int64)
    remaining = np.array([s.boost_remaining_ms for s in states], dtype=np.int64)
    since = np.array([s.ms_since_change for s in states], dtype=np.int64)
    pending = np.array([s.boost_pending for s in states], dtype=bool)
    out = np.empty(want.shape[::-1], dtype=np.int64)  # [T, B]: a tick's row is contiguous
    for t, (w, fired) in enumerate(zip((c.astype(np.intp) for c in want.T), trigger.T)):
        pending = pending | fired
        w = np.where(pending | (remaining > 0), np.maximum(w, hispeed), w)
        # upward moves are immediate, downward ones decay
        w = np.maximum(w, cur - INTERACTIVE_DECAY_STEPS)
        # this tick's time elapses before the change decision, so a change is
        # legal once a full min_sample_time window has passed since the last one
        since = np.minimum(since + tick_ms, 1 << 30)
        changed = (w != cur) & (since >= INTERACTIVE_MIN_SAMPLE_TIME_MS)
        since[changed] = 0
        cur = np.where(changed, w, cur)
        # boost countdown starts once the frequency actually reaches hispeed
        reached = pending & (cur >= hispeed)
        remaining[reached] = INTERACTIVE_BOOSTPULSE_MS
        pending = pending ^ reached  # reached rows were pending
        remaining = np.maximum(0, remaining - tick_ms)
        out[t] = pstates[cur]
    ends = zip(states, out[-1].tolist(), remaining.tolist(), since.tolist(), pending.tolist())
    return out.T, [replace(s, current_freq_khz=f, boost_remaining_ms=r, ms_since_change=m,
                           boost_pending=p) for s, f, r, m, p in ends]

