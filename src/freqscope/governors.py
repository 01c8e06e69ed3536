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
  interactive   boost to hispeed_freq on load >= trigger, hold for the
                boostpulse duration, change at most once per min_sample_time,
                decay three pstate indices per tick
  schedutil     PELT tracking (half-life 32 ms), freq = min + 1.25*pelt*span

Turbo, when enabled, caps output at the ceiling and charges a leaky-bucket
budget for every tick spent above base frequency; with the budget drained
the output is clamped to base until idle ticks (load < 0.1) refill it.

One engine, `simulate_batch`, runs every law over a [B, T] load matrix,
from given states or the initial ones; `simulate` is its single-trace call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .profiles import GOVERNORS, DeviceProfile, quantize_indices
from .trace import FrequencyTrace

PELT_HALF_LIFE_MS = 32
SCHEDUTIL_MARGIN = 1.25
TURBO_IDLE_LOAD = 0.1
INTERACTIVE_DECAY_STEPS = 3  # pstate indices shed per tick on the way down


def _check_loads(loads: np.ndarray) -> None:
    if not ((loads >= 0.0) & (loads <= 1.0)).all():  # NaN fails both
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
class InteractiveParams:
    hispeed_freq_khz: int
    boostpulse_duration_ms: int = 80
    min_sample_time_ms: int = 20
    load_trigger: float = 0.3

    def __post_init__(self) -> None:
        if self.boostpulse_duration_ms < 0 or self.min_sample_time_ms < 0:
            raise ValueError("interactive durations must be non-negative")
        if not 0.0 < self.load_trigger <= 1.0:
            raise ValueError("load_trigger must lie in (0, 1]")


@dataclass(frozen=True)
class TurboParams:
    enabled: bool = False
    ceiling_khz: int | None = None
    budget_gain_per_idle_tick: float = 0.05
    budget_cost_per_boost_tick: float = 0.02

    def __post_init__(self) -> None:
        if self.budget_gain_per_idle_tick < 0 or self.budget_cost_per_boost_tick < 0:
            raise ValueError("turbo budget rates must be non-negative")


def default_interactive_params(profile: DeviceProfile) -> InteractiveParams:
    # 1.2 GHz is off most grids; quantize so hispeed is a real pstate.
    return InteractiveParams(hispeed_freq_khz=profile.quantize(1_200_000))


def default_turbo_params(profile: DeviceProfile) -> TurboParams:
    return TurboParams(enabled=profile.turbo_boost, ceiling_khz=profile.boost_cap_khz)


@dataclass(frozen=True)
class SimConfig:
    profile: DeviceProfile
    governor: str
    interactive: InteractiveParams | None = None
    turbo: TurboParams | None = None
    set_speed_khz: int | None = None

    def __post_init__(self) -> None:
        if self.governor not in GOVERNORS:
            raise ValueError(f"unknown governor {self.governor!r}")
        if self.governor not in self.profile.supported_governors:
            raise ValueError(
                f"governor {self.governor!r} not supported by {self.profile.name} "
                f"(supported: {', '.join(self.profile.supported_governors)})"
            )
        turbo = self.effective_turbo()
        if turbo.enabled:
            if self.profile.base_freq_khz is None:
                raise ValueError(f"turbo requires a base frequency; {self.profile.name} has none")
            if turbo.ceiling_khz is not None and turbo.ceiling_khz > self.profile.max_freq_khz:
                raise ValueError("turbo ceiling above profile max")
            if self.governor == "interactive":
                raise ValueError("turbo is not modeled under the interactive governor")
        ia = self.effective_interactive()
        if ia.hispeed_freq_khz not in self.profile.pstates:
            raise ValueError("hispeed_freq_khz must be a profile pstate")

    def effective_interactive(self) -> InteractiveParams:
        return self.interactive or default_interactive_params(self.profile)

    def effective_turbo(self) -> TurboParams:
        turbo = self.turbo or default_turbo_params(self.profile)
        if turbo.enabled and turbo.ceiling_khz is None:
            turbo = replace(turbo, ceiling_khz=self.profile.boost_cap_khz)
        return turbo

    def effective_set_speed(self) -> int:
        if self.set_speed_khz is not None:
            return self.set_speed_khz
        if self.profile.base_freq_khz is not None:
            return self.profile.quantize(self.profile.base_freq_khz)
        mid = len(self.profile.pstates) // 2
        return self.profile.pstates[mid]


@dataclass
class GovernorState:
    governor: str
    current_freq_khz: int
    set_speed_khz: int | None = None
    pelt_load: float = 0.0
    boost_remaining_ms: int = 0
    turbo_budget: float = 1.0
    ms_since_change: int = 1 << 30  # large: first change is never rate-limited
    boost_pending: bool = False


def init_state(cfg: SimConfig) -> GovernorState:
    profile, governor = cfg.profile, cfg.governor
    if governor == "userspace":
        set_speed = cfg.effective_set_speed()
        return GovernorState(governor, profile.quantize(set_speed), set_speed)
    start = profile.max_freq_khz if governor == "performance" else profile.min_freq_khz
    return GovernorState(governor, start)


def simulate_batch(loads, tick_ms: int, cfg: SimConfig,
                   states: list[GovernorState] | None = None,
                   ) -> tuple[np.ndarray, list[GovernorState]]:
    """Run the governor over every row of a [B, T] load matrix; row r starts
    from states[r] (default: init_state(cfg)). Returns the [B, T] int64
    matrix of the frequency during each tick, and per row the state after
    the last tick.

    The memoryless part of each law is computed over the whole matrix; what
    carries over from tick to tick (PELT, the conservative walk, interactive
    boost and rate limit, the turbo bucket) is stepped one tick at a time,
    each step one numpy pass over the [B] column of every row. A step costs
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
    if any(s.governor != cfg.governor for s in states):
        raise ValueError("state/config governor mismatch")

    profile, governor = cfg.profile, cfg.governor
    lo, span = profile.min_freq_khz, profile.max_freq_khz - profile.min_freq_khz
    if governor == "performance":
        target = np.full(loads.shape, float(profile.max_freq_khz))
    elif governor == "powersave" and profile.scaling_driver != "intel_pstate":
        target = np.full(loads.shape, float(lo))
    elif governor == "userspace":
        if any(s.set_speed_khz is None for s in states):
            raise ValueError("userspace governor requires set_speed_khz")
        # real parts show small workload-coupled wiggle around the pin
        grid_step = span / (len(profile.pstates) - 1) if len(profile.pstates) > 1 else 0.0
        target = np.array([[s.set_speed_khz] for s in states]) + loads * grid_step
    elif governor == "schedutil":
        alpha = 1.0 - 2.0 ** (-tick_ms / PELT_HALF_LIFE_MS)
        pelt = np.array([s.pelt_load for s in states], dtype=np.float64)
        target = np.empty(loads.shape[::-1])
        for t, col in enumerate(loads.T):
            pelt = target[t] = alpha * col + (1.0 - alpha) * pelt
        states = [replace(s, pelt_load=p) for s, p in zip(states, pelt.tolist())]
        target = np.minimum(lo + SCHEDUTIL_MARGIN * target.T * span, float(profile.max_freq_khz))
    else:
        # ondemand; conservative and interactive walk toward it; powersave
        # on intel_pstate, whose driver schedules states itself
        target = lo + loads * span
    want = quantize_indices(profile.pstates, target)
    del target

    if governor == "interactive":
        trigger = loads >= cfg.effective_interactive().load_trigger
        return _interactive_law(want, trigger, states, cfg, tick_ms)
    if governor == "conservative" or cfg.effective_turbo().enabled:
        return _pstate_law(want, loads < TURBO_IDLE_LOAD, states, cfg)
    freqs = np.asarray(profile.pstates, dtype=np.int64)[want]
    return freqs, [replace(s, current_freq_khz=int(f)) for s, f in zip(states, freqs[:, -1])]


def _pstate_law(want: np.ndarray, idle: np.ndarray, states: list[GovernorState],
                cfg: SimConfig) -> tuple[np.ndarray, list[GovernorState]]:
    """The conservative walk (one index per tick toward `want`; other laws go
    straight to it) and the turbo bucket, one tick at a time over all rows."""
    profile, turbo = cfg.profile, cfg.effective_turbo()
    # turbo clamping can leave current off-grid; re-anchor before walking
    cur = quantize_indices(profile.pstates, [s.current_freq_khz for s in states])
    budget = np.array([s.turbo_budget for s in states], dtype=np.float64)
    capped = np.asarray(profile.pstates, dtype=np.int64)
    if turbo.enabled:
        base = profile.base_freq_khz  # not None: SimConfig enforces it under turbo
        base_q = profile.quantize(base)
        cost, gain = turbo.budget_cost_per_boost_tick, turbo.budget_gain_per_idle_tick
        capped = np.minimum(capped, turbo.ceiling_khz)
        anchor = quantize_indices(profile.pstates, capped)  # where each output re-anchors
        base_index = profile.pstate_index(base_q)
    out = np.empty(want.shape[::-1], dtype=np.int64)  # [T, B]: a tick's row is contiguous
    for t, (w, is_idle) in enumerate(zip(want.T, idle.T)):
        cur = cur + np.sign(w - cur) if cfg.governor == "conservative" else w
        freq = capped[cur]
        if turbo.enabled:
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
    ia = cfg.effective_interactive()
    pstates = np.asarray(profile.pstates, dtype=np.int64)
    hispeed = profile.pstate_index(ia.hispeed_freq_khz)
    cur = np.array([profile.pstate_index(s.current_freq_khz) for s in states], dtype=np.int64)
    remaining = np.array([s.boost_remaining_ms for s in states], dtype=np.int64)
    since = np.array([s.ms_since_change for s in states], dtype=np.int64)
    pending = np.array([s.boost_pending for s in states], dtype=bool)
    out = np.empty(want.shape[::-1], dtype=np.int64)  # [T, B]: a tick's row is contiguous
    for t, (w, fired) in enumerate(zip(want.T, trigger.T)):
        pending = pending | fired
        w = np.where(pending | (remaining > 0), np.maximum(w, hispeed), w)
        # upward moves are immediate, downward ones decay
        w = np.maximum(w, cur - INTERACTIVE_DECAY_STEPS)
        # this tick's time elapses before the change decision, so a change is
        # legal once a full min_sample_time window has passed since the last one
        since = np.minimum(since + tick_ms, 1 << 30)
        changed = (w != cur) & (since >= ia.min_sample_time_ms)
        since[changed] = 0
        cur = np.where(changed, w, cur)
        # boost countdown starts once the frequency actually reaches hispeed
        reached = pending & (cur >= hispeed)
        remaining[reached] = ia.boostpulse_duration_ms
        pending = pending ^ reached  # reached rows were pending
        remaining = np.maximum(0, remaining - tick_ms)
        out[t] = pstates[cur]
    ends = zip(states, out[-1].tolist(), remaining.tolist(), since.tolist(), pending.tolist())
    return out.T, [replace(s, current_freq_khz=f, boost_remaining_ms=r, ms_since_change=m,
                           boost_pending=p) for s, f, r, m, p in ends]


def simulate(workload: WorkloadTrace, cfg: SimConfig) -> FrequencyTrace:
    """Run the governor over a workload; output sample k is the frequency
    during workload tick k."""
    (samples,), _ = simulate_batch([workload.loads], workload.tick_ms, cfg)
    return FrequencyTrace(samples=samples, interval_ms=workload.tick_ms, device=cfg.profile.name)
