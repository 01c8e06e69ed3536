"""Reference scalar governor laws: one tick at a time, one trace at a time.

This is the per-tick implementation the batch engine in
`freqscope.governors` replaced, kept as the oracle the engine is compared
against bit for bit. It is deliberately slow and simple: every
tick copies the state and applies the law. The law constants are read
from `freqscope.governors` at every tick, so a test that patches one there
changes it for the engine and the oracle alike.
"""

from __future__ import annotations

from freqscope import governors as laws
from freqscope.governors import GovernorState, SimConfig
from freqscope.profiles import DeviceProfile


def init_state(cfg: SimConfig) -> GovernorState:
    profile = cfg.profile
    governor = cfg.governor
    if governor == "performance":
        start = profile.max_freq_khz
    elif governor == "userspace":
        start = profile.quantize(cfg.set_speed_khz)
    else:
        start = profile.min_freq_khz
    return GovernorState(current_freq_khz=start)


def _ondemand_target(profile: DeviceProfile, load: float) -> float:
    return profile.min_freq_khz + load * (profile.max_freq_khz - profile.min_freq_khz)


def _pelt_alpha(tick_ms: int) -> float:
    return 1.0 - 2.0 ** (-tick_ms / laws.PELT_HALF_LIFE_MS)


def step_governor(state: GovernorState, load: float, cfg: SimConfig, tick_ms: int = 10) -> GovernorState:
    """Advance one tick; returns the next state, input state untouched."""
    if not 0.0 <= load <= 1.0:
        raise ValueError(f"load {load} outside [0, 1]")

    profile = cfg.profile
    governor = cfg.governor
    nxt = replace_state(state)

    if governor == "interactive":
        _step_interactive(nxt, load, cfg, tick_ms)
        return nxt

    if governor == "performance":
        target = float(profile.max_freq_khz)
    elif governor == "powersave":
        if profile.scaling_driver == "intel_pstate":
            # the driver schedules states itself; approximate with ondemand
            target = _ondemand_target(profile, load)
        else:
            target = float(profile.min_freq_khz)
    elif governor == "userspace":
        # real parts show small workload-coupled wiggle around the pin
        target = cfg.set_speed_khz + load * _grid_step(profile)
    elif governor == "ondemand":
        target = _ondemand_target(profile, load)
    elif governor == "conservative":
        desired = profile.quantize(_ondemand_target(profile, load))
        # turbo clamping can leave current off-grid; re-anchor before walking
        cur_idx = profile.pstate_index(profile.quantize(nxt.current_freq_khz))
        want_idx = profile.pstate_index(desired)
        step = 0 if want_idx == cur_idx else (1 if want_idx > cur_idx else -1)
        nxt.current_freq_khz = profile.pstates[cur_idx + step]
        _apply_turbo(nxt, load, cfg, tick_ms)
        return nxt
    elif governor == "schedutil":
        alpha = _pelt_alpha(tick_ms)
        nxt.pelt_load = alpha * load + (1.0 - alpha) * nxt.pelt_load
        span = profile.max_freq_khz - profile.min_freq_khz
        target = profile.min_freq_khz + laws.SCHEDUTIL_MARGIN * nxt.pelt_load * span
        target = min(target, float(profile.max_freq_khz))
    else:
        raise ValueError(f"unknown governor {governor!r}")

    nxt.current_freq_khz = profile.quantize(target)
    _apply_turbo(nxt, load, cfg, tick_ms)
    return nxt


def replace_state(state: GovernorState) -> GovernorState:
    return GovernorState(
        current_freq_khz=state.current_freq_khz,
        pelt_load=state.pelt_load,
        boost_remaining_ms=state.boost_remaining_ms,
        turbo_budget=state.turbo_budget,
        ms_since_change=state.ms_since_change,
        boost_pending=state.boost_pending,
    )


def _grid_step(profile: DeviceProfile) -> float:
    span = profile.max_freq_khz - profile.min_freq_khz
    return span / (len(profile.pstates) - 1) if len(profile.pstates) > 1 else 0.0


def _apply_turbo(state: GovernorState, load: float, cfg: SimConfig, tick_ms: int) -> None:
    if not cfg.turbo:
        return
    profile = cfg.profile
    base = profile.base_freq_khz
    assert base is not None  # enforced by SimConfig
    freq = min(state.current_freq_khz, profile.boost_cap_khz)
    if freq > base:
        if state.turbo_budget > laws.TURBO_COST_PER_BOOST_TICK:
            state.turbo_budget = max(0.0, state.turbo_budget - laws.TURBO_COST_PER_BOOST_TICK)
        else:
            freq = profile.quantize(base)
    state.current_freq_khz = freq
    if load < laws.TURBO_IDLE_LOAD:
        state.turbo_budget = min(1.0, state.turbo_budget + laws.TURBO_GAIN_PER_IDLE_TICK)


def _step_interactive(state: GovernorState, load: float, cfg: SimConfig, tick_ms: int) -> None:
    profile = cfg.profile

    if load >= laws.INTERACTIVE_LOAD_TRIGGER:
        state.boost_pending = True

    desired = profile.quantize(_ondemand_target(profile, load))
    if state.boost_pending or state.boost_remaining_ms > 0:
        desired = max(desired, cfg.hispeed_freq_khz)

    cur_idx = profile.pstate_index(state.current_freq_khz)
    want_idx = profile.pstate_index(desired)
    if want_idx > cur_idx:
        next_idx = want_idx  # upward moves are immediate
    elif want_idx < cur_idx:
        next_idx = max(want_idx, cur_idx - laws.INTERACTIVE_DECAY_STEPS)
    else:
        next_idx = cur_idx
    next_freq = profile.pstates[next_idx]

    # this tick's time elapses before the change decision, so a change is
    # legal once a full min_sample_time window has passed since the last one
    state.ms_since_change = min(state.ms_since_change + tick_ms, 1 << 30)
    rate_limited = state.ms_since_change < laws.INTERACTIVE_MIN_SAMPLE_TIME_MS
    if next_freq != state.current_freq_khz and rate_limited:
        next_freq = state.current_freq_khz  # rate limited, retry next tick

    if next_freq != state.current_freq_khz:
        state.ms_since_change = 0
    state.current_freq_khz = next_freq

    # boost countdown starts once the frequency actually reaches hispeed
    if state.boost_pending and state.current_freq_khz >= cfg.hispeed_freq_khz:
        state.boost_remaining_ms = laws.INTERACTIVE_BOOSTPULSE_MS
        state.boost_pending = False
    state.boost_remaining_ms = max(0, state.boost_remaining_ms - tick_ms)


def simulate_samples(loads, cfg: SimConfig, tick_ms: int, state: GovernorState | None = None):
    """Step `loads` from `state` (default: the initial state); returns the
    per-tick frequencies and the final state."""
    state = init_state(cfg) if state is None else state
    samples = []
    for load in loads:
        state = step_governor(state, load, cfg, tick_ms)
        samples.append(state.current_freq_khz)
    return samples, state
