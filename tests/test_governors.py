"""Governor update laws: hand-computed oracles plus seeded property loops."""

import numpy as np
import pytest

from freqscope.governors import (
    InteractiveParams,
    SimConfig,
    TurboParams,
    WorkloadTrace,
    default_interactive_params,
    init_state,
    simulate,
    simulate_batch,
)
from freqscope.profiles import get_profile

RYZEN = get_profile("ryzen5")
CORTEX = get_profile("cortex_a73")
COMET = get_profile("comet_lake")

NO_TURBO = TurboParams(enabled=False)


def step_governor(state, load, cfg, tick_ms=10):
    """One tick through the batch engine: the state after it."""
    _, (nxt,) = simulate_batch([[load]], tick_ms, cfg, [state])
    return nxt


def cfg_for(profile, governor, **kw):
    kw.setdefault("turbo", NO_TURBO)
    return SimConfig(profile=profile, governor=governor, **kw)


def run(cfg, loads, tick_ms=10):
    return simulate(WorkloadTrace(loads=tuple(loads), tick_ms=tick_ms), cfg).samples.tolist()


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadTrace(loads=(), tick_ms=10)
    with pytest.raises(ValueError):
        WorkloadTrace(loads=(0.5, 1.2), tick_ms=10)
    with pytest.raises(ValueError):
        WorkloadTrace(loads=(0.5,), tick_ms=0)
    with pytest.raises(ValueError, match="1-d"):
        WorkloadTrace(loads=[[0.5, 0.5]], tick_ms=10)


@pytest.mark.parametrize("load", [float("nan"), -1e-9, 1.0 + 1e-9, float("inf")])
def test_workload_rejects_loads_outside_unit_range(load):
    with pytest.raises(ValueError, match="lie in"):
        WorkloadTrace(loads=(0.5, load, 0.5), tick_ms=10)


def test_unknown_and_unsupported_governor():
    with pytest.raises(ValueError):
        SimConfig(profile=RYZEN, governor="warp")
    with pytest.raises(ValueError, match="not supported"):
        SimConfig(profile=RYZEN, governor="interactive")


def test_performance_pins_max():
    samples = run(cfg_for(RYZEN, "performance"), [0.0, 0.3, 1.0, 0.0])
    assert samples == [4_060_000] * 4


def test_powersave_pins_min_on_acpi():
    samples = run(cfg_for(RYZEN, "powersave"), [0.0, 0.5, 1.0])
    assert samples == [1_400_000] * 3


def test_powersave_follows_load_on_intel_pstate():
    # intel_pstate schedules internally; modeled as the ondemand law.
    # load 0.5 on comet_lake: 400000 + 0.5*4500000 = 2650000, exact midpoint
    # of the 2.6/2.7 GHz states, ties resolve upward.
    samples = run(cfg_for(COMET, "powersave"), [0.5])
    assert samples == [2_700_000]


def test_ondemand_bounds():
    assert run(cfg_for(RYZEN, "ondemand"), [0.0] * 5) == [1_400_000] * 5
    assert run(cfg_for(RYZEN, "ondemand"), [1.0] * 5) == [4_060_000] * 5


def test_ondemand_half_load_oracle():
    # 1400000 + 0.5*(4060000-1400000) = 2730000 -> nearest grid 2700000
    assert run(cfg_for(RYZEN, "ondemand"), [0.5]) == [2_700_000]


def test_ondemand_is_memoryless_and_monotone():
    cfg = cfg_for(RYZEN, "ondemand")
    rng = np.random.default_rng(42)
    for _ in range(50):
        lo = rng.uniform(0, 1, 30)
        hi = np.clip(lo + rng.uniform(0, 1 - 0, 30) * (1 - lo), 0, 1)
        out_lo = run(cfg, lo.tolist())
        out_hi = run(cfg, hi.tolist())
        assert all(a <= b for a, b in zip(out_lo, out_hi))


def test_userspace_requires_or_defaults_set_speed():
    cfg = cfg_for(RYZEN, "userspace", set_speed_khz=2_200_000)
    assert run(cfg, [0.0]) == [2_200_000]
    # defaults to the quantized base frequency when unset
    cfg_default = cfg_for(RYZEN, "userspace")
    assert run(cfg_default, [0.0]) == [RYZEN.quantize(1_700_000)]


def test_userspace_wiggles_at_most_one_step():
    cfg = cfg_for(RYZEN, "userspace", set_speed_khz=2_200_000)
    # load 1.0 adds one grid step (2660000/27 = 98518.5) -> 2298519 -> 2300000
    assert run(cfg, [1.0]) == [2_300_000]
    rng = np.random.default_rng(3)
    samples = run(cfg, rng.uniform(0, 1, 200).tolist())
    assert set(samples) <= {2_200_000, 2_300_000}


def test_conservative_walks_one_state_per_tick():
    cfg = cfg_for(RYZEN, "conservative")
    samples = run(cfg, [1.0] * 30)
    assert samples[:3] == [1_500_000, 1_600_000, 1_700_000]
    # 27 steps from min to max on the 28-state grid
    assert samples[26] == 4_060_000
    idx = [RYZEN.pstate_index(s) for s in samples]
    assert all(abs(b - a) <= 1 for a, b in zip(idx, idx[1:]))


def test_conservative_descends_toward_target():
    cfg = cfg_for(RYZEN, "conservative")
    samples = run(cfg, [1.0] * 27 + [0.0] * 27)
    assert samples[26] == 4_060_000
    assert samples[-1] == 1_400_000
    idx = [RYZEN.pstate_index(s) for s in samples]
    assert all(abs(b - a) <= 1 for a, b in zip(idx, idx[1:]))


def test_schedutil_pelt_oracle():
    cfg = cfg_for(RYZEN, "schedutil")
    tick = 10
    loads = [1.0, 1.0, 0.5, 0.0, 0.25, 1.0, 0.0, 0.0]
    # independent recomputation of the EWMA + margin law
    alpha = 1.0 - 2.0 ** (-tick / 32)
    pelt = 0.0
    expect = []
    for load in loads:
        pelt = alpha * load + (1 - alpha) * pelt
        raw = 1_400_000 + 1.25 * pelt * (4_060_000 - 1_400_000)
        expect.append(RYZEN.quantize(min(raw, 4_060_000.0)))
    assert run(cfg, loads, tick_ms=tick) == expect


def test_schedutil_saturates_under_full_load():
    cfg = cfg_for(RYZEN, "schedutil")
    samples = run(cfg, [1.0] * 200)
    assert samples[-1] == 4_060_000


def test_interactive_spike_holds_hispeed_for_80ms():
    cfg = SimConfig(profile=CORTEX, governor="interactive")
    hispeed = default_interactive_params(CORTEX).hispeed_freq_khz
    assert hispeed == 1_230_091  # quantized 1.2 GHz
    loads = [0.0] * 30
    loads[5] = 0.9  # single trigger tick
    samples = run(cfg, loads, tick_ms=20)
    # >= hispeed for the 80 ms window starting at the trigger
    assert all(s >= hispeed for s in samples[5:9])
    # after the window it decays to min (3 states per 20 ms tick)
    assert samples[12:] == [CORTEX.min_freq_khz] * len(samples[12:])


def test_interactive_subtrigger_load_does_not_boost():
    cfg = SimConfig(profile=CORTEX, governor="interactive")
    samples = run(cfg, [0.2] * 20, tick_ms=20)
    # ondemand target for 0.2 is below hispeed; no boost may fire
    assert max(samples) < 1_230_091


def test_interactive_decay_is_limited_to_three_states():
    cfg = SimConfig(profile=CORTEX, governor="interactive")
    loads = [0.0] * 40
    loads[5] = 0.9
    samples = run(cfg, loads, tick_ms=20)
    idx = [CORTEX.pstate_index(s) for s in samples]
    drops = [a - b for a, b in zip(idx, idx[1:])]
    assert max(drops) <= 3


def test_interactive_rate_limit_spacing():
    ia = InteractiveParams(hispeed_freq_khz=1_230_091, min_sample_time_ms=40)
    cfg = SimConfig(profile=CORTEX, governor="interactive", interactive=ia)
    rng = np.random.default_rng(11)
    samples = run(cfg, rng.uniform(0, 1, 120).tolist(), tick_ms=20)
    changes = [i for i in range(1, len(samples)) if samples[i] != samples[i - 1]]
    gaps = [b - a for a, b in zip(changes, changes[1:])]
    assert gaps and min(gaps) >= 2  # 40 ms = 2 ticks between changes


def test_interactive_hispeed_must_be_pstate():
    with pytest.raises(ValueError, match="pstate"):
        SimConfig(
            profile=CORTEX,
            governor="interactive",
            interactive=InteractiveParams(hispeed_freq_khz=1_200_000),
        )


def test_turbo_forbidden_with_interactive():
    with pytest.raises(ValueError, match="turbo"):
        SimConfig(
            profile=CORTEX,
            governor="interactive",
            turbo=TurboParams(enabled=True, ceiling_khz=2_361_000),
        )


def test_turbo_budget_drains_then_clamps_to_base():
    cfg = SimConfig(profile=RYZEN, governor="ondemand",
                    turbo=TurboParams(enabled=True, ceiling_khz=4_060_000))
    samples = run(cfg, [1.0] * 120)
    assert samples[0] == 4_060_000
    boost_run = 0
    while samples[boost_run] == 4_060_000:
        boost_run += 1
    # 1.0 budget at 0.02 per boosted tick
    assert 45 <= boost_run <= 55
    assert set(samples[boost_run:]) == {1_700_000}


def test_turbo_budget_regains_when_idle():
    cfg = SimConfig(profile=RYZEN, governor="ondemand",
                    turbo=TurboParams(enabled=True, ceiling_khz=4_060_000))
    loads = [1.0] * 60 + [0.0] * 30 + [1.0] * 10
    samples = run(cfg, loads)
    assert samples[59] == 1_700_000  # drained
    assert samples[90] == 4_060_000  # idle restored enough budget to boost


def test_turbo_ceiling_caps_law_target():
    cfg = SimConfig(profile=COMET, governor="powersave",
                    turbo=TurboParams(enabled=True, ceiling_khz=3_600_000))
    samples = run(cfg, [1.0] * 10)
    assert max(samples) == 3_600_000


def test_turbo_ceiling_validation():
    with pytest.raises(ValueError):
        SimConfig(profile=RYZEN, governor="ondemand",
                  turbo=TurboParams(enabled=True, ceiling_khz=5_000_000))


def test_state_mismatch_rejected():
    cfg = cfg_for(RYZEN, "ondemand")
    state = init_state(cfg_for(RYZEN, "performance"))
    with pytest.raises(ValueError, match="governor mismatch"):
        simulate_batch([[0.5]], 10, cfg, [state])


def test_load_out_of_range_rejected():
    cfg = cfg_for(RYZEN, "ondemand")
    with pytest.raises(ValueError):
        simulate_batch([[1.5]], 10, cfg, [init_state(cfg)])


def test_simulate_shape_and_metadata():
    cfg = cfg_for(RYZEN, "ondemand")
    trace = simulate(WorkloadTrace(loads=(0.1, 0.2, 0.3), tick_ms=25), cfg)
    assert len(trace) == 3
    assert trace.interval_ms == 25
    assert trace.device == "ryzen5"


def test_simulate_deterministic():
    rng = np.random.default_rng(9)
    loads = tuple(rng.uniform(0, 1, 100).tolist())
    for governor in ("ondemand", "conservative", "schedutil", "powersave"):
        cfg = cfg_for(RYZEN, governor)
        a = simulate(WorkloadTrace(loads=loads, tick_ms=10), cfg)
        b = simulate(WorkloadTrace(loads=loads, tick_ms=10), cfg)
        assert a.samples.tolist() == b.samples.tolist()


def _all_governor_configs():
    for profile in (RYZEN, CORTEX, COMET):
        for governor in profile.supported_governors:
            yield cfg_for(profile, governor)
    # turbo overlays
    yield SimConfig(profile=RYZEN, governor="ondemand",
                    turbo=TurboParams(enabled=True, ceiling_khz=4_060_000))
    yield SimConfig(profile=COMET, governor="powersave",
                    turbo=TurboParams(enabled=True, ceiling_khz=3_600_000))


def test_property_samples_on_grid_and_bounded():
    # spec-level invariants: samples are pstates, bounded by min/ceiling
    rng = np.random.default_rng(1234)
    for cfg in _all_governor_configs():
        profile = cfg.profile
        cap = cfg.effective_turbo().ceiling_khz if cfg.effective_turbo().enabled \
            else profile.max_freq_khz
        for _ in range(5):
            loads = rng.uniform(0, 1, 80).tolist()
            tick = 20 if cfg.governor == "interactive" else 10
            for s in run(cfg, loads, tick_ms=tick):
                assert s in profile.pstates
                assert profile.min_freq_khz <= s <= cap


def test_property_turbo_budget_stays_in_unit_interval():
    cfg = SimConfig(profile=RYZEN, governor="ondemand",
                    turbo=TurboParams(enabled=True, ceiling_khz=4_060_000))
    state = init_state(cfg)
    rng = np.random.default_rng(77)
    for _ in range(2000):
        state = step_governor(state, float(rng.uniform(0, 1)), cfg, 10)
        assert 0.0 <= state.turbo_budget <= 1.0


def test_property_interactive_boost_bounded():
    cfg = SimConfig(profile=CORTEX, governor="interactive")
    ia = cfg.effective_interactive()
    state = init_state(cfg)
    rng = np.random.default_rng(78)
    for _ in range(2000):
        state = step_governor(state, float(rng.uniform(0, 1)), cfg, 20)
        assert 0 <= state.boost_remaining_ms <= ia.boostpulse_duration_ms
