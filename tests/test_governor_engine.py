"""The batch governor engine against the scalar reference laws, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

import governor_oracle as oracle
from freqscope import governors
from freqscope.governors import (
    GOVERNORS,
    SimConfig,
    WorkloadTrace,
    init_state,
    simulate_batch,
)
from freqscope.profiles import DeviceProfile, builtin_profiles, grid_even
from freqscope.sources import SimSource
from helpers import law_constants, read_freq, simulate, traced_peak

PROFILES = sorted(builtin_profiles().values(), key=lambda p: p.name)
TICKS_MS = (10, 20, 25)


def turbo_variants(profile, governor):
    """(profile, turbo on, law constants) of each turbo variant."""
    yield profile, False, {}
    if profile.base_freq_khz is None or governor == "interactive":
        return
    yield profile, True, {}
    # off the pstate grid: clamped output must be re-anchored by conservative
    yield replace(profile, turbo_ceiling_khz=profile.boost_cap_khz - 50_000), True, {}
    # binary fractions: the budget lands exactly on the cost and on 1.0
    yield profile, True, {"TURBO_GAIN_PER_IDLE_TICK": 0.125, "TURBO_COST_PER_BOOST_TICK": 0.25}


def configs(profile, governor):
    """(config, law constants to patch) of each turbo variant."""
    # every law on every profile, supported by it or not
    profile = replace(profile, supported_governors=GOVERNORS)
    for variant, turbo, constants in turbo_variants(profile, governor):
        yield SimConfig(profile=variant, governor=governor, turbo=turbo), constants


def load_matrix(kind: str, rows: int, ticks: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(0.0, 1.0, size=(rows, ticks))
    if kind == "steps":  # 32-tick runs at one level: the conservative walk reaches both ends
        levels = rng.choice([0.0, 0.05, 0.5, 1.0], size=(rows, ticks // 32 + 1))
        return np.repeat(levels, 32, axis=1)[:, :ticks]
    # bursty: idle stretches (below the turbo idle threshold) with bursts,
    # plus the exact values the laws compare against
    loads = np.where(rng.random((rows, ticks)) < 0.25,
                     rng.uniform(0.3, 1.0, (rows, ticks)),
                     rng.uniform(0.0, 0.12, (rows, ticks)))
    special = rng.random((rows, ticks)) < 0.1
    loads[special] = rng.choice([0.0, 0.1, 0.3, 0.5, 1.0], size=int(special.sum()))
    return loads


def oracle_rows(loads, cfg, tick_ms, states=None):
    states = states or [None] * len(loads)
    results = [oracle.simulate_samples(row.tolist(), cfg, tick_ms, s)
               for row, s in zip(loads, states)]
    return [r for r, _ in results], [s for _, s in results]


@pytest.mark.parametrize("governor", GOVERNORS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_engine_matches_oracle(profile, governor):
    seed = 0
    for cfg, constants in configs(profile, governor):
        for tick_ms in TICKS_MS:
            for rows in (1, 5):
                for kind in ("random", "bursty"):
                    seed += 1
                    loads = load_matrix(kind, rows, 120, seed)
                    with law_constants(governors, **constants):
                        got, ends = simulate_batch(loads, tick_ms, cfg)
                        want, want_ends = oracle_rows(loads, cfg, tick_ms)
                    assert got.dtype == np.int64
                    assert got.tolist() == want, (cfg, constants, tick_ms, rows, kind)
                    assert ends == want_ends
                    assert all(type(s.current_freq_khz) is int for s in ends)


# (governor, index into `configs(profile, governor)`): each law with each turbo variant
VARIANTS = sorted({(governor, i) for profile in PROFILES for governor in GOVERNORS
                   for i, _ in enumerate(configs(profile, governor))})


def variant_configs(governor, variant):
    return [cfg for profile in PROFILES
            for i, cfg in enumerate(configs(profile, governor)) if i == variant]


def state_types(states):
    return [tuple(type(v) for v in vars(s).values()) for s in states]


@pytest.mark.parametrize("governor,variant", VARIANTS)
def test_engine_matches_oracle_property(governor, variant):
    """Random B, T and tick; every row starts from its own state, reached by
    a random prefix of 2-200 ticks; the interactive rate limit both binds
    and does not. The interactive law has one variant and more examples."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def runs(draw):
        cfg, constants = draw(st.sampled_from(variant_configs(governor, variant)))
        if governor == "interactive":
            cfg = replace(cfg, hispeed_freq_khz=draw(st.sampled_from(cfg.profile.pstates)))
            constants = {
                "INTERACTIVE_BOOSTPULSE_MS": draw(st.sampled_from([0, 20, 80, 130])),
                "INTERACTIVE_MIN_SAMPLE_TIME_MS": draw(st.sampled_from([0, 10, 20, 45])),
                "INTERACTIVE_LOAD_TRIGGER": draw(st.sampled_from([0.05, 0.3, 1.0])),
            }
        rows, ticks, prefix_ticks = (draw(st.integers(1, 64)), draw(st.integers(1, 40)),
                                     draw(st.integers(2, 200)))
        kind = draw(st.sampled_from(["random", "bursty", "steps"]))
        return (cfg, constants, draw(st.integers(1, 50)), kind, rows, ticks, prefix_ticks,
                draw(st.integers(0, 2**32 - 2)))

    @hypothesis.settings(max_examples=25 if governor == "interactive" else 10, deadline=None)
    @hypothesis.given(run=runs())
    def check(run):
        cfg, constants, tick_ms, kind, rows, ticks, prefix_ticks, seed = run
        loads = load_matrix(kind, rows, ticks, seed)
        prefix = load_matrix(kind, rows, prefix_ticks, seed + 1)
        # half the prefixes end on an idle tick, which may change the frequency,
        # then a full-load one: rows start mid-boost, some with it still pending
        prefix[np.random.default_rng(seed).random(rows) < 0.5, -2:] = (0.0, 1.0)
        with law_constants(governors, **constants):
            _, starts = simulate_batch(prefix, tick_ms, cfg)
            got, ends = simulate_batch(loads, tick_ms, cfg, starts)
            want, want_ends = oracle_rows(loads, cfg, tick_ms, starts)
        assert got.dtype == np.int64 and got.shape == loads.shape
        assert got.tolist() == want
        assert ends == want_ends
        # the field types of a fresh state: Python ints, floats and bools
        assert state_types(starts + ends) == state_types([init_state(cfg)] * 2 * rows)

    check()


# 300 P-states: the engine's indices need two bytes
DENSE = DeviceProfile(name="dense", base_freq_khz=1_500_000,
                      pstates=grid_even(400_000, 3_400_000, 300), default_governor="ondemand",
                      turbo_boost=True, turbo_ceiling_khz=3_000_000)


@pytest.mark.parametrize("governor", GOVERNORS)
def test_engine_matches_oracle_past_256_pstates(governor):
    assert np.min_scalar_type(len(DENSE.pstates) - 1) == np.uint16
    # one row climbs the whole table and walks back down; the others are bursty
    climb = np.repeat([[1.0, 0.0]], [320, 320], axis=1)
    loads = np.vstack([climb, load_matrix("bursty", 2, 640, 1)])
    for cfg, constants in configs(DENSE, governor):
        with law_constants(governors, **constants):
            got, ends = simulate_batch(loads, 10, cfg)
            assert (got.tolist(), ends) == oracle_rows(loads, cfg, 10), (cfg, constants)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_decay_and_walk_stop_at_index_0(profile):
    """From the top down to index 4, then from there to 0: interactive sheds
    INTERACTIVE_DECAY_STEPS indices a tick, 4 -> 1 -> 0, and conservative
    walks one. Neither goes below index 0, and both stay there."""
    profile = replace(profile, supported_governors=GOVERNORS)
    n, lo = len(profile.pstates), profile.min_freq_khz
    span = profile.max_freq_khz - lo
    levels = [1.0, (profile.pstates[4] - lo) / span, 0.0]  # ondemand targets: the top, 4, 0
    loads = np.repeat([levels], [n + 5, n + 5, 20], axis=1)
    for governor in ("interactive", "conservative"):
        cfg = SimConfig(profile=profile, governor=governor, turbo=False)
        got, ends = simulate_batch(loads, 20, cfg)
        assert (got.tolist(), ends) == oracle_rows(loads, cfg, 20)
        assert got[0, n].item() == profile.max_freq_khz
        assert got[0, 2 * n + 4].item() == profile.pstates[4]
        assert profile.pstates[1] in got[0]
        assert got[0, -10:].tolist() == [lo] * 10


@pytest.mark.parametrize("rows,ticks,block_values", [(1, 20, 7), (3, 11, 7), (10, 5, 7)])
@pytest.mark.parametrize("governor", GOVERNORS)
def test_engine_matches_oracle_across_blocks(governor, rows, ticks, block_values):
    """The engine quantizes blocks of BLOCK_VALUES // B columns, at least one:
    one row (SimSource's per-cycle call), T not a multiple of the block, and
    more rows than a block's values."""
    seed = 0
    for profile in PROFILES:
        for cfg, constants in configs(profile, governor):
            seed += 1
            loads = load_matrix("bursty", rows, ticks, seed)
            with law_constants(governors, BLOCK_VALUES=block_values, **constants):
                got, ends = simulate_batch(loads, 10, cfg)
                assert (got.tolist(), ends) == oracle_rows(loads, cfg, 10), (cfg, constants)


@pytest.mark.parametrize("governor", GOVERNORS)
def test_engine_peak_is_its_output_and_two_bytes_a_tick(governor):
    """At fingerprint's 600 x 1000, beside its int64 output the engine holds
    one byte of P-state index and at most one bool a tick; float targets
    exist a block of columns at a time. The bound is 6.7 MiB; engines that
    hold float targets and int64 indices for the whole matrix peak at
    9.9 MiB, and 13.8 MiB under schedutil."""
    loads = load_matrix("bursty", 600, 1000, 7)
    for profile in PROFILES:
        for cfg, constants in configs(profile, governor):
            with law_constants(governors, **constants):
                (out, _), peak = traced_peak(lambda: simulate_batch(loads, 10, cfg))
            assert peak < out.nbytes + 2 * loads.size + (1 << 20), (cfg, peak)


def test_conservative_walks_down_from_an_off_grid_ceiling():
    """Under a ceiling between two pstates the walk climbs past it while the
    output stays capped; each tick re-anchors it to the ceiling's nearest
    pstate, so it starts down from there as soon as the load drops."""
    for profile in PROFILES:
        if profile.base_freq_khz is None:
            continue
        ceiling = (profile.pstates[-2] + profile.pstates[-1]) // 2 - 1
        profile = replace(profile, supported_governors=GOVERNORS, turbo_ceiling_khz=ceiling)
        cfg = SimConfig(profile=profile, governor="conservative", turbo=True)
        loads = np.repeat([[1.0, 0.0, 0.5]], [len(profile.pstates) + 5, 20, 20], axis=1)
        got, ends = simulate_batch(loads, 10, cfg)
        assert (got.tolist(), ends) == oracle_rows(loads, cfg, 10)
        assert ceiling in got[0] and got[0, len(profile.pstates) + 5] < ceiling


@pytest.mark.parametrize("governor", GOVERNORS)
def test_chunked_runs_equal_one_run(governor):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cfgs = [variant for profile in PROFILES for variant in configs(profile, governor)]

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(variant=st.sampled_from(cfgs), seed=st.integers(0, 2**32 - 1),
                      splits=st.lists(st.integers(1, 89), min_size=1, max_size=4, unique=True))
    def check(variant, seed, splits):
        cfg, constants = variant
        loads = load_matrix("bursty", 5, 90, seed)
        bounds = [0, *sorted(splits), 90]
        parts, states = [], None
        with law_constants(governors, **constants):
            whole, whole_ends = simulate_batch(loads, 20, cfg)
            for lo, hi in zip(bounds, bounds[1:]):
                part, states = simulate_batch(loads[:, lo:hi], 20, cfg, states)
                parts.append(part)
                if lo == 0:
                    assert states == oracle_rows(loads[:, :hi], cfg, 20)[1]
        assert np.hstack(parts).tolist() == whole.tolist()
        assert states == whole_ends

    check()


def test_step_governor_matches_oracle():
    rng = np.random.default_rng(5)
    for profile in PROFILES:
        for governor in GOVERNORS:
            for cfg, constants in configs(profile, governor):
                state, ref = init_state(cfg), oracle.init_state(cfg)
                assert state == ref
                for load in rng.uniform(0.0, 1.0, 40).tolist():
                    before = state
                    with law_constants(governors, **constants):
                        _, (state,) = simulate_batch([[load]], 20, cfg, [state])
                        ref = oracle.step_governor(ref, load, cfg, 20)
                    assert state == ref
                    assert before is not state


def test_simulate_is_the_single_row_call():
    for profile in PROFILES:
        for cfg, constants in configs(profile, profile.default_governor):
            loads = load_matrix("random", 1, 200, 3)
            with law_constants(governors, **constants):
                trace = simulate(WorkloadTrace(loads=tuple(loads[0].tolist()), tick_ms=10), cfg)
                assert trace.samples.tolist() == oracle_rows(loads, cfg, 10)[0][0]


def test_engine_rejects_bad_input():
    cfg = SimConfig(profile=PROFILES[0], governor="performance")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        simulate_batch([[0.5, float("nan")]], 10, cfg)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        simulate_batch([[0.5], [-0.1]], 10, cfg)
    with pytest.raises(ValueError, match="matrix"):
        simulate_batch([0.5, 0.5], 10, cfg)
    with pytest.raises(ValueError, match="start states"):
        simulate_batch([[0.5], [0.5]], 10, cfg, [init_state(cfg)])


class OracleSource:
    """The SimSource stepping rule, one oracle tick per workload tick."""

    def __init__(self, cfg, workload):
        self.cfg, self.workload = cfg, workload
        self.state = oracle.init_state(cfg)
        self.cursor = self.carry = 0

    def read_freq(self):
        return self.state.current_freq_khz

    def advance(self, dt_ms):
        self.carry += dt_ms
        ticks, self.carry = divmod(self.carry, self.workload.tick_ms)
        for _ in range(ticks):
            load = self.workload.loads[self.cursor % len(self.workload.loads)]
            self.state = oracle.step_governor(self.state, load, self.cfg, self.workload.tick_ms)
            self.cursor += 1


@pytest.mark.parametrize("profile_name,governor", [
    ("cortex_a73", "interactive"),
    ("ryzen5", "conservative"),
    ("ryzen5", "schedutil"),
    ("comet_lake", "powersave"),
])
def test_sim_source_matches_oracle_stepping(profile_name, governor):
    profile = builtin_profiles()[profile_name]
    cfg = SimConfig(profile=profile, governor=governor)
    loads = load_matrix("bursty", 1, 7, 11)[0]  # short: reads wrap many times
    workload = WorkloadTrace(loads=tuple(loads.tolist()), tick_ms=10)
    src, ref = SimSource(cfg, workload), OracleSource(cfg, workload)
    # 15 ms reads over 10 ms ticks, then jumps across several cycles
    steps = [15] * 40 + [0, 5, 70, 3, 1000, 7, 15, 15]
    for dt in steps:
        assert read_freq(src) == ref.read_freq()
        src.advance(dt)
        ref.advance(dt)
    assert read_freq(src) == ref.read_freq()
