"""Frequency-source backends: simulation, replay, sysfs, and the masked policy."""

import os

import numpy as np
import pytest

from freqscope.governors import SimConfig, TurboParams, WorkloadTrace, simulate_batch
from freqscope.profiles import get_profile
from freqscope.sampler import CollectPlan, collect
from freqscope.sources import (
    ENV_SYSFS_ROOT,
    POLICY_MASKED,
    AccessDeniedError,
    FreqSource,
    ReplayExhaustedError,
    SimSource,
    SysfsReadError,
    SysfsSource,
    ReplaySource,
)
from freqscope.trace import FrequencyTrace

RYZEN = get_profile("ryzen5")


def sim_source(**kw):
    cfg = SimConfig(profile=RYZEN, governor="ondemand", turbo=TurboParams(enabled=False))
    wl = WorkloadTrace(loads=(0.0, 1.0), tick_ms=10)
    return SimSource(cfg, wl, **kw)


def test_sim_source_steps_workload():
    src = sim_source()
    first = src.read_freq()
    assert first == RYZEN.min_freq_khz  # initial state, before any tick
    src.advance(10)  # consumes load 0.0
    assert src.read_freq() == RYZEN.min_freq_khz
    src.advance(10)  # consumes load 1.0
    assert src.read_freq() == RYZEN.max_freq_khz


def test_sim_source_carries_partial_intervals():
    src = sim_source()
    src.advance(10)
    src.advance(5)  # half a tick pending
    before = src.read_freq()
    src.advance(5)  # completes the 1.0 tick
    assert before == RYZEN.min_freq_khz
    assert src.read_freq() == RYZEN.max_freq_khz


def test_sim_source_cycles_workload():
    src = sim_source()
    src.advance(10 * 2 * 50)  # 50 full cycles of the 2-tick workload
    assert src.read_freq() in RYZEN.pstates


def test_sim_source_device_name():
    assert sim_source().device == "ryzen5"


def replay_trace():
    return FrequencyTrace(samples=[1_400_000, 2_000_000, 2_600_000],
                          interval_ms=10, device="ryzen5", label="x")


def test_replay_plays_back_samples():
    src = ReplaySource(replay_trace())
    got = []
    for _ in range(3):
        got.append(src.read_freq())
        src.advance(10)
    assert got == [1_400_000, 2_000_000, 2_600_000]


def test_replay_exhaustion_raises_on_read():
    src = ReplaySource(replay_trace())
    src.advance(30)
    with pytest.raises(ReplayExhaustedError):
        src.read_freq()


def test_replay_advance_saturates():
    src = ReplaySource(replay_trace())
    src.advance(10_000)  # far past the end: no error until a read happens
    with pytest.raises(ReplayExhaustedError):
        src.read_freq()


def test_replay_sub_interval_advance_accumulates():
    src = ReplaySource(replay_trace())
    src.advance(5)
    assert src.read_freq() == 1_400_000
    src.advance(5)
    assert src.read_freq() == 2_000_000


def test_masked_policy_denies_reads():
    src = sim_source(policy=POLICY_MASKED)
    with pytest.raises(AccessDeniedError):
        src.read_freq()
    # advancing is fine; only reads are gated
    src.advance(10)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        sim_source(policy="partial")


def test_negative_advance_rejected():
    with pytest.raises(ValueError):
        sim_source().advance(-1)


def write_sysfs_fixture(root, value="2300000\n", policy_index=0):
    d = os.path.join(root, "cpufreq", f"policy{policy_index}")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "scaling_cur_freq"), "w") as fh:
        fh.write(value)


def test_sysfs_reads_fixture_via_explicit_root(tmp_path):
    write_sysfs_fixture(str(tmp_path))
    src = SysfsSource(root=str(tmp_path))
    assert src.read_freq() == 2_300_000


def test_sysfs_env_var_root(tmp_path, monkeypatch):
    write_sysfs_fixture(str(tmp_path), value="1800000\n", policy_index=2)
    monkeypatch.setenv(ENV_SYSFS_ROOT, str(tmp_path))
    src = SysfsSource(policy_index=2)
    assert src.read_freq() == 1_800_000
    assert src.device == "sysfs-policy2"


def test_sysfs_missing_file(tmp_path):
    src = SysfsSource(root=str(tmp_path))
    with pytest.raises(SysfsReadError, match="cannot read"):
        src.read_freq()


def test_sysfs_garbage_content(tmp_path):
    write_sysfs_fixture(str(tmp_path), value="not-a-number\n")
    src = SysfsSource(root=str(tmp_path))
    with pytest.raises(SysfsReadError, match="non-integer"):
        src.read_freq()


@pytest.mark.parametrize("value", ["-5", "-0", "0", "9223372036854775807", "9223372036854775808"])
def test_sysfs_reading_range(tmp_path, value):
    write_sysfs_fixture(str(tmp_path), value=value + "\n")
    src = SysfsSource(root=str(tmp_path))
    if 0 <= int(value) < 2**63:
        assert src.read_freq() == int(value)
    else:
        with pytest.raises(SysfsReadError, match=r"outside \[0, 2\*\*63\)"):
            src.read_freq()


def test_sysfs_masked_policy(tmp_path):
    write_sysfs_fixture(str(tmp_path))
    src = SysfsSource(root=str(tmp_path), policy=POLICY_MASKED)
    with pytest.raises(AccessDeniedError):
        src.read_freq()


def loop_series(src, n, interval_ms):
    """The per-read loop that read_series replaces."""
    out = []
    for _ in range(n):
        out.append(src.read_freq())
        src.advance(interval_ms)
    return out


class LoopSimSource(SimSource):
    """SimSource stepped as before read_series: a base-class loop of reads
    and advances, each advance simulating the cycles its ticks enter."""

    _read_series = FreqSource._read_series

    def _advance(self, dt_ms):
        self._carry_ms += dt_ms
        ticks, self._carry_ms = divmod(self._carry_ms, self.workload.tick_ms)
        n = len(self.workload.loads)
        for _ in range((self._cursor + ticks - 1) // n - (self._cursor - 1) // n):
            (self._cycle,), (self._state,) = simulate_batch(
                [self.workload.loads], self.workload.tick_ms, self.cfg, [self._state])
        self._cursor += ticks


def sim_pair(tick_ms, n_loads, seed, governor="interactive"):
    cfg = SimConfig(profile=get_profile("cortex_a73"), governor=governor)
    loads = np.random.default_rng(seed).random(n_loads)
    wl = WorkloadTrace(loads=tuple(loads.tolist()), tick_ms=tick_ms)
    return SimSource(cfg, wl), LoopSimSource(cfg, wl)


def assert_same_sim_state(src, ref):
    assert (src._cursor, src._carry_ms, src._state) == (ref._cursor, ref._carry_ms, ref._state)
    assert src._cycle.tolist() == ref._cycle.tolist()


@pytest.mark.parametrize("case", range(60))
def test_sim_read_series_matches_read_loop(case):
    """Random sessions: short workloads wrap often, intervals off the tick
    grid and of 0, series spanning several cycles, sleeps in between."""
    rng = np.random.default_rng(case)
    src, ref = sim_pair(int(rng.choice([10, 20, 25])), int(rng.integers(1, 12)), case,
                        governor=str(rng.choice(["interactive", "ondemand", "conservative"])))
    for _ in range(5):
        n, interval = int(rng.integers(0, 40)), int(rng.integers(0, 50))
        got = src.read_series(n, interval)
        assert got.dtype == np.int64
        assert got.tolist() == loop_series(ref, n, interval)
        assert_same_sim_state(src, ref)
        sleep = int(rng.integers(0, 120))
        src.advance(sleep)
        ref.advance(sleep)
    assert src.read_freq() == ref.read_freq()


@pytest.mark.parametrize("n,interval", [
    (1, 0),  # a first read before any tick, and no advance
    (3, 0),
    (4, 7),  # the first reads see the initial state, off the tick grid
    (30, 10),  # wraps the 4-tick workload several times
    (2, 1000),  # each advance crosses many cycles, the last one too
])
def test_sim_read_series_edges(n, interval):
    src, ref = sim_pair(10, 4, 1)
    assert src.read_series(n, interval).tolist() == loop_series(ref, n, interval)
    assert_same_sim_state(src, ref)


def test_read_series_of_no_reads_leaves_source_alone():
    src, ref = sim_pair(10, 3, 2)
    src.advance(15)
    ref.advance(15)
    assert src.read_series(0, 10).tolist() == []
    assert_same_sim_state(src, ref)


def test_read_series_masked_fails_on_first_read():
    src = sim_source(policy=POLICY_MASKED)
    with pytest.raises(AccessDeniedError):
        src.read_series(5, 10)
    assert src._cursor == 0
    with pytest.raises(ValueError):
        sim_source().read_series(3, -1)


@pytest.mark.parametrize("interval", [0, 3, 10, 15, 25, 30])  # 30: the last advance saturates
def test_replay_read_series_matches_read_loop(interval):
    trace = FrequencyTrace(samples=list(range(1_000_000, 1_000_040)), interval_ms=10,
                           device="ryzen5", label="x")
    src, ref = ReplaySource(trace), ReplaySource(trace)
    src.advance(4)
    ref.advance(4)
    n = (400 - 4 - 1) // interval + 1 if interval else 12  # the last read is in range
    assert src.read_series(n, interval).tolist() == loop_series(ref, n, interval)
    assert (src._cursor, src._carry_ms) == (ref._cursor, ref._carry_ms)


@pytest.mark.parametrize("interval", [3, 10, 25])
def test_replay_read_series_exhausts_at_the_same_sample(interval):
    trace = FrequencyTrace(samples=list(range(1_000_000, 1_000_040)), interval_ms=10,
                           device="ryzen5", label="x")
    src, ref = ReplaySource(trace), ReplaySource(trace)
    src.advance(4)
    ref.advance(4)
    with pytest.raises(ReplayExhaustedError) as want:
        loop_series(ref, 1000, interval)
    with pytest.raises(ReplayExhaustedError) as got:
        src.read_series(1000, interval)
    assert str(got.value) == str(want.value) == "replay of 40 samples exhausted"
    assert (src._cursor, src._carry_ms) == (ref._cursor, ref._carry_ms)


def test_collect_with_mid_plan_hook_failure_matches_read_loop(tmp_path):
    """The second of four measurements loses its pre hook; both sources see
    the same reads, skipped measurement and final state."""
    counter = tmp_path / "calls"
    hook = (f'n=$(cat "{counter}" 2>/dev/null || echo 0); n=$((n + 1)); '
            f'echo $n > "{counter}"; [ $((n % 4)) -ne 2 ]')
    cfg = SimConfig(profile=get_profile("cortex_a73"), governor="interactive")
    wl = WorkloadTrace(loads=tuple(np.random.default_rng(3).random(17).tolist()), tick_ms=10)
    plan = CollectPlan(interval_ms=15, samples_per_measurement=20, measurements=4,
                       label="x", pre_hook=hook, inter_measurement_sleep_ms=35)
    src, ref = SimSource(cfg, wl), LoopSimSource(cfg, wl)
    got, want = collect(plan, src), collect(plan, ref)
    assert len(got) == len(want) == 3
    assert [t.samples.tolist() for t in got] == [t.samples.tolist() for t in want]
    assert_same_sim_state(src, ref)
