"""Frequency-source backends: simulation, replay, sysfs, and the masked policy."""

import os

import pytest

from freqscope.governors import SimConfig, TurboParams, WorkloadTrace
from freqscope.profiles import get_profile
from freqscope.sources import (
    ENV_SYSFS_ROOT,
    POLICY_MASKED,
    AccessDeniedError,
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
