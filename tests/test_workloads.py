"""Synthetic load generators feeding the governor simulator."""

import numpy as np
import pytest

from freqscope.governors import SimConfig, WorkloadTrace
from freqscope.profiles import get_profile
from freqscope.workloads import (
    IDLE_LOAD_MAX,
    KEYSTROKE_LOADS,
    keystroke_workload,
    noise_workload,
    website_workload,
)
from helpers import simulate

CORTEX = get_profile("cortex_a73")


def test_loads_stay_in_unit_interval():
    for wl in (
        website_workload("site-03", 500, seed=1),
        keystroke_workload([100, 900], 60, seed=2),
        keystroke_workload([], 300, tick_ms=10, seed=3),
        noise_workload(300, seed=4),
    ):
        assert all(0.0 <= x <= 1.0 for x in wl.loads)


def test_loads_are_a_read_only_float64_array_the_workload_owns():
    given = np.array([0.25, 0.5, 1.0])
    wl = WorkloadTrace(loads=given, tick_ms=10)
    given[0] = 0.75
    assert wl.loads.dtype == np.float64 and wl.loads.tolist() == [0.25, 0.5, 1.0]
    with pytest.raises(ValueError, match="read-only"):
        wl.loads[0] = 0.0
    assert wl == WorkloadTrace(loads=(0.25, 0.5, 1), tick_ms=10)
    assert wl != WorkloadTrace(loads=(0.25, 0.5, 1.0), tick_ms=20)
    assert wl != WorkloadTrace(loads=(0.25, 0.5), tick_ms=10)
    for made in (website_workload("site-03", 50, seed=1), keystroke_workload([100], 60, seed=2),
                 keystroke_workload([], 30, tick_ms=10, seed=3), noise_workload(30, seed=4)):
        assert isinstance(made.loads, np.ndarray) and made.loads.dtype == np.float64
        assert made.loads.ndim == 1 and not made.loads.flags.writeable


def test_website_skeleton_shared_across_seeds():
    a = website_workload("site-07", 400, seed=10, jitter=0.0)
    b = website_workload("site-07", 400, seed=99, jitter=0.0)
    assert np.array_equal(a.loads, b.loads)  # class alone fixes the burst pattern
    c = website_workload("site-08", 400, seed=10, jitter=0.0)
    assert not np.array_equal(c.loads, a.loads)


def test_website_jitter_differs_by_seed():
    a = website_workload("site-07", 400, seed=10)
    b = website_workload("site-07", 400, seed=99)
    assert not np.array_equal(a.loads, b.loads)
    # jitter is small: same skeleton, deviations bounded by a few sigma
    diff = np.abs(a.loads - b.loads)
    assert diff.max() < 0.5


def test_website_deterministic():
    a = website_workload("site-01", 300, seed=5)
    b = website_workload("site-01", 300, seed=5)
    assert np.array_equal(a.loads, b.loads)


def test_keystroke_pulses_at_press_times():
    wl = keystroke_workload([1000, 2000], 200, tick_ms=20, seed=6)
    loads = wl.loads
    elevated = loads >= KEYSTROKE_LOADS[0]
    # exactly two pulse runs, starting at ticks 50 and 100
    edges = np.flatnonzero(np.diff(np.concatenate(([0], elevated.view(np.int8)))) == 1)
    assert edges.tolist() == [50, 100]
    runs = 0
    in_run = False
    for e in elevated:
        if e and not in_run:
            runs += 1
        in_run = bool(e)
    assert runs == 2


def test_keystroke_press_outside_trace_rejected():
    with pytest.raises(ValueError, match="outside"):
        keystroke_workload([5000], 100, tick_ms=20, seed=0)
    with pytest.raises(ValueError, match="outside"):
        keystroke_workload([-20], 100, tick_ms=20, seed=0)


def test_idle_keeps_cortex_interactive_at_min():
    cfg = SimConfig(profile=CORTEX, governor="interactive")
    wl = keystroke_workload([], 500, tick_ms=20, seed=7)
    assert max(wl.loads) <= IDLE_LOAD_MAX
    trace = simulate(wl, cfg)
    at_min = sum(1 for s in trace.samples if s == CORTEX.min_freq_khz)
    assert at_min / len(trace) >= 0.95


def test_noise_has_no_class_skeleton():
    a = noise_workload(300, seed=1)
    b = noise_workload(300, seed=2)
    assert not np.array_equal(a.loads, b.loads)


def test_n_ticks_validated():
    for fn in (lambda n, seed: keystroke_workload([], n, tick_ms=10, seed=seed), noise_workload):
        with pytest.raises(ValueError):
            fn(0, seed=1)
    with pytest.raises(ValueError):
        website_workload("x", 0, seed=1)
    with pytest.raises(ValueError):
        keystroke_workload([], 0, seed=1)
