"""Measurement collection loop and the repetitiveness diagnostic."""

import numpy as np
import pytest

from freqscope.sampler import CollectPlan, HookError, collect, run_hook
from freqscope.sources import POLICY_MASKED, AccessDeniedError, FreqSource
from helpers import repetitiveness


class ScriptedSource(FreqSource):
    """Returns a fixed script of values; advance moves one script slot per
    interval_ms milliseconds."""

    device = "scripted"

    def __init__(self, script, interval_ms=10, policy="open"):
        super().__init__(policy)
        self.script = script
        self.interval_ms = interval_ms
        self.pos = 0
        self.advanced_ms = 0

    def _read(self):
        return self.script[min(self.pos, len(self.script) - 1)]

    def _advance(self, dt_ms):
        self.advanced_ms += dt_ms
        self.pos = self.advanced_ms // self.interval_ms


def run(src, interval_ms=10, samples=4, measurements=2, sleep_ms=20, **hooks):
    plan = CollectPlan(measurements, samples, interval_ms)
    return collect(plan, src, sleep_ms=sleep_ms, **hooks)


def test_collect_shapes():
    src = ScriptedSource(list(range(1_000_000, 1_000_000 + 100)))
    rows = run(src)
    assert rows.shape == (2, 4) and rows.dtype == np.int64
    # second measurement starts after 4 reads + the 20 ms sleep = slot 6
    assert rows[0].tolist() == [1_000_000, 1_000_001, 1_000_002, 1_000_003]
    assert rows[1].tolist() == [1_000_006, 1_000_007, 1_000_008, 1_000_009]


def test_failing_pre_hook_skips_measurement_only():
    src = ScriptedSource([1_500_000] * 50)
    rows = run(src, pre_hook="exit 3", measurements=3)
    assert rows.shape == (0, 4)
    rows = run(src, pre_hook="true", measurements=2)
    assert len(rows) == 2


def test_failing_post_hook_discards_that_measurement():
    src = ScriptedSource([1_500_000] * 50)
    rows = run(src, post_hook="false", measurements=2)
    assert rows.shape == (0, 4)


def test_a_measurement_lost_to_its_post_hook_leaves_no_row(tmp_path):
    """The first post hook fails after its measurement was read; the next
    measurement takes that row, so the rows are the completed ones in order."""
    first = tmp_path / "first"
    src = ScriptedSource(list(range(1_000_000, 1_000_000 + 100)))
    rows = run(src, measurements=3, post_hook=f'[ -e "{first}" ] || {{ touch "{first}"; false; }}')
    assert rows.tolist() == [list(range(1_000_006, 1_000_010)), list(range(1_000_012, 1_000_016))]


def test_hook_failure_still_advances_time():
    src = ScriptedSource([1_500_000] * 50)
    run(src, pre_hook="exit 1", measurements=2)
    assert src.advanced_ms == 2 * 20  # the inter-measurement sleeps


def test_access_denied_propagates():
    src = ScriptedSource([1_500_000] * 10, policy=POLICY_MASKED)
    with pytest.raises(AccessDeniedError):
        run(src)


def test_run_hook_nonzero_exit():
    with pytest.raises(HookError, match="exited 7"):
        run_hook("exit 7")


def test_run_hook_ok():
    run_hook("true")


def test_plan_validation(tmp_path):
    """Each bad argument is refused before any hook runs or read is taken."""
    marker = tmp_path / "hooked"
    for bad in ({"interval_ms": 0}, {"samples": 0}, {"measurements": 0}, {"sleep_ms": -1}):
        src = ScriptedSource([1_500_000] * 10, policy=POLICY_MASKED)
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be >= "):
            run(src, pre_hook=f"touch {marker}", **bad)
    assert not marker.exists()
    with pytest.raises(ValueError, match=f"^{10**12} measurements of {10**9} samples do not fit"):
        run(ScriptedSource([1]), samples=10**9, measurements=10**12, pre_hook=f"touch {marker}")
    assert not marker.exists()


def test_repetitiveness_oracle():
    # script slots change every 10 ms; reading every 10 ms sees all-unique
    # values, reading every 1 ms sees each value ~10 times
    src = ScriptedSource(list(range(2_000_000, 2_000_000 + 500)))
    result = repetitiveness(src, [1], reads_per_delay=100)
    assert result[1] == pytest.approx(100 / 10, abs=1.0)
    src2 = ScriptedSource(list(range(2_000_000, 2_000_000 + 500)))
    result2 = repetitiveness(src2, [10], reads_per_delay=100)
    assert result2[10] == 1.0


def test_repetitiveness_validation():
    src = ScriptedSource([1, 2, 3])
    with pytest.raises(ValueError):
        repetitiveness(src, [], reads_per_delay=10)
    with pytest.raises(ValueError):
        repetitiveness(src, [10], reads_per_delay=1)
