"""Measurement collection loop and the repetitiveness diagnostic."""

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


def plan(**kw):
    kw.setdefault("interval_ms", 10)
    kw.setdefault("samples_per_measurement", 4)
    kw.setdefault("measurements", 2)
    kw.setdefault("label", "unit")
    kw.setdefault("inter_measurement_sleep_ms", 20)
    return CollectPlan(**kw)


def test_collect_shapes_and_labels():
    src = ScriptedSource(list(range(1_000_000, 1_000_000 + 100)))
    traces = collect(plan(), src)
    assert len(traces) == 2
    for t in traces:
        assert len(t) == 4
        assert t.interval_ms == 10
        assert t.label == "unit"
        assert t.device == "scripted"
    # second measurement starts after 4 reads + the 20 ms sleep = slot 6
    assert traces[0].samples.tolist() == [1_000_000, 1_000_001, 1_000_002, 1_000_003]
    assert traces[1].samples.tolist() == [1_000_006, 1_000_007, 1_000_008, 1_000_009]


def test_failing_pre_hook_skips_measurement_only():
    src = ScriptedSource([1_500_000] * 50)
    traces = collect(plan(pre_hook="exit 3", measurements=3), src)
    assert traces == []
    traces = collect(plan(pre_hook="true", measurements=2), src)
    assert len(traces) == 2


def test_failing_post_hook_discards_that_measurement():
    src = ScriptedSource([1_500_000] * 50)
    traces = collect(plan(post_hook="false", measurements=2), src)
    assert traces == []


def test_hook_failure_still_advances_time():
    src = ScriptedSource([1_500_000] * 50)
    collect(plan(pre_hook="exit 1", measurements=2), src)
    assert src.advanced_ms == 2 * 20  # the inter-measurement sleeps


def test_access_denied_propagates():
    src = ScriptedSource([1_500_000] * 10, policy=POLICY_MASKED)
    with pytest.raises(AccessDeniedError):
        collect(plan(), src)


def test_run_hook_nonzero_exit():
    with pytest.raises(HookError, match="exited 7"):
        run_hook("exit 7")


def test_run_hook_ok():
    run_hook("true")


def test_plan_validation():
    with pytest.raises(ValueError):
        plan(interval_ms=0)
    with pytest.raises(ValueError):
        plan(samples_per_measurement=0)
    with pytest.raises(ValueError):
        plan(measurements=0)
    with pytest.raises(ValueError):
        plan(inter_measurement_sleep_ms=-1)


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
