"""Keystroke detection rules, timing extraction, and password ranking."""

import numpy as np
import pytest

from freqscope import keystroke
from freqscope.governors import SimConfig
from freqscope.keystroke import (
    GAP_MIN_MS,
    MEASUREMENTS_PER_LABEL,
    KeystrokeEvent,
    KeystrokeReport,
    detect_keystrokes,
    gap_mean_ms,
    guess_curve,
    key_distance,
    password_gap_means,
    password_press_schedule,
    train_password_model,
)
from freqscope.profiles import get_profile
from freqscope.trace import FrequencyTrace
from freqscope.workloads import keystroke_workload
from helpers import password_timing_vectors, simulate
from knn_oracle import loop_rank

CORTEX = get_profile("cortex_a73")
IDLE = 806_000
PEAK = 1_500_000


def trace20(samples):
    return FrequencyTrace(samples=samples, interval_ms=20, device="cortex_a73", label="kx")


def test_flat_trace_has_no_presses():
    report = detect_keystrokes(trace20([IDLE] * 100))
    assert report.press_count == 0
    assert report.events == []
    assert report.inter_key_timings_ms == []


def test_single_pulse_of_ten_samples_is_one_press():
    samples = [IDLE] * 20 + [1_600_000] * 10 + [IDLE] * 20
    report = detect_keystrokes(trace20(samples))
    assert [e.inferred_count for e in report.events] == [1]
    assert report.press_times_ms == [20 * 20]
    assert not report.events[0].extrapolated


def test_short_runs_are_noise():
    samples = [IDLE] * 10 + [PEAK] * 7 + [IDLE] * 10
    assert detect_keystrokes(trace20(samples)).press_count == 0


def test_over_cap_short_run_is_interference():
    samples = [IDLE] * 10 + [2_100_000] * 10 + [IDLE] * 10
    assert detect_keystrokes(trace20(samples)).press_count == 0


def test_fused_fourteen_sample_run_is_two_presses():
    samples = [IDLE] * 10 + [1_300_000] * 14 + [IDLE] * 10
    report = detect_keystrokes(trace20(samples))
    assert [e.inferred_count for e in report.events] == [2]
    assert not report.events[0].extrapolated
    # split evenly: starts at sample 10 and 10 + 14//2
    assert report.press_times_ms == [200, 340]
    assert report.inter_key_timings_ms == [140]


def test_long_unsustained_run_is_other_workload():
    # 14 above threshold but only 10 at sustained level
    samples = [IDLE] * 10 + [1_000_000] * 4 + [1_300_000] * 10 + [IDLE] * 10
    assert detect_keystrokes(trace20(samples)).press_count == 0


def test_triple_fusion_marks_extrapolated():
    samples = [IDLE] * 10 + [1_300_000] * 30 + [IDLE] * 10
    report = detect_keystrokes(trace20(samples))
    assert [e.inferred_count for e in report.events] == [3]
    assert report.events[0].extrapolated


def test_sixteen_sample_fused_run_at_2000ms():
    samples = [IDLE] * 100 + [1_250_000] * 16 + [IDLE] * 20
    report = detect_keystrokes(trace20(samples))
    assert report.press_times_ms == [2000, 2160]
    assert report.inter_key_timings_ms == [160]


def test_offset_invariance_with_clear_margins():
    # every level sits > 50 MHz from the nearest decision threshold
    # (900 MHz segmentation, 1.2 GHz sustained, 1.6 GHz cap), so shifting
    # the whole trace by +-50 MHz must not change the reading
    body = [IDLE] * 15 + [1_512_818] * 6 + [1_300_773] * 3 + [1_018_045] * 1 + [IDLE] * 15
    base = detect_keystrokes(trace20(body))
    assert base.press_count == 1
    for off in (-50_000, 50_000):
        shifted = detect_keystrokes(trace20([s + off for s in body]))
        assert shifted.press_times_ms == base.press_times_ms
        assert [e.inferred_count for e in shifted.events] == [1]


def test_interval_mismatch_rejected():
    t = FrequencyTrace(samples=[IDLE] * 10, interval_ms=10, device="cortex_a73", label="x")
    with pytest.raises(ValueError, match="interval"):
        detect_keystrokes(t)


def test_params_validation():
    """The law constants keep the detector's invariants."""
    assert keystroke.IDLE_FREQ_KHZ < keystroke.SUSTAINED_FREQ_KHZ < keystroke.PEAK_CAP_KHZ
    assert keystroke.MIN_PULSE_SAMPLES <= keystroke.MAX_SINGLE_PULSE_SAMPLES
    assert keystroke.IDLE_FREQ_KHZ + keystroke.HYSTERESIS_KHZ == 900_000


def test_report_requires_increasing_press_times():
    with pytest.raises(ValueError):
        KeystrokeReport(press_times_ms=[100, 100])


def test_report_derives_timings_and_extrapolation():
    report = KeystrokeReport(press_times_ms=[400, 700, 1200])
    assert report.inter_key_timings_ms == [300, 500]
    assert "timings_ms = 300,500" in report.key_value_lines()
    extrapolated = [KeystrokeEvent(0, 40, n).extrapolated for n in (1, 2, 3, 4)]
    assert extrapolated == [False, False, True, True]


def test_governor_pipeline_recovers_press_times():
    cfg = SimConfig(profile=CORTEX, governor="interactive")
    wl = keystroke_workload([1000, 1400, 3000], 220, tick_ms=20, seed=5)
    report = detect_keystrokes(simulate(wl, cfg))
    assert report.press_times_ms == [1000, 1400, 3000]
    assert report.inter_key_timings_ms == [400, 1600]


def test_timings_need_two_presses():
    pulse = [PEAK] * 10
    report = detect_keystrokes(trace20([IDLE] * 25 + pulse + [IDLE] * 20))
    assert report.press_times_ms == [500]
    assert report.inter_key_timings_ms == []
    report3 = detect_keystrokes(trace20(
        [IDLE] * 50 + pulse + [IDLE] * 5 + pulse + [IDLE] * 20 + pulse + [IDLE] * 20))
    assert report3.press_times_ms == [1000, 1300, 1900]
    assert report3.inter_key_timings_ms == [300, 600]


def test_key_distance_and_gap_model():
    assert key_distance("f", "f") == 0.0
    assert gap_mean_ms("f", "f") == 150.0
    assert key_distance("q", "p") == 9.0
    assert gap_mean_ms("q", "p") == 450.0  # capped at max distance
    assert key_distance("!", "a") == 4.0  # unknown keys use a fixed distance
    assert len(password_gap_means("monkey")) == 5
    with pytest.raises(ValueError):
        password_gap_means("a")


def test_press_schedule_matches_gap_floor():
    sched = password_press_schedule("flowerpot", seed=3)
    assert len(sched) == 9
    assert sched[0] == 400
    gaps = [b - a for a, b in zip(sched, sched[1:])]
    assert all(g >= GAP_MIN_MS - 1 for g in gaps)  # floor, minus int rounding
    assert sched == password_press_schedule("flowerpot", seed=3)
    assert sched != password_press_schedule("flowerpot", seed=4)


def test_timing_vectors_deterministic_per_seed():
    a = password_timing_vectors(["monkey", "velvet"], per_label=3, seed=9)
    b = password_timing_vectors(["monkey", "velvet"], per_label=3, seed=9)
    for pw in a:
        for va, vb in zip(a[pw], b[pw]):
            assert np.array_equal(va, vb)
    assert all(len(v) == 5 for v in a["monkey"])


def test_password_split_sizes():
    pws = [f"pw{i:02d}xx" for i in range(50)]
    ds = password_timing_vectors(pws, per_label=MEASUREMENTS_PER_LABEL, seed=1)
    model, held_out = train_password_model(ds, split_seed=2)
    assert len(model.train_labels) == 50 * 7
    assert len(held_out) == 50 * 3
    assert model.classes == sorted(pws)
    assert model.train_x.shape[1] == max(len(v) for vs in ds.values() for v in vs)


def test_password_split_deterministic_and_seed_sensitive():
    pws = ["monkey", "velvet", "quartz", "harbor"]
    ds = password_timing_vectors(pws, per_label=12, seed=0)
    m1, h1 = train_password_model(ds, split_seed=5)
    m2, h2 = train_password_model(ds, split_seed=5)
    assert np.array_equal(m1.train_x, m2.train_x)
    assert m1.train_labels == m2.train_labels
    assert all(a[0] == b[0] and np.array_equal(a[1], b[1]) for a, b in zip(h1, h2))
    m3, _ = train_password_model(ds, split_seed=6)
    assert not np.array_equal(m1.train_x, m3.train_x)


def test_separated_passwords_rank_first():
    # same-key runs vs far-jump runs: timing distributions do not overlap
    ds = password_timing_vectors(["ffffff", "qpqpqp"], seed=3)
    model, held_out = train_password_model(ds, split_seed=0)
    curve = guess_curve(model, held_out, max_guesses=2)
    assert curve[0] == 1.0


def test_guess_curve_shape():
    pws = ["monkey", "velvet", "quartz", "harbor", "zephyr"]
    ds = password_timing_vectors(pws, seed=7)
    model, held_out = train_password_model(ds, split_seed=1)
    curve = guess_curve(model, held_out, max_guesses=5)
    assert len(curve) == 5
    assert all(a <= b for a, b in zip(curve, curve[1:]))
    assert curve[-1] == 1.0  # the ranking is total over all labels


def test_guess_curve_matches_per_query_rankings():
    pws = [f"{a}{b}pass" for a in "qazwsx" for b in "plmokn"]
    ds = password_timing_vectors(pws, seed=11)
    model, held_out = train_password_model(ds, split_seed=3)
    held_out.append(("notamodelpassword", held_out[0][1]))  # never ranked
    hits = np.zeros(len(pws), dtype=np.int64)
    for label, vec in held_out:
        ranking = [lb for lb, _ in loop_rank(model, vec)]
        if label in ranking:
            hits[ranking.index(label):] += 1
    want = [h / len(held_out) for h in hits]
    assert guess_curve(model, held_out, max_guesses=len(pws)) == want
    assert guess_curve(model, held_out, max_guesses=4) == want[:4]
    assert 0 < want[0] < want[-1] < 1


def test_guess_curve_validation():
    ds = password_timing_vectors(["monkey", "velvet"], seed=0)
    model, held_out = train_password_model(ds)
    with pytest.raises(ValueError):
        guess_curve(model, [], max_guesses=1)
    with pytest.raises(ValueError):
        guess_curve(model, held_out, max_guesses=3)


def test_password_model_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        train_password_model({"only": [np.zeros(3)] * 10})
    short = {"aaaaaa": [np.zeros(5)] * 4, "bbbbbb": [np.zeros(5)] * 10}
    with pytest.raises(ValueError, match="need >="):
        train_password_model(short)
