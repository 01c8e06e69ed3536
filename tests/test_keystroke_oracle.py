"""The array keystroke detector against the per-sample run loop it
replaced (`tests/keystroke_oracle.py`): the same events, press times and
timings on simulated password datasets and on drawn traces."""

import pytest

import keystroke_oracle as oracle
from freqscope import keystroke
from freqscope.cli import main
from freqscope.dataset import load_dataset
from freqscope.keystroke import detect_keystrokes
from freqscope.trace import FrequencyTrace
from helpers import dataset_traces, law_constants

THRESHOLD = keystroke.IDLE_FREQ_KHZ + keystroke.HYSTERESIS_KHZ
IDLE, PEAK, SUSTAINED, OVER_CAP = 806_000, 1_500_000, 1_300_000, 2_100_000
EDGE_LEVELS = [
    THRESHOLD, THRESHOLD + 1, keystroke.SUSTAINED_FREQ_KHZ - 1, keystroke.SUSTAINED_FREQ_KHZ,
    keystroke.PEAK_CAP_KHZ, keystroke.PEAK_CAP_KHZ + 1,
]


def assert_same_report(trace):
    got, want = detect_keystrokes(trace), oracle.detect_keystrokes(trace)
    assert got.events == want.events
    assert got.press_times_ms == want.press_times_ms
    assert got.inter_key_timings_ms == oracle.timings_from_presses(want.press_times_ms)
    assert all(type(t) is int for t in got.press_times_ms)


@pytest.fixture(scope="module")
def password_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("pw")
    (root / "pw.txt").write_text("hunter2\nletmein\nqwerty12\npassword\n")
    out = root / "ds"
    assert main(["simulate", "--kind", "keystrokes", "--passwords", str(root / "pw.txt"),
                 "--per-label", "10", "--seed", "3", "--out", str(out)]) == 0
    return load_dataset(out)


def test_simulated_password_dataset_matches_the_oracle(password_dataset):
    presses = 0
    for _, trace in dataset_traces(password_dataset):
        assert_same_report(trace)
        presses += detect_keystrokes(trace).press_count
    assert presses > 0


FIXED = {  # case: samples at 20 ms
    "flat": [IDLE] * 50,
    "all_high": [PEAK] * 40,
    "all_sustained_fused": [SUSTAINED] * 40,
    "run_at_start": [PEAK] * 10 + [IDLE] * 20,
    "run_at_end": [IDLE] * 20 + [PEAK] * 10,
    "runs_at_both_ends": [PEAK] * 9 + [IDLE] * 5 + [SUSTAINED] * 30 + [IDLE] + [PEAK] * 12,
    "one_sample": [PEAK],
    "fused_two": [IDLE] * 10 + [SUSTAINED] * 14 + [IDLE] * 10,
    "fused_extrapolated": [IDLE] * 10 + [SUSTAINED] * 40 + [IDLE] * 10,
    "long_not_sustained": [IDLE] * 5 + [THRESHOLD + 1] * 30 + [IDLE] * 5,
    "over_cap_short": [IDLE] * 5 + [OVER_CAP] * 10 + [IDLE] * 5,
    "short_noise": [IDLE] * 5 + [PEAK] * 7 + [IDLE] * 5,
    "at_threshold_is_idle": [THRESHOLD] * 30,
}


@pytest.mark.parametrize("case", sorted(FIXED))
def test_fixed_traces_match_the_oracle(case):
    assert_same_report(FrequencyTrace(samples=FIXED[case], interval_ms=20))


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LEVELS = st.sampled_from([0, IDLE, SUSTAINED, PEAK, OVER_CAP] + EDGE_LEVELS)


@st.composite
def run_traces(draw):
    """Traces built from runs of one level, so long runs, runs touching
    either end, all-high and all-idle traces all come up."""
    runs = draw(st.lists(st.tuples(LEVELS, st.integers(1, 45)), min_size=1, max_size=12))
    return [level for level, n in runs for _ in range(n)]


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(run_traces())
def test_drawn_traces_match_the_oracle(samples):
    assert_same_report(FrequencyTrace(samples=samples, interval_ms=20))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.one_of(run_traces(), st.lists(LEVELS, min_size=1, max_size=200)),
                  st.integers(1, 6), st.integers(0, 8), st.integers(0, 900_000),
                  st.integers(600_000, 1_000_000), LEVELS, LEVELS, st.sampled_from([20, 10, 40]))
def test_drawn_params_match_the_oracle(samples, min_pulse, extra, hysteresis, idle, sustained,
                                       peak_cap, interval):
    """Every law constant drawn: a detector that used a value of its own
    in place of one would disagree with the oracle."""
    with law_constants(keystroke, MIN_PULSE_SAMPLES=min_pulse,
                       MAX_SINGLE_PULSE_SAMPLES=min_pulse + extra, HYSTERESIS_KHZ=hysteresis,
                       IDLE_FREQ_KHZ=idle, SUSTAINED_FREQ_KHZ=sustained, PEAK_CAP_KHZ=peak_cap,
                       SAMPLE_INTERVAL_MS=interval):
        assert_same_report(FrequencyTrace(samples=samples, interval_ms=interval))
