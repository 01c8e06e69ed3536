"""Reference keystroke detector: the per-sample run segmentation that the
array code in `freqscope.keystroke` replaced, kept verbatim as the oracle
the new code is compared against event for event.

`_runs_above` walks the samples one at a time and slices out each maximal
run above the threshold; `detect_keystrokes` classifies the runs with
Python `max` and a counting generator. Both detectors read the law
constants through the `freqscope.keystroke` module when they are called,
so a test that patches one changes both.
"""

from __future__ import annotations

import math

from freqscope import keystroke as law
from freqscope.keystroke import KeystrokeEvent, KeystrokeReport
from freqscope.trace import FrequencyTrace


def _runs_above(samples, threshold: int):
    """Maximal runs of consecutive samples strictly above threshold."""
    runs = []
    start = None
    for i, s in enumerate(samples):
        if s > threshold:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, samples[start:i]))
            start = None
    if start is not None:
        runs.append((start, samples[start:]))
    return runs


def detect_keystrokes(trace: FrequencyTrace) -> KeystrokeReport:
    if trace.interval_ms != law.SAMPLE_INTERVAL_MS:
        raise ValueError(
            f"trace interval {trace.interval_ms} ms != expected {law.SAMPLE_INTERVAL_MS} ms"
        )
    events: list[KeystrokeEvent] = []
    presses: list[int] = []
    threshold = law.IDLE_FREQ_KHZ + law.HYSTERESIS_KHZ
    for start, seg in _runs_above(trace.samples, threshold):
        length = len(seg)
        if length < law.MIN_PULSE_SAMPLES:
            continue  # too short: scheduler noise
        if length <= law.MAX_SINGLE_PULSE_SAMPLES:
            if max(seg) <= law.PEAK_CAP_KHZ:
                events.append(KeystrokeEvent(start, length, 1))
                presses.append(start * law.SAMPLE_INTERVAL_MS)
            # over-cap short runs are background interference, not keys
            continue
        sustained = sum(1 for s in seg if s >= law.SUSTAINED_FREQ_KHZ)
        if sustained > law.MAX_SINGLE_PULSE_SAMPLES:
            # fused presses: the run never settles, so split it evenly
            count = math.ceil(length / law.MAX_SINGLE_PULSE_SAMPLES)
            events.append(KeystrokeEvent(start, length, count))
            for i in range(count):
                presses.append((start + i * length // count) * law.SAMPLE_INTERVAL_MS)
        # long but not sustained: some other workload
    return KeystrokeReport(events=events, press_times_ms=presses)


def timings_from_presses(press_times_ms: list[int]) -> list[int]:
    return [b - a for a, b in zip(press_times_ms, press_times_ms[1:])]
