"""Reference keystroke detector: the per-sample run segmentation that the
array code in `freqscope.keystroke` replaced, kept verbatim as the oracle
the new code is compared against event for event.

`_runs_above` walks the samples one at a time and slices out each maximal
run above the threshold; `detect_keystrokes` classifies the runs with
Python `max` and a counting generator.
"""

from __future__ import annotations

import math

from freqscope.keystroke import KeystrokeEvent, KeystrokeParams, KeystrokeReport
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


def detect_keystrokes(trace: FrequencyTrace, p: KeystrokeParams | None = None) -> KeystrokeReport:
    p = p or KeystrokeParams()
    if trace.interval_ms != p.sample_interval_ms:
        raise ValueError(
            f"trace interval {trace.interval_ms} ms != expected {p.sample_interval_ms} ms"
        )
    events: list[KeystrokeEvent] = []
    presses: list[int] = []
    for start, seg in _runs_above(trace.samples, p.threshold_khz):
        length = len(seg)
        if length < p.min_pulse_samples:
            continue  # too short: scheduler noise
        if length <= p.max_single_pulse_samples:
            if max(seg) <= p.peak_cap_khz:
                events.append(KeystrokeEvent(start, length, 1))
                presses.append(start * p.sample_interval_ms)
            # over-cap short runs are background interference, not keys
            continue
        sustained = sum(1 for s in seg if s >= p.sustained_freq_khz)
        if sustained > p.max_single_pulse_samples:
            # fused presses: the run never settles, so split it evenly
            count = math.ceil(length / p.max_single_pulse_samples)
            events.append(KeystrokeEvent(start, length, count, extrapolated=count > 2))
            for i in range(count):
                presses.append((start + i * length // count) * p.sample_interval_ms)
        # long but not sustained: some other workload
    return KeystrokeReport(
        events=events,
        press_times_ms=presses,
        inter_key_timings_ms=timings_from_presses(presses),
    )


def timings_from_presses(press_times_ms: list[int]) -> list[int]:
    return [b - a for a, b in zip(press_times_ms, press_times_ms[1:])]
