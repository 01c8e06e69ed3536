"""Timed sampling of a frequency source into labeled measurements.

One measurement is: run the pre hook, take N_s reads spaced T_i apart, run
the post hook, then rest for the inter-measurement sleep. Hooks are external
commands (e.g. open/close a browser) and a failing hook aborts only the
current measurement. The repetitiveness diagnostic estimates how much of a
sampling rate is wasted on duplicate readings.
"""

from __future__ import annotations

import logging
import os
import subprocess
from dataclasses import dataclass

import numpy as np

from .sources import FreqSource
from .trace import FrequencyTrace

log = logging.getLogger(__name__)

HOOK_ENV_ALLOWLIST = ("PATH", "HOME", "LANG", "LC_ALL", "TMPDIR", "SHELL")
HOOK_TIMEOUT_S = 60.0


class HookError(RuntimeError):
    """A pre/post hook exited nonzero or could not run."""


@dataclass
class CollectPlan:
    interval_ms: int
    samples_per_measurement: int
    measurements: int
    label: str
    pre_hook: str | None = None
    post_hook: str | None = None
    inter_measurement_sleep_ms: int = 1000

    def __post_init__(self) -> None:
        if self.interval_ms < 1:
            raise ValueError("interval_ms must be >= 1")
        if self.samples_per_measurement < 1:
            raise ValueError("samples_per_measurement must be >= 1")
        if self.measurements < 1:
            raise ValueError("measurements must be >= 1")
        if self.inter_measurement_sleep_ms < 0:
            raise ValueError("inter_measurement_sleep_ms must be >= 0")


def _hook_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k in HOOK_ENV_ALLOWLIST or k.startswith("FREQSCOPE_")}
    return env


def run_hook(command: str) -> None:
    try:
        result = subprocess.run(
            command, shell=True, env=_hook_env(),
            capture_output=True, text=True, timeout=HOOK_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise HookError(f"hook {command!r} failed to run: {exc}") from exc
    if result.returncode != 0:
        raise HookError(
            f"hook {command!r} exited {result.returncode}: {result.stderr.strip()}"
        )


def collect(plan: CollectPlan, src: FreqSource) -> list[FrequencyTrace]:
    """Run the plan; returns one trace per completed measurement.

    Access-denied errors propagate (that is the countermeasure surfacing);
    hook failures are logged and cost only the affected measurement.
    """
    traces: list[FrequencyTrace] = []
    for m in range(plan.measurements):
        try:
            if plan.pre_hook:
                run_hook(plan.pre_hook)
            samples = []
            for _ in range(plan.samples_per_measurement):
                samples.append(src.read_freq())
                src.advance(plan.interval_ms)
            if plan.post_hook:
                run_hook(plan.post_hook)
        except HookError as exc:
            log.warning("measurement %d of %r aborted: %s", m, plan.label, exc)
            src.advance(plan.inter_measurement_sleep_ms)
            continue
        src.advance(plan.inter_measurement_sleep_ms)
        traces.append(
            FrequencyTrace(
                samples=np.array(samples),  # sources read ints: no per-value check
                interval_ms=plan.interval_ms,
                device=src.device,
                label=plan.label,
            )
        )
    return traces


def repetitiveness(src: FreqSource, delays_ms: list[int], reads_per_delay: int) -> dict[int, float]:
    """Mean run length of identical consecutive readings per delay.

    1.0 means every reading was unique; reads_per_delay means the source
    never changed. Lower is better for an attacker sampling at that delay.
    """
    if not delays_ms:
        raise ValueError("delays_ms must be non-empty")
    if reads_per_delay < 2:
        raise ValueError("reads_per_delay must be >= 2")
    result: dict[int, float] = {}
    for delay in delays_ms:
        values = []
        for _ in range(reads_per_delay):
            values.append(src.read_freq())
            src.advance(delay)
        runs = 1 + sum(1 for a, b in zip(values, values[1:]) if a != b)
        result[delay] = len(values) / runs
    return result
