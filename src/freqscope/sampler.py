"""Timed sampling of a frequency source into labeled measurements.

One measurement is: run the pre hook, take N_s reads spaced T_i apart, run
the post hook, then rest for the inter-measurement sleep. Hooks are external
commands (e.g. open/close a browser) and a failing hook aborts only the
current measurement.
"""

from __future__ import annotations

import logging
import os
import subprocess
from dataclasses import dataclass

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
        if not self.label:  # it names the directory of the traces
            raise ValueError("label must not be empty")
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
            samples = src.read_series(plan.samples_per_measurement, plan.interval_ms)
            if plan.post_hook:
                run_hook(plan.post_hook)
        except HookError as exc:
            log.warning("measurement %d of %r aborted: %s", m, plan.label, exc)
            src.advance(plan.inter_measurement_sleep_ms)
            continue
        src.advance(plan.inter_measurement_sleep_ms)
        traces.append(
            FrequencyTrace(
                samples=samples,  # an int64 array: no per-value check
                interval_ms=plan.interval_ms,
                device=src.device,
                label=plan.label,
            )
        )
    return traces

