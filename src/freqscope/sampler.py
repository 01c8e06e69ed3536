"""Timed sampling of a frequency source into the rows of a sample matrix.

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

import numpy as np

from .sources import FreqSource

log = logging.getLogger(__name__)

HOOK_ENV_ALLOWLIST = ("PATH", "HOME", "LANG", "LC_ALL", "TMPDIR", "SHELL")
HOOK_TIMEOUT_S = 60.0


class HookError(RuntimeError):
    """A pre/post hook exited nonzero or could not run."""


@dataclass(frozen=True)
class CollectPlan:
    """The matrix `collect` fills: `measurements` rows of `samples` reads
    `interval_ms` ms apart."""

    measurements: int
    samples: int
    interval_ms: int


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


def collect(plan: CollectPlan, src: FreqSource, *, pre_hook: str | None = None,
            post_hook: str | None = None, sleep_ms: int = 1000) -> np.ndarray:
    """Take the plan's measurements, resting `sleep_ms` after each; returns
    the completed ones as the rows of an int64 [done, samples] matrix, in the
    order they were taken.

    Access-denied errors propagate (that is the countermeasure surfacing);
    hook failures are logged and cost only the affected measurement.
    """
    measurements, samples, interval_ms = plan.measurements, plan.samples, plan.interval_ms
    for name, value, least in (("interval_ms", interval_ms, 1), ("samples", samples, 1),
                               ("measurements", measurements, 1), ("sleep_ms", sleep_ms, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    try:
        rows = np.empty((measurements, samples), dtype=np.int64)
    except (MemoryError, ValueError):  # ValueError: a size past the address space
        raise ValueError(f"{measurements} measurements of {samples} samples do not fit"
                         " in memory") from None
    done = 0
    for m in range(measurements):
        try:
            if pre_hook:
                run_hook(pre_hook)
            rows[done] = src.read_series(samples, interval_ms)
            if post_hook:
                run_hook(post_hook)
        except HookError as exc:  # the next measurement takes this one's row
            log.warning("measurement %d aborted: %s", m, exc)
        else:
            done += 1
        src.advance(sleep_ms)
    return rows[:done]
