"""Frequency reading backends behind one small interface.

Three backends: live sysfs, governor simulation, and recorded-trace replay.
All expose advance(dt_ms) and read_series(n, interval_ms), n reads each
followed by advance(interval_ms); a single read that moves no time is
read_series(1, 0). Virtual backends move simulated time, and the
simulation computes a whole series by index arithmetic; the sysfs backend
sleeps toward absolute deadlines so long runs do not drift.
A source constructed with the masked policy refuses every read, modeling
the access-restriction countermeasure.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .governors import SimConfig, WorkloadTrace, init_state, simulate_batch
from .trace import FrequencyTrace

ENV_SYSFS_ROOT = "FREQSCOPE_SYSFS_ROOT"
DEFAULT_SYSFS_ROOT = "/sys/devices/system/cpu"

POLICY_OPEN = "open"
POLICY_MASKED = "masked"


class AccessDeniedError(PermissionError):
    """Read attempted against a masked source."""


class ReplayExhaustedError(RuntimeError):
    """Replay cursor moved past the final recorded sample."""


class SysfsReadError(RuntimeError):
    """The sysfs attribute could not be read or parsed."""


class FreqSource:
    """Base: policy gate plus the two-method contract; read_series is a loop
    of _read and advance unless a backend can compute the series whole."""

    device = "unknown"

    def __init__(self, policy: str = POLICY_OPEN):
        if policy not in (POLICY_OPEN, POLICY_MASKED):
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy

    def advance(self, dt_ms: int) -> None:
        if dt_ms < 0:
            raise ValueError("dt_ms must be >= 0")
        if dt_ms:
            self._advance(dt_ms)

    def read_series(self, n: int, interval_ms: int) -> np.ndarray:
        """n reads as an int64 array, each followed by advance(interval_ms);
        the source ends where that loop leaves it."""
        if n < 0 or interval_ms < 0:
            raise ValueError("n and interval_ms must be >= 0")
        if n:
            self._check_access()
        return self._read_series(n, interval_ms)

    def _check_access(self) -> None:
        if self.policy == POLICY_MASKED:
            raise AccessDeniedError("frequency interface access is restricted")

    def _read(self) -> int:
        raise NotImplementedError

    def _advance(self, dt_ms: int) -> None:
        raise NotImplementedError

    def _read_series(self, n: int, interval_ms: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            out[i] = self._read()
            self.advance(interval_ms)
        return out


class SimSource(FreqSource):
    """Governor simulation; the workload cycles when exhausted so arbitrarily
    long sampling sessions stay live. Each cycle is simulated in one engine
    call, from the state the previous cycle ended in, once it is due; a cycle
    starting from the same state as the last one simulated reuses its result."""

    def __init__(self, cfg: SimConfig, workload: WorkloadTrace, policy: str = POLICY_OPEN):
        super().__init__(policy)
        self.cfg = cfg
        self.workload = workload
        self.device = cfg.profile.name
        self._state = init_state(cfg)  # as of the end of the latest simulated cycle
        self._cycle = np.empty(0, dtype=np.int64)  # frequency during each tick of that cycle
        self._last = None  # (start state, frequencies, end state) of the last cycle simulated
        self._cursor = 0  # ticks consumed
        self._carry_ms = 0

    def _advance(self, dt_ms: int) -> None:
        self._read_series(1, dt_ms)  # reading the current tick changes nothing

    def _read_series(self, n: int, interval_ms: int) -> np.ndarray:
        # ms advanced before read i, and after the last advance
        ms = self._carry_ms + interval_ms * np.arange(n + 1, dtype=np.int64)
        ticks = self._cursor + ms // self.workload.tick_ms  # ticks consumed by then
        # tick k lies in cycle k // len(loads): the latest tick's cycle at each read
        cycle = (ticks - 1) // len(self.workload.loads)
        now = (self._cursor - 1) // len(self.workload.loads)  # -1: none simulated yet
        # reads [bounds[j], bounds[j + 1]) fall in cycle now + j; simulate each
        # cycle the series enters, the last advance's included
        bounds = np.searchsorted(cycle[:n], np.arange(now, cycle[-1] + 2))
        out = np.empty(n, dtype=np.int64)
        for j, (lo, hi) in enumerate(zip(bounds.tolist(), bounds[1:].tolist())):
            if j:
                if self._last is None or self._last[0] != self._state:
                    (cycle,), (end,) = simulate_batch(
                        [self.workload.loads], self.workload.tick_ms, self.cfg, [self._state])
                    self._last = (self._state, cycle, end)
                _, self._cycle, self._state = self._last
            if now + j < 0:
                out[lo:hi] = self._state.current_freq_khz  # before the first tick
            else:
                out[lo:hi] = self._cycle[(ticks[lo:hi] - 1) % len(self._cycle)]
        self._cursor, self._carry_ms = int(ticks[-1]), int(ms[-1] % self.workload.tick_ms)
        return out


class ReplaySource(FreqSource):
    """Plays back a recorded trace; advancing saturates at the end, reading
    past the end raises."""

    def __init__(self, trace: FrequencyTrace, policy: str = POLICY_OPEN):
        super().__init__(policy)
        self.trace = trace
        self.device = trace.device
        self._cursor = 0
        self._carry_ms = 0

    def _read(self) -> int:
        if self._cursor >= len(self.trace.samples):
            raise ReplayExhaustedError(
                f"replay of {len(self.trace.samples)} samples exhausted"
            )
        return self.trace.samples.item(self._cursor)

    def _advance(self, dt_ms: int) -> None:
        self._carry_ms += dt_ms
        steps, self._carry_ms = divmod(self._carry_ms, self.trace.interval_ms)
        self._cursor = min(len(self.trace.samples), self._cursor + steps)


class SysfsSource(FreqSource):
    """Reads scaling_cur_freq under a cpufreq policy directory.

    Root resolution order: explicit argument, FREQSCOPE_SYSFS_ROOT, then the
    real /sys tree. Tests point the env var at fixture directories.
    """

    def __init__(self, root: str | None = None, policy_index: int = 0,
                 policy: str = POLICY_OPEN):
        super().__init__(policy)
        self.root = root or os.environ.get(ENV_SYSFS_ROOT) or DEFAULT_SYSFS_ROOT
        self.policy_index = policy_index
        self.path = os.path.join(
            self.root, "cpufreq", f"policy{policy_index}", "scaling_cur_freq"
        )
        self.device = f"sysfs-policy{policy_index}"
        self._deadline: float | None = None

    def _read(self) -> int:
        try:
            with open(self.path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise SysfsReadError(f"cannot read {self.path}: {exc}") from exc
        try:
            value = int(text.strip())
        except ValueError:
            raise SysfsReadError(f"non-integer content in {self.path}: {text!r}") from None
        if not 0 <= value < 2**63:
            raise SysfsReadError(f"frequency outside [0, 2**63) in {self.path}: {value}")
        return value

    def _advance(self, dt_ms: int) -> None:
        # absolute deadlines: start + cumulative dt, immune to per-sleep drift
        now = time.monotonic()
        if self._deadline is None:
            self._deadline = now
        self._deadline += dt_ms / 1000.0
        remaining = self._deadline - now
        if remaining > 0:
            time.sleep(remaining)
