"""Device frequency profiles and P-state tables.

A profile describes one CPU package as seen through cpufreq: the discrete
P-state table in kHz, whose first and last states are the frequency range,
the stock governor, and whether the part can boost above its base
frequency. Four builtin profiles cover the devices this toolkit models;
custom profiles can be constructed directly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GOVERNORS = (
    "performance",
    "powersave",
    "userspace",
    "ondemand",
    "conservative",
    "interactive",
    "schedutil",
)

PSTATE_STEP_KHZ = 100_000  # standard cpufreq granularity for x86 tables


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    base_freq_khz: int | None
    pstates: tuple[int, ...]
    default_governor: str
    turbo_boost: bool
    turbo_ceiling_khz: int | None = None
    scaling_driver: str = "acpi-cpufreq"
    supported_governors: tuple[str, ...] = GOVERNORS

    def __post_init__(self) -> None:
        if not self.pstates:
            raise ValueError("profile needs a non-empty pstate table")
        if any(b <= a for a, b in zip(self.pstates, self.pstates[1:])):
            raise ValueError("pstates must be strictly ascending")
        if self.base_freq_khz is not None and not (
            self.min_freq_khz <= self.base_freq_khz <= self.max_freq_khz
        ):
            raise ValueError("base frequency outside [min, max]")
        if self.turbo_ceiling_khz is not None and self.turbo_ceiling_khz > self.max_freq_khz:
            raise ValueError("turbo ceiling above max frequency")
        if self.default_governor not in GOVERNORS:
            raise ValueError(f"unknown governor {self.default_governor!r}")

    @property
    def min_freq_khz(self) -> int:
        return self.pstates[0]

    @property
    def max_freq_khz(self) -> int:
        return self.pstates[-1]

    @property
    def boost_cap_khz(self) -> int:
        """Effective upper bound when turbo is active: ceiling if known, else max."""
        return self.turbo_ceiling_khz if self.turbo_ceiling_khz is not None else self.max_freq_khz

    def quantize(self, freq_khz: float) -> int:
        """Snap a frequency to the nearest P-state, ties rounding upward."""
        return self.pstates[quantize_indices(self.pstates, freq_khz)]

    def pstate_index(self, freq_khz: int) -> int:
        i = bisect.bisect_left(self.pstates, freq_khz)
        if i == len(self.pstates) or self.pstates[i] != freq_khz:
            raise ValueError(f"{freq_khz} kHz is not a pstate of {self.name}")
        return i


@lru_cache(maxsize=64)
def _midpoints(pstates: tuple[int, ...]) -> tuple[float, ...]:
    return tuple((a + b) / 2.0 for a, b in zip(pstates, pstates[1:]))


def quantize_indices(pstates: tuple[int, ...], freqs_khz) -> np.ndarray:
    """Index of the nearest P-state for every frequency, ties rounding upward."""
    return np.searchsorted(np.array(_midpoints(pstates)), freqs_khz, side="right")


def grid_100mhz(min_khz: int, max_khz: int) -> tuple[int, ...]:
    """100 MHz steps from min upward; max is appended exactly if off-grid."""
    states = list(range(min_khz, max_khz + 1, PSTATE_STEP_KHZ))
    if states[-1] != max_khz:
        states.append(max_khz)
    return tuple(states)


def grid_even(lo_khz: int, hi_khz: int, count: int) -> tuple[int, ...]:
    """`count` evenly spaced states anchored at both endpoints, integer kHz."""
    span = hi_khz - lo_khz
    states = tuple(lo_khz + round(i * span / (count - 1)) for i in range(count))
    if len(set(states)) != count:
        raise ValueError("grid too dense for integer kHz spacing")
    return states


_INTEL_GOVERNORS = ("performance", "powersave")
_AMD_GOVERNORS = (
    "performance",
    "powersave",
    "userspace",
    "ondemand",
    "conservative",
    "schedutil",
)
_ANDROID_GOVERNORS = (
    "performance",
    "powersave",
    "userspace",
    "ondemand",
    "conservative",
    "interactive",
)

COMET_LAKE = DeviceProfile(
    name="comet_lake",
    base_freq_khz=1_800_000,
    pstates=grid_100mhz(400_000, 4_900_000),
    default_governor="powersave",
    turbo_boost=True,
    turbo_ceiling_khz=3_600_000,  # empirical sustained boost ceiling
    scaling_driver="intel_pstate",
    supported_governors=_INTEL_GOVERNORS,
)

TIGER_LAKE = DeviceProfile(
    name="tiger_lake",
    base_freq_khz=2_800_000,
    pstates=grid_100mhz(400_000, 4_700_000),
    default_governor="powersave",
    turbo_boost=True,
    scaling_driver="intel_pstate",
    supported_governors=_INTEL_GOVERNORS,
)

RYZEN5 = DeviceProfile(
    name="ryzen5",
    base_freq_khz=1_700_000,
    pstates=grid_100mhz(1_400_000, 4_060_000),
    default_governor="ondemand",
    turbo_boost=True,
    scaling_driver="acpi-cpufreq",
    supported_governors=_AMD_GOVERNORS,
)

# The big-core cluster exposes 23 states and idles at 806 MHz rather than a
# round 800; both endpoints are the observed operating points.
CORTEX_A73 = DeviceProfile(
    name="cortex_a73",
    base_freq_khz=None,
    pstates=grid_even(806_000, 2_361_000, 23),
    default_governor="interactive",
    turbo_boost=False,
    scaling_driver="msm",
    supported_governors=_ANDROID_GOVERNORS,
)

_BUILTINS = {p.name: p for p in (COMET_LAKE, TIGER_LAKE, RYZEN5, CORTEX_A73)}


def builtin_profiles() -> dict[str, DeviceProfile]:
    return dict(_BUILTINS)


def get_profile(name: str) -> DeviceProfile:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; builtins: {', '.join(sorted(_BUILTINS))}"
        ) from None
