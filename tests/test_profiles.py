"""Device profile grids, quantization, and lookup."""

import dataclasses

import pytest

from freqscope.profiles import (
    GOVERNORS,
    DeviceProfile,
    builtin_profiles,
    get_profile,
    grid_100mhz,
    grid_even,
)


def test_builtin_names():
    assert sorted(builtin_profiles()) == ["comet_lake", "cortex_a73", "ryzen5", "tiger_lake"]


def test_laptop_profile_ranges():
    comet = get_profile("comet_lake")
    assert (comet.min_freq_khz, comet.max_freq_khz) == (400_000, 4_900_000)
    assert comet.base_freq_khz == 1_800_000
    assert comet.turbo_ceiling_khz == 3_600_000
    assert comet.scaling_driver == "intel_pstate"
    assert comet.supported_governors == ("performance", "powersave")

    tiger = get_profile("tiger_lake")
    assert (tiger.min_freq_khz, tiger.max_freq_khz) == (400_000, 4_700_000)
    assert tiger.base_freq_khz == 2_800_000


def test_ryzen_profile():
    p = get_profile("ryzen5")
    assert (p.min_freq_khz, p.max_freq_khz) == (1_400_000, 4_060_000)
    assert p.base_freq_khz == 1_700_000
    assert p.scaling_driver == "acpi-cpufreq"
    assert set(p.supported_governors) == set(GOVERNORS) - {"interactive"}
    # 100 MHz grid plus the off-grid hardware max
    assert p.pstates[0] == 1_400_000
    assert p.pstates[1] == 1_500_000
    assert p.pstates[-2] == 4_000_000
    assert p.pstates[-1] == 4_060_000
    assert len(p.pstates) == 28


def test_cortex_profile():
    p = get_profile("cortex_a73")
    assert (p.min_freq_khz, p.max_freq_khz) == (806_000, 2_361_000)
    assert len(p.pstates) == 23
    assert p.default_governor == "interactive"
    assert not p.turbo_boost
    assert p.base_freq_khz is None
    # evenly spaced, rounded to integer kHz: 806000 + i * 1555000/22
    assert p.pstates[1] == 876_682
    assert p.pstates[3] == 1_018_045
    assert p.pstates[6] == 1_230_091
    assert p.pstates[11] == 1_583_500
    assert p.pstates[22] == 2_361_000


def test_grid_100mhz_off_grid_endpoint():
    grid = grid_100mhz(1_400_000, 4_060_000)
    assert grid[-1] == 4_060_000
    assert all(b - a in (100_000, 60_000) for a, b in zip(grid, grid[1:]))
    # exact multiple endpoint is not duplicated
    assert grid_100mhz(400_000, 600_000) == (400_000, 500_000, 600_000)


def test_grid_even_endpoints():
    grid = grid_even(806_000, 2_361_000, 23)
    assert grid[0] == 806_000 and grid[-1] == 2_361_000
    assert len(set(grid)) == 23


def test_quantize_nearest():
    p = get_profile("ryzen5")
    assert p.quantize(2_730_000) == 2_700_000
    assert p.quantize(2_770_000) == 2_800_000
    # clamping outside the grid
    assert p.quantize(100) == 1_400_000
    assert p.quantize(9_999_999) == 4_060_000


def test_quantize_midpoint_rounds_up():
    p = get_profile("ryzen5")
    assert p.quantize(1_450_000) == 1_500_000
    assert p.quantize(1_449_999) == 1_400_000
    # cortex midpoint between idx0 806000 and idx1 876682 is 841341
    c = get_profile("cortex_a73")
    assert c.quantize(841_341) == 876_682
    assert c.quantize(841_340) == 806_000


def test_pstate_index():
    p = get_profile("ryzen5")
    assert p.pstate_index(1_400_000) == 0
    assert p.pstate_index(4_060_000) == len(p.pstates) - 1
    with pytest.raises(ValueError):
        p.pstate_index(1_407_000)


def test_quantize_is_idempotent_and_on_grid():
    for name in builtin_profiles():
        p = get_profile(name)
        step = (p.max_freq_khz - p.min_freq_khz) // 40
        for k in range(41):
            q = p.quantize(p.min_freq_khz + k * step)
            assert q in p.pstates
            assert p.quantize(q) == q


def test_range_is_the_pstate_table_ends():
    p = dataclasses.replace(get_profile("ryzen5"), pstates=grid_100mhz(1_500_000, 3_000_000))
    assert (p.min_freq_khz, p.max_freq_khz) == (1_500_000, 3_000_000)
    with pytest.raises(ValueError, match="base frequency"):
        dataclasses.replace(p, pstates=(1_800_000, 2_000_000))  # base 1.7 GHz below the table


def test_boost_cap():
    assert get_profile("comet_lake").boost_cap_khz == 3_600_000
    assert get_profile("ryzen5").boost_cap_khz == 4_060_000


def test_unknown_profile_lists_builtins():
    with pytest.raises(KeyError, match="ryzen5"):
        get_profile("epyc")


def test_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile(
            name="bad",
            base_freq_khz=None,
            pstates=(2_000_000, 1_000_000),
            default_governor="ondemand",
            turbo_boost=False,
        )
    with pytest.raises(ValueError):
        DeviceProfile(
            name="bad",
            base_freq_khz=None,
            pstates=(1_000_000, 2_000_000),
            default_governor="warp-speed",
            turbo_boost=False,
        )
