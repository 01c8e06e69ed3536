"""Trace-level countermeasures and the attacker-cost evaluation harness."""

import numpy as np
import pytest

from freqscope.classify import train_knn_model
from freqscope.dataset import LabeledDataset, stable_seed
from freqscope.defend import (
    NOISE_WIDTHS,
    Defense,
    _freq_range,
    constant_mask,
    defended_dataset,
    defense_sweep,
    noise_inject,
    parse_defense,
    resolution_reduce,
    sweep_csv_lines,
)
from freqscope.profiles import get_profile
from freqscope.trace import FrequencyTrace
from helpers import apply_defense

RYZEN = get_profile("ryzen5")


def make_trace(samples, label="t", device="ryzen5"):
    return FrequencyTrace(samples=samples, interval_ms=10, device=device, label=label)


def sample_dataset(per_class=8, length=40, seed=0):
    rng = np.random.default_rng(seed)
    classes = ["c0", "c1", "c2"]
    measurements = {}
    for i, label in enumerate(classes):
        base_idx = 3 + 7 * i
        rows = []
        for _ in range(per_class):
            idx = base_idx + rng.integers(0, 2, size=length)
            rows.append(make_trace([RYZEN.pstates[int(j)] for j in idx], label))
        measurements[label] = rows
    return LabeledDataset(classes=classes, measurements=measurements)


SPLIT = (7, (0.5, 0.0, 0.5))  # sample_dataset's split seed and fractions


def test_defense_validation():
    with pytest.raises(ValueError, match="kind"):
        Defense(kind="scramble")
    with pytest.raises(ValueError):
        resolution_reduce(0)
    with pytest.raises(ValueError):
        Defense(kind="resolution_reduce", factor=2.5)
    for rate in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            noise_inject(rate)
    with pytest.raises(ValueError):
        noise_inject(1.0, burst_height=1.5)
    with pytest.raises(ValueError):
        constant_mask(0)


@pytest.mark.parametrize("spec, defenses", [
    ("resolution:1,5,25", [resolution_reduce(1), resolution_reduce(5), resolution_reduce(25)]),
    ("noise:20", [noise_inject(20.0)]),
    ("noise:20:0.8", [noise_inject(20.0, 0.8)]),
    ("noise:20:0.8:7", [noise_inject(20.0, 0.8, 7)]),
    ("mask:2200000", [constant_mask(2_200_000)]),
])
def test_parse_defense(spec, defenses):
    assert parse_defense(spec) == defenses


@pytest.mark.parametrize("spec, message", [
    ("restrict", "collect --policy masked"),
    ("resolution", "needs factors"),
    ("resolution:1,0", "factor must be"),
    ("noise:", "needs a rate"),
    ("noise:20:0.5:0:9", "noise:RATE"),
    ("mask:fast", "spec 'mask:fast' is not an integer"),
    ("noise:20:high", "spec 'noise:20:high' is not a number"),
    ("blur:3", "unknown defense spec"),
])
def test_parse_defense_rejects(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_defense(spec)


def test_resolution_sample_and_hold():
    t = make_trace([RYZEN.pstates[i] for i in range(8)])
    out = apply_defense(resolution_reduce(3), t)
    expect = [t.samples[0]] * 3 + [t.samples[3]] * 3 + [t.samples[6]] * 2
    assert out.samples.tolist() == expect
    assert len(out) == len(t)
    assert out.interval_ms == t.interval_ms


def test_resolution_factor_one_is_identity():
    t = make_trace([RYZEN.pstates[i] for i in range(8)])
    assert apply_defense(resolution_reduce(1), t).samples.tolist() == t.samples.tolist()


def test_mask_replaces_everything():
    t = make_trace([RYZEN.pstates[i] for i in range(8)])
    out = apply_defense(constant_mask(2_200_000), t)
    assert set(out.samples) == {2_200_000}
    assert out.label == t.label


def test_mask_must_be_a_pstate_of_known_devices():
    t = make_trace([1_400_000] * 4)
    with pytest.raises(ValueError, match="pstate"):
        apply_defense(constant_mask(2_250_000), t)
    # unknown devices skip the grid check
    t2 = FrequencyTrace(samples=[1_000_000] * 4, interval_ms=10,
                        device="prototype-board", label="x")
    out = apply_defense(constant_mask(999_000), t2)
    assert set(out.samples) == {999_000}


def test_noise_rate_zero_is_identity():
    t = make_trace([2_000_000] * 50)
    assert apply_defense(noise_inject(0.0), t).samples.tolist() == t.samples.tolist()


def test_noise_is_seeded_and_salted():
    t = make_trace([2_000_000] * 200)
    d = noise_inject(5.0, burst_height=0.4, seed=3)
    a = apply_defense(d, t, salt=1)
    b = apply_defense(d, t, salt=1)
    c = apply_defense(d, t, salt=2)
    assert a.samples.tolist() == b.samples.tolist()
    assert a.samples.tolist() != c.samples.tolist()
    assert a.samples.tolist() != t.samples.tolist()


def test_noise_respects_profile_range():
    t = make_trace([4_000_000] * 300)
    out = apply_defense(noise_inject(20.0, burst_height=1.0), t)
    assert max(out.samples) <= RYZEN.boost_cap_khz
    assert min(out.samples) >= RYZEN.min_freq_khz
    assert len(out) == len(t)


def test_noise_bursts_are_plateaus():
    t = make_trace([1_400_000] * 400)
    out = apply_defense(noise_inject(2.0, burst_height=0.8, seed=1), t)
    elevated = [s != 1_400_000 for s in out.samples]
    runs = []
    n = 0
    for e in elevated:
        if e:
            n += 1
        elif n:
            runs.append(n)
            n = 0
    if n:
        runs.append(n)
    # 4-second trace at 2 Hz: 8 bursts of width 3..8, some may merge
    assert runs
    assert all(r >= 3 for r in runs)


def noise_loop(d, t, salt):
    """The per-sample loop the vectorised noise injection replaced, verbatim."""
    n = len(t.samples)
    duration_s = n * t.interval_ms / 1000.0
    n_bursts = int(round(d.burst_rate_hz * duration_s))
    if n_bursts == 0:
        return t.samples.tolist()
    lo, hi = _freq_range(t)
    span = hi - lo
    rng = np.random.default_rng(stable_seed(d.seed, "noise-inject", salt))
    positions = rng.integers(0, n, n_bursts)
    widths = rng.integers(NOISE_WIDTHS[0], NOISE_WIDTHS[1] + 1, n_bursts)
    scales = rng.uniform(0.5, 1.0, n_bursts)
    out = t.samples.tolist()
    for pos, width, scale in zip(positions, widths, scales):
        delta = int(round(d.burst_height * scale * span))
        for i in range(pos, min(pos + width, n)):
            out[i] = max(lo, min(hi, out[i] + delta))
    return out


NOISE_CASES = {  # case: (device, samples, rate Hz, height); 10 ms ticks
    "sparse": ("ryzen5", [2_000_000] * 300, 2.0, 0.5),
    "overlapping": ("ryzen5", [1_400_000] * 300, 80.0, 0.3),
    "saturating": ("ryzen5", [4_000_000] * 200, 50.0, 1.0),
    "zero_height_clamps": ("ryzen5", [100, 9_000_000] * 50, 60.0, 0.0),
    # below the range the first clamp discards part of a delta, so the
    # order of overlapping bursts decides the result
    "below_range_overlapping": ("ryzen5", [100] * 400, 150.0, 0.04),
    "short_edge_clipped": ("cortex_a73", [1_000_000] * 4, 500.0, 0.7),
    "one_sample": ("comet_lake", [2_000_000], 300.0, 0.9),
    "mixed_levels": ("comet_lake", [800_000, 2_600_000, 4_900_000, 1_200_000] * 75, 30.0, 0.45),
    "unknown_device": ("prototype-board", [1_000, 5_000, 3_000, 7_000] * 60, 40.0, 0.6),
    "unknown_device_flat": ("prototype-board", [42] * 50, 100.0, 1.0),
    # a sample plus its bursts passes 2**63 before the clamp brings it back
    "unknown_device_near_int64": ("prototype-board", [0, 2**62 + 2**61] * 50, 100.0, 1.0),
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_noise_matches_the_per_sample_loop(case, seed):
    device, samples, rate, height = NOISE_CASES[case]
    t = make_trace(samples, device=device)
    d = noise_inject(rate, burst_height=height, seed=seed)
    for salt in (0, 1, 12345):
        got = apply_defense(d, t, salt=salt).samples
        assert got.tolist() == noise_loop(d, t, salt)
        assert got.dtype == np.int64


def test_defended_dataset_matches_the_per_sample_loop_trace_by_trace():
    # each label mixes ryzen5 traces with an unknown device at other levels,
    # so one trace's bounds or noise stream reaching another's shows
    rng = np.random.default_rng(11)
    measurements = {}
    for label in ("a", "b", "c"):
        measurements[label] = [
            make_trace(rng.integers(1_000_000, 5_000_000, 120).tolist(), label)
            if i % 2 else make_trace(rng.integers(10 * i, 900 + 10 * i, 120).tolist(), label,
                                     device="prototype-board")
            for i in range(5)
        ]
    ds = LabeledDataset(classes=["a", "b", "c"], measurements=measurements)
    d = noise_inject(60.0, burst_height=0.4, seed=2)
    out = defended_dataset(d, ds)
    for label, traces in ds.measurements.items():
        for i, (t, got) in enumerate(zip(traces, out.measurements[label])):
            assert got.samples.tolist() == noise_loop(d, t, stable_seed("trace-salt", label, i))


def test_restrict_is_not_a_trace_transform():
    # access restriction is the masked source policy, not a Defense kind
    with pytest.raises(ValueError, match="unknown defense kind"):
        Defense(kind="access_restrict")


def test_defended_dataset_structure_and_salting():
    ds = sample_dataset()
    d = noise_inject(4.0, seed=0)
    out = defended_dataset(d, ds)
    assert out.classes == ds.classes
    assert out.total_measurements() == ds.total_measurements()
    # traces within one class get different noise
    a = out.measurements["c0"][0].samples.tolist()
    b = out.measurements["c0"][1].samples.tolist()
    assert a != b
    # reproducible end to end
    again = defended_dataset(d, sample_dataset())
    assert again.measurements["c0"][0].samples.tolist() == a


def test_one_defense_sweep_returns_clean_and_defended():
    ds = sample_dataset()
    trainer = lambda tr: train_knn_model(tr, k=3)
    (row,) = defense_sweep([constant_mask(1_400_000)], ds, trainer, *SPLIT)
    assert (row.kind, row.param) == ("constant_mask", "1400000")
    assert row.top1_clean == 1.0  # classes are trivially separable
    # masked traces carry no information: accuracy collapses toward chance
    assert row.top1_defended <= 0.6


def test_defense_sweep_rows_and_renderers():
    ds = sample_dataset()
    trainer = lambda tr: train_knn_model(tr, k=3)
    defenses = [resolution_reduce(1), resolution_reduce(4), constant_mask(1_400_000)]
    rows = defense_sweep(defenses, ds, trainer, *SPLIT)
    assert [r.param for r in rows] == ["1", "4", "1400000"]
    assert len({r.top1_clean for r in rows}) == 1  # shared baseline
    assert rows[0].top1_defended == rows[0].top1_clean  # factor 1 = identity
    csv = sweep_csv_lines(rows)
    assert csv[0] == "defense,param,top1_clean,top1_defended"
    assert len(csv) == 4


def test_param_labels():
    assert resolution_reduce(10).param_label() == "10"
    assert noise_inject(2.5, 0.75).param_label() == "2.5x0.75"
    assert constant_mask(1_700_000).param_label() == "1700000"
