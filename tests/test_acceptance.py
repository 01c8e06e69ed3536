"""End-to-end acceptance checks for the whole pipeline.

Each test exercises one headline behavior at full scale: governor law
invariants over thousands of seeded workloads, exact KNN agreement with a
brute-force oracle, website fingerprinting on simulated traces, robustness
across governors and devices, keystroke/password recovery, countermeasure
efficacy, and the sampler contract. Every test prints a single
``ACCEPTANCE <n> <name>: PASS|FAIL`` verdict line.
"""

import contextlib
import math
from functools import partial
from importlib import resources

import numpy as np
import pytest

from freqscope.classify import (
    NORM_MINMAX,
    evaluate,
    train_forest_model,
    train_knn_model,
)
from freqscope.dataset import DEFAULT_FRACTIONS, LabeledDataset, stable_seed
from freqscope.defend import constant_mask, defense_sweep, resolution_reduce
from freqscope.forest import ForestParams
from freqscope.governors import (
    INTERACTIVE_BOOSTPULSE_MS,
    INTERACTIVE_LOAD_TRIGGER,
    SimConfig,
    simulate_batch,
)
from freqscope.keystroke import (
    detect_keystrokes,
    guess_curve,
    train_password_model,
)
from freqscope.knn import fit_knn
from freqscope.profiles import get_profile
from freqscope.sampler import CollectPlan, collect
from freqscope.sources import ReplaySource, SimSource
from freqscope.trace import FrequencyTrace
from freqscope.workloads import keystroke_workload, noise_workload, website_workload
from dataset_oracle import split_dataset
from helpers import knn_rank, merge_datasets, password_timing_vectors, repetitiveness, simulate
from knn_oracle import oracle_rank

WEBSITE_JITTER = 0.3  # per-measurement load jitter sigma for the fingerprint runs
CHANCE_Z = 2.576  # 99% two-sided normal quantile


@contextlib.contextmanager
def verdict(capsys, num: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: PASS", flush=True)


def website_dataset(profile_name: str, governor: str, *, jitter: float = WEBSITE_JITTER,
                    seed: int = 0, n_classes: int = 20, per_class: int = 30,
                    n_samples: int = 1000, interval_ms: int = 10) -> LabeledDataset:
    cfg = SimConfig(profile=get_profile(profile_name), governor=governor)
    labels = [f"site-{i:02d}" for i in range(n_classes)]
    # every trace in one engine call, one matrix row each, as the `simulate` command does
    loads = np.array([website_workload(label, n_samples, tick_ms=interval_ms,
                                       seed=stable_seed(seed, "website", label, m),
                                       jitter=jitter).loads
                      for label in labels for m in range(per_class)])
    rows = simulate_batch(loads, interval_ms, cfg)[0].reshape(n_classes, per_class, n_samples)
    return LabeledDataset({label: rows[c] for c, label in enumerate(labels)},
                          {label: [profile_name] * per_class for label in labels}, interval_ms)


SPLIT = (0, DEFAULT_FRACTIONS)  # the CLI's default split seed and fractions


def knn_top1(ds: LabeledDataset, normalization: str | None = None) -> float:
    train, _, test = split_dataset(ds, *SPLIT)
    kw = {"normalization": normalization} if normalization else {}
    model = train_knn_model(train, k=4, **kw)
    return evaluate(model, test, topk=(1,)).top1_accuracy


def chance_band(n_classes: int, n_test: int) -> float:
    p = 1.0 / n_classes
    return CHANCE_Z * math.sqrt(p * (1.0 - p) / n_test)


@pytest.fixture(scope="module")
def ryzen_ondemand():
    return website_dataset("ryzen5", "ondemand")


def test_acceptance_1_governor_invariants(capsys):
    with verdict(capsys, 1, "governor invariants"):
        ryzen = get_profile("ryzen5")
        cortex = get_profile("cortex_a73")
        ryzen_index = {f: i for i, f in enumerate(ryzen.pstates)}

        def assert_bounded(profile, samples):
            pstates = set(profile.pstates)
            assert all(s in pstates for s in samples)
            assert all(profile.min_freq_khz <= s <= profile.max_freq_khz
                       for s in samples)

        def simulate_all(cfg, key, tick_ms):
            """1000 noise workloads simulated as one matrix; the first 100
            again as a matrix of their own, which must give the same rows."""
            loads = np.array([noise_workload(60, tick_ms=tick_ms,
                                             seed=stable_seed(1, "invariant", key, i)).loads
                              for i in range(1000)])
            samples = simulate_batch(loads, tick_ms, cfg)[0]
            assert simulate_batch(loads[:100], tick_ms, cfg)[0].tolist() == samples[:100].tolist()
            return loads, samples

        for gov in ("performance", "powersave", "userspace", "ondemand",
                    "conservative", "schedutil"):
            cfg = SimConfig(profile=ryzen, governor=gov, turbo=False)
            for loads, samples in zip(*simulate_all(cfg, gov, 10)):
                assert_bounded(ryzen, samples)
                if gov == "ondemand":
                    # memoryless law: larger load never maps to a lower state
                    order = np.argsort(loads, kind="stable")
                    assert (np.diff(samples[order]) >= 0).all()
                elif gov == "conservative":
                    steps = [ryzen_index[s] for s in samples]
                    assert all(abs(b - a) <= 1 for a, b in zip(steps, steps[1:]))

        icfg = SimConfig(profile=cortex, governor="interactive")
        hispeed = icfg.hispeed_freq_khz
        hold_samples = INTERACTIVE_BOOSTPULSE_MS // 20
        for loads, s in zip(*simulate_all(icfg, "boost", 20)):
            assert_bounded(cortex, s)
            for t, load in enumerate(loads):
                if load >= INTERACTIVE_LOAD_TRIGGER and s[t] >= hispeed:
                    assert all(x >= hispeed for x in s[t:t + hold_samples])
        # at 10 ms ticks the 20 ms rate limit forbids back-to-back changes
        for _, s in zip(*simulate_all(icfg, "rate", 10)):
            for t in range(1, len(s) - 1):
                if s[t] != s[t - 1]:
                    assert s[t + 1] == s[t]


def test_acceptance_2_knn_oracle(capsys):
    with verdict(capsys, 2, "knn oracle equivalence"):
        rng = np.random.default_rng(777)
        checked = 0
        while checked < 200:
            n, dim = int(rng.integers(8, 40)), int(rng.integers(2, 12))
            labels = [f"c{int(v)}" for v in rng.integers(0, 5, size=n)]
            # integer coordinates force frequent exact distance ties
            x = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
            k = int(rng.integers(1, min(8, n) + 1))
            model = fit_knn(x, labels, k=k)
            for _ in range(10):
                q = rng.integers(0, 4, size=dim).astype(np.float64)
                got = knn_rank(model, q)
                want = oracle_rank(x.tolist(), labels, k, q.tolist())
                assert got == want
                checked += 1


def test_acceptance_3_website_fingerprinting(capsys, ryzen_ondemand):
    with verdict(capsys, 3, "website fingerprinting"):
        train, _, test = split_dataset(ryzen_ondemand, *SPLIT)
        knn = evaluate(train_knn_model(train, k=4), test, topk=(1, 5))
        assert knn.top1_accuracy >= 0.90
        assert knn.topk_accuracy[5] >= knn.top1_accuracy
        forest = evaluate(
            train_forest_model(train, ForestParams(n_trees=60, seed=7)),
            test, topk=(1, 5),
        )
        assert forest.top1_accuracy >= 0.90
        assert forest.topk_accuracy[5] >= forest.top1_accuracy


def test_acceptance_4_governor_sweep(capsys, ryzen_ondemand):
    with verdict(capsys, 4, "governor sweep"):
        accuracies = {"ondemand": knn_top1(ryzen_ondemand)}
        for gov in ("userspace", "conservative", "schedutil"):
            accuracies[gov] = knn_top1(website_dataset("ryzen5", gov))
        for gov, acc in accuracies.items():
            assert acc >= 0.60, f"{gov}: {acc}"
        # pinned governors leak nothing: zero-jitter controls sit at chance
        for gov in ("performance", "powersave"):
            ds = website_dataset("ryzen5", gov, jitter=0.0)
            acc = knn_top1(ds)
            n_test = split_dataset(ds, *SPLIT)[2].total_measurements()
            band = chance_band(len(ds.classes), n_test)
            assert abs(acc - 1.0 / len(ds.classes)) <= band, f"{gov}: {acc}"


def press_schedule(rng, with_short_gaps: bool) -> list[int]:
    """Press times on the 20 ms grid; short gaps are isolated, never adjacent."""
    n = int(rng.integers(3, 9))
    short = set()
    if with_short_gaps and n >= 2:
        want = max(1, round(0.2 * (n - 1)))
        for c in rng.permutation(n - 1).tolist():
            if c - 1 not in short and c + 1 not in short:
                short.add(c)
            if len(short) == want:
                break
    times = [400]
    for i in range(n - 1):
        if i in short:
            gap = int(rng.integers(6, 10)) * 20     # 120..180 ms
        else:
            gap = int(rng.integers(15, 46)) * 20    # 300..900 ms
        times.append(times[-1] + gap)
    return times


def test_acceptance_5_keystroke_detection(capsys):
    with verdict(capsys, 5, "keystroke detection"):
        cfg = SimConfig(profile=get_profile("cortex_a73"), governor="interactive")

        def run(kind, with_short_gaps):
            """200 press schedules and the keystroke reports of their traces.
            The workloads differ in length, so they are simulated as one
            zero-padded matrix and each row is cut back to its own length: a
            tick's frequency depends only on the loads up to that tick."""
            schedules, workloads = [], []
            for t in range(200):
                rng = np.random.default_rng(stable_seed(42, "keystrokes", kind, t))
                times = press_schedule(rng, with_short_gaps=with_short_gaps)
                schedules.append(times)
                workloads.append(keystroke_workload(times, times[-1] // 20 + 20, tick_ms=20,
                                                    seed=int(rng.integers(2**31))))
            loads = np.zeros((len(workloads), max(map(len, workloads))))
            for row, wl in zip(loads, workloads):
                row[:len(wl)] = wl.loads
            rows = simulate_batch(loads, 20, cfg)[0]
            return [(times, detect_keystrokes(FrequencyTrace(
                        samples=samples[:len(wl)], interval_ms=20, device=cfg.profile.name)))
                    for times, wl, samples in zip(schedules, workloads, rows)]

        for times, report in run("clean", False):
            # precision = recall = 1.0: same count, every press within a sample
            assert len(report.press_times_ms) == len(times)
            assert all(abs(a - b) <= 20
                       for a, b in zip(report.press_times_ms, times))

        count_correct = sum(report.press_count == len(times)
                            for times, report in run("short", True))
        assert count_correct / 200 >= 0.95


def test_acceptance_6_password_recovery(capsys):
    with verdict(capsys, 6, "password recovery"):
        text = (resources.files("freqscope") / "data" / "passwords.txt").read_text()
        passwords = [line.strip() for line in text.splitlines() if line.strip()]
        assert len(passwords) == 50
        ds = password_timing_vectors(passwords, per_label=10, seed=3)
        model, held_out = train_password_model(ds, split_seed=3)
        curve = guess_curve(model, held_out, 5)
        assert curve[0] >= 0.80
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[2] >= 0.95


def test_acceptance_7_countermeasure_efficacy(capsys, ryzen_ondemand):
    with verdict(capsys, 7, "countermeasure efficacy"):
        factors = (1, 2, 5, 10, 25, 50)
        defenses = [resolution_reduce(f) for f in factors]
        defenses.append(constant_mask(1_700_000))
        rows = defense_sweep(defenses, ryzen_ondemand,
                             partial(train_knn_model, k=4), *SPLIT)
        by_factor = {int(r.param): r.top1_defended for r in rows
                     if r.kind == "resolution_reduce"}
        masked = next(r for r in rows if r.kind == "constant_mask")
        clean = rows[0].top1_clean

        n_test = split_dataset(ryzen_ondemand, *SPLIT)[2].total_measurements()
        n_classes = len(ryzen_ondemand.classes)
        band = chance_band(n_classes, n_test)
        assert abs(masked.top1_defended - 1.0 / n_classes) <= band

        curve = [by_factor[f] for f in factors]
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 0.03  # degrades monotonically, small-sample slack
        assert clean - by_factor[10] >= 0.25


def test_acceptance_8_universal_model(capsys, ryzen_ondemand):
    with verdict(capsys, 8, "universal model"):
        comet = website_dataset("comet_lake", "powersave")
        best_single = max(knn_top1(ryzen_ondemand, NORM_MINMAX),
                          knn_top1(comet, NORM_MINMAX))
        merged = knn_top1(merge_datasets([ryzen_ondemand, comet]), NORM_MINMAX)
        assert merged >= best_single - 0.10


def test_acceptance_9_sampler_contract(capsys):
    with verdict(capsys, 9, "sampler contract"):
        cfg = SimConfig(profile=get_profile("ryzen5"), governor="ondemand")
        source_trace = simulate(noise_workload(300, tick_ms=10, seed=2024), cfg)
        plan = CollectPlan(interval_ms=10, samples_per_measurement=300,
                           measurements=1, label="replayed",
                           inter_measurement_sleep_ms=0)
        (got,) = collect(plan, ReplaySource(source_trace))
        assert list(got.samples) == list(source_trace.samples)

        # reading faster than the source changes wastes reads on duplicates
        wl = noise_workload(400, tick_ms=10, seed=9)
        src = SimSource(cfg, wl)
        stats = repetitiveness(src, [1, 10], 400)
        assert stats[1] > stats[10]
