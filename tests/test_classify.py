"""Feature normalization, model training/evaluation, merging, model files."""

import numpy as np
import pytest

from freqscope import forest, knn
from freqscope.classify import (
    NORM_MINMAX,
    NORM_NONE,
    EvalReport,
    dataset_matrix,
    evaluate,
    load_model,
    save_model,
    train_forest_model,
    train_knn_model,
)
from freqscope.dataset import LabeledDataset, split_dataset
from freqscope.forest import ForestParams
from freqscope.profiles import get_profile
from freqscope.trace import FrequencyTrace
from forest_oracle import forest_rank
from helpers import merge_datasets
from knn_oracle import loop_rank

RYZEN = get_profile("ryzen5")


def make_trace(samples, label, device="ryzen5"):
    return FrequencyTrace(samples=samples, interval_ms=10, device=device, label=label)


def separable_dataset(n_classes=3, per_class=6, length=20, device="ryzen5"):
    """Class i concentrates around its own pstate level: trivially separable."""
    profile = get_profile(device)
    rng = np.random.default_rng(42)
    classes = [f"c{i}" for i in range(n_classes)]
    measurements = {}
    for i, label in enumerate(classes):
        level = profile.pstates[2 + 4 * i]
        rows = []
        for _ in range(per_class):
            jitter = rng.integers(0, 2, size=length)
            rows.append(make_trace(
                [profile.pstates[profile.pstate_index(level) + int(j)] for j in jitter],
                label, device,
            ))
        measurements[label] = rows
    return LabeledDataset(classes=classes, measurements=measurements)


SPLIT = (1, (0.5, 0.0, 0.5))  # separable_dataset's split seed and fractions


def one_trace_matrix(samples, device="ryzen5"):
    ds = LabeledDataset(classes=["a"], measurements={"a": [make_trace(samples, "a", device)]})
    X, _ = dataset_matrix(ds, NORM_MINMAX)
    return X[0].tolist()


def test_normalize_minmax_maps_profile_range():
    assert one_trace_matrix([RYZEN.min_freq_khz, RYZEN.boost_cap_khz]) == [0.0, 1.0]


def test_normalize_minmax_clips_out_of_range():
    assert one_trace_matrix([0, 9_999_999]) == [0.0, 1.0]


def per_trace_matrix(ds, normalization):
    """The per-trace rows the stacked matrix replaced: each trace cast to
    float64 and scaled by its own profile's Python-int bounds."""
    rows = []
    for _, trace in ds.items():
        values = np.array(trace.samples.tolist(), dtype=np.float64)
        if normalization == NORM_MINMAX:
            profile = get_profile(trace.device)
            lo, hi = profile.min_freq_khz, profile.boost_cap_khz
            values = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
        rows.append(values)
    return np.vstack(rows)


@pytest.mark.parametrize("normalization", [NORM_NONE, NORM_MINMAX])
def test_dataset_matrix_is_bit_identical_to_per_trace_rows(normalization):
    rng = np.random.default_rng(8)
    devices = ["ryzen5", "cortex_a73", "comet_lake"]
    measurements = {
        label: [make_trace(rng.integers(0, 6_000_000, 50), label, devices[(i + j) % 3])
                for j in range(4)]
        for i, label in enumerate(["b", "a", "c"])
    }
    ds = LabeledDataset(classes=["b", "a", "c"], measurements=measurements)
    X, labels = dataset_matrix(ds, normalization)
    assert labels == ["a"] * 4 + ["b"] * 4 + ["c"] * 4
    assert X.dtype == np.float64
    assert X.tobytes() == per_trace_matrix(ds, normalization).tobytes()


def test_minmax_in_place_matches_the_out_of_place_expression():
    """The in-place subtract, divide and clip give the bytes of the
    expression they replaced, on samples below each profile's minimum, at
    both bounds and above its boost cap, over mixed devices."""
    devices = ["ryzen5", "cortex_a73", "comet_lake"]
    measurements = {}
    for i, label in enumerate(["a", "b", "c"]):
        rows = []
        for j, device in enumerate(devices):
            p = get_profile(device)
            lo, hi = p.min_freq_khz, p.boost_cap_khz
            rows.append(make_trace([0, lo - 1, lo, lo + 7 * (i + j + 1), (lo + hi) // 3, hi - 1,
                                    hi, hi + 1, 2 * hi, 2**62], label, device))
        measurements[label] = rows
    ds = LabeledDataset(classes=["a", "b", "c"], measurements=measurements)
    X, _ = dataset_matrix(ds, NORM_MINMAX)
    raw, _ = dataset_matrix(ds, NORM_NONE)
    bounds = np.array([[get_profile(t.device).min_freq_khz, get_profile(t.device).boost_cap_khz]
                       for _, t in ds.items()])
    lo, hi = bounds.T[:, :, None]
    want = np.clip((raw - lo) / (hi - lo), 0.0, 1.0)
    assert X.tobytes() == want.tobytes()
    assert X.flags.c_contiguous and X.flags.writeable
    assert 0.0 in X and 1.0 in X


def test_dataset_matrix_orders_by_label():
    ds = separable_dataset()
    X, labels = dataset_matrix(ds)
    assert labels == sorted(labels)
    assert X.shape == (18, 20)
    Xn, _ = dataset_matrix(ds, NORM_MINMAX)
    assert Xn.min() >= 0.0 and Xn.max() <= 1.0


def test_dataset_matrix_unknown_normalization():
    with pytest.raises(ValueError, match="normalization"):
        dataset_matrix(separable_dataset(), "standard")


def test_dataset_matrix_unknown_device():
    ds = separable_dataset()
    label = ds.classes[0]
    bad = [make_trace(t.samples, label, device="mystery") for t in ds.measurements[label]]
    ds2 = LabeledDataset(classes=ds.classes, measurements={**ds.measurements, label: bad})
    with pytest.raises(ValueError, match="unknown device"):
        dataset_matrix(ds2, NORM_MINMAX)


def test_knn_model_end_to_end():
    train, _, test = split_dataset(separable_dataset(), *SPLIT)
    model = train_knn_model(train, k=3)
    assert model.kind == "knn"
    assert model.classifier.classes == ["c0", "c1", "c2"]
    report = evaluate(model, test, topk=(1, 2))
    assert report.top1_accuracy == 1.0
    assert report.topk_accuracy[2] == 1.0
    assert report.total == 9


def test_forest_model_end_to_end():
    train, _, test = split_dataset(separable_dataset(), *SPLIT)
    model = train_forest_model(train, ForestParams(n_trees=15, seed=3))
    report = evaluate(model, test)
    assert report.top1_accuracy == 1.0


def test_confusion_rows_sum_to_class_counts():
    train, _, test = split_dataset(separable_dataset(per_class=8), *SPLIT)
    model = train_knn_model(train, k=1)
    report = evaluate(model, test)
    assert report.confusion.sum() == report.total
    for i, label in enumerate(report.labels):
        assert report.confusion[i].sum() == 4  # test split of 8 at 0.5


def test_topk_accuracy_non_decreasing():
    train, _, test = split_dataset(separable_dataset(n_classes=4), *SPLIT)
    model = train_knn_model(train, k=4)
    report = evaluate(model, test, topk=(1, 2, 3, 4))
    accs = [report.topk_accuracy[k] for k in (1, 2, 3, 4)]
    assert all(a <= b for a, b in zip(accs, accs[1:]))
    assert report.topk_accuracy[4] == 1.0  # 4 classes: top-4 covers all


def noisy_dataset(classes, per_class=8, length=12, seed=0):
    """Random pstates per trace: classes overlap, so rankings vary."""
    rng = np.random.default_rng(seed)
    return LabeledDataset(classes=classes, measurements={
        label: [make_trace(rng.choice(RYZEN.pstates, size=length).tolist(), label)
                for _ in range(per_class)]
        for label in classes
    })


@pytest.mark.parametrize("kind", ["knn", "forest"])
def test_evaluate_matches_per_query_rankings(kind):
    train = noisy_dataset(["a", "b", "c", "d"], seed=1)
    test = noisy_dataset(["a", "b", "c", "d", "unseen"], per_class=5, seed=2)
    if kind == "knn":
        model = train_knn_model(train, k=3)
        rank = lambda x: loop_rank(model.classifier, x)  # noqa: E731
    else:
        model = train_forest_model(train, ForestParams(n_trees=5, seed=4))
        rank = lambda x: forest_rank(model.classifier, x)  # noqa: E731
    topk = (0, 1, 2, 9)
    report = evaluate(model, test, topk=topk)

    X, truth = dataset_matrix(test)
    labels = sorted(set(model.classifier.classes) | set(truth))
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    hits = dict.fromkeys(topk, 0)
    for x, true_label in zip(X, truth):
        ranking = [label for label, _ in rank(x)]
        confusion[labels.index(true_label), labels.index(ranking[0])] += 1
        for k in topk:
            hits[k] += true_label in ranking[:max(k, 1)]
    assert report.labels == labels
    assert report.confusion.tobytes() == confusion.tobytes()
    assert report.topk_accuracy == {k: hits[k] / len(truth) for k in topk}
    assert 0 < report.top1_accuracy < 1


def test_feature_length_mismatch_rejected():
    train, _, _ = split_dataset(separable_dataset(length=20), *SPLIT)
    _, _, other_test = split_dataset(separable_dataset(length=24), *SPLIT)
    model = train_knn_model(train)
    with pytest.raises(ValueError, match="feature length"):
        evaluate(model, other_test)


def test_report_rendering_has_no_duplicate_topk():
    train, _, test = split_dataset(separable_dataset(), *SPLIT)
    model = train_knn_model(train)
    report = evaluate(model, test, topk=(1, 2))
    text = report.to_text()
    assert text.count("top-1 accuracy") == 1
    kv = report.key_value_lines()
    assert sum(1 for line in kv if line.startswith("top1 ")) == 1
    csv = report.confusion_csv_lines()
    assert csv[0].startswith("true\\pred,")
    assert len(csv) == 1 + len(report.labels)


def test_merge_datasets_unions_measurements():
    a = separable_dataset(device="ryzen5")
    b = separable_dataset(device="comet_lake")
    merged = merge_datasets([a, b])
    assert merged.total_measurements() == a.total_measurements() + b.total_measurements()
    assert {len(t) for _, t in merged.items()} == {len(t) for _, t in a.items()}
    assert sorted(merged.classes) == sorted(a.classes)


def test_merge_rejects_mismatched_classes():
    a = separable_dataset(n_classes=3)
    b = separable_dataset(n_classes=4)
    with pytest.raises(ValueError, match="class sets"):
        merge_datasets([a, b])
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_datasets([])


def test_merge_rejects_mismatched_trace_lengths():
    a = separable_dataset(length=20)
    b = separable_dataset(length=30)
    with pytest.raises(ValueError, match="sample count"):
        merge_datasets([a, b])


@pytest.mark.parametrize("kind", ["knn", "forest"])
def test_model_round_trip_preserves_predictions(tmp_path, kind):
    train, _, test = split_dataset(separable_dataset(), *SPLIT)
    if kind == "knn":
        model = train_knn_model(train, k=3, normalization=NORM_MINMAX,
                                metadata={"note": "unit"})
    else:
        model = train_forest_model(train, ForestParams(n_trees=7, seed=5),
                                   normalization=NORM_MINMAX)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == model.kind
    assert loaded.normalization == NORM_MINMAX
    assert loaded.classifier.classes == model.classifier.classes
    assert loaded.metadata == model.metadata
    X, _ = dataset_matrix(test, NORM_MINMAX)
    assert loaded.rank_many(X).tobytes() == model.rank_many(X).tobytes()
    # the votes too: each score is votes / k, or votes / trees
    ranker = knn if kind == "knn" else forest
    assert ranker.rank_many(loaded.classifier, X)[1].tobytes() == \
        ranker.rank_many(model.classifier, X)[1].tobytes()


def test_model_file_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ValueError, match="not a"):
        load_model(path)
    path.write_text('{"format": "freqscope-model", "version": 99}\n')
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_failed_save_model_leaves_existing_file(tmp_path):
    train, _, _ = split_dataset(separable_dataset(), *SPLIT)
    path = tmp_path / "m.json"
    save_model(train_knn_model(train, k=3), path)
    before = path.read_bytes()
    # the metadata value cannot be serialised: json.dump fails mid-write
    bad = train_knn_model(train, k=1, metadata={"note": object()})
    with pytest.raises(TypeError):
        save_model(bad, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
