"""Fingerprinting pipeline: feature handling, evaluation and the model file
container.

A feature vector is the raw samples of one trace, as float64. The only
transform is min-max normalization against the trace's device profile,
mapping [min_freq, turbo-ceiling-or-max] to [0, 1]; it makes traces from
different devices comparable so merged-dataset (universal model)
experiments work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .forest import ForestModel, ForestParams, forest_rank, forest_train
from .knn import KnnModel, fit_knn, rank_many
from .profiles import get_profile
from .trace import atomic_writer

NORM_NONE = "none"
NORM_MINMAX = "minmax_per_profile"

MODEL_FORMAT = "freqscope-model"
MODEL_VERSION = 1


def dataset_matrix(ds: LabeledDataset, normalization: str = NORM_NONE):
    """(X, labels) in deterministic label-sorted order: one float64 row of
    samples per trace, min-max scaled per row under NORM_MINMAX."""
    pairs = list(ds.items())
    if not pairs:
        raise ValueError("dataset holds no traces")
    if normalization not in (NORM_NONE, NORM_MINMAX):
        raise ValueError(f"unknown normalization {normalization!r}")
    X = np.stack([trace.samples for _, trace in pairs], dtype=np.float64)
    if normalization == NORM_MINMAX:
        bounds = {}
        for device in dict.fromkeys(trace.device for _, trace in pairs):
            try:
                profile = get_profile(device)
            except KeyError as exc:
                raise ValueError(f"cannot normalize trace with unknown device {device!r}") from exc
            bounds[device] = (profile.min_freq_khz, profile.boost_cap_khz)
        lo, hi = np.array([bounds[trace.device] for _, trace in pairs]).T[:, :, None]
        X = np.clip((X - lo) / (hi - lo), 0.0, 1.0)
    return X, [label for label, _ in pairs]


@dataclass
class TrainedModel:
    kind: str
    classifier: KnnModel | ForestModel
    normalization: str
    feature_length: int
    classes: list[str]
    metadata: dict = field(default_factory=dict)

    def rank_many(self, X) -> np.ndarray:
        """[Q, C] rankings of the rows of X: indices into the classifier's
        `classes`, best first."""
        if self.kind == "knn":
            return rank_many(self.classifier, X)[0]
        classes = self.classifier.classes
        index = {label: c for c, label in enumerate(classes)}
        return np.array([[index[label] for label, _ in forest_rank(self.classifier, x)]
                         for x in X], dtype=np.intp).reshape(len(X), len(classes))


def train_knn_model(train_ds: LabeledDataset, k: int = 4,
                    normalization: str = NORM_NONE,
                    metadata: dict | None = None) -> TrainedModel:
    return _train("knn", fit_knn, k, train_ds, normalization, metadata)


def train_forest_model(train_ds: LabeledDataset, params: ForestParams | None = None,
                       normalization: str = NORM_NONE,
                       metadata: dict | None = None) -> TrainedModel:
    return _train("forest", forest_train, params or ForestParams(), train_ds, normalization,
                  metadata)


def _train(kind: str, fit, param, train_ds: LabeledDataset, normalization: str,
           metadata: dict | None) -> TrainedModel:
    """`fit(X, labels, param)` on the dataset's feature matrix."""
    X, labels = dataset_matrix(train_ds, normalization)
    model = fit(X, labels, param)
    return TrainedModel(
        kind=kind,
        classifier=model,
        normalization=normalization,
        feature_length=X.shape[1],
        classes=model.classes,
        metadata=dict(metadata or {}),
    )


@dataclass
class EvalReport:
    labels: list[str]
    top1_accuracy: float
    topk_accuracy: dict[int, float]
    confusion: np.ndarray
    per_class_accuracy: dict[str, float]
    total: int

    def to_text(self) -> str:
        lines = [f"test vectors: {self.total}", f"top-1 accuracy: {self.top1_accuracy:.4f}"]
        for k in sorted(self.topk_accuracy):
            if k != 1:
                lines.append(f"top-{k} accuracy: {self.topk_accuracy[k]:.4f}")
        lines.append("")
        lines.append(f"{'class':<30} {'accuracy':>8} {'n':>5}")
        lines += [f"{label:<30} {acc:>8.4f} {n:>5}" for label, acc, n in self._class_rows()]
        return "\n".join(lines) + "\n"

    def key_value_lines(self) -> list[str]:
        lines = [f"total = {self.total}", f"top1 = {self.top1_accuracy:.6f}"]
        for k in sorted(self.topk_accuracy):
            if k != 1:
                lines.append(f"top{k} = {self.topk_accuracy[k]:.6f}")
        lines += [f"class.{label} = {acc:.6f}" for label, acc, _ in self._class_rows()]
        return lines

    def _class_rows(self) -> list[tuple[str, float, int]]:
        """(label, accuracy, test vectors) of each class that has test vectors."""
        counts = dict(zip(self.labels, self.confusion.sum(axis=1).tolist()))
        return [(label, acc, counts[label]) for label, acc in self.per_class_accuracy.items()]

    def confusion_csv_lines(self) -> list[str]:
        header = "true\\pred," + ",".join(self.labels)
        rows = [header]
        for i, label in enumerate(self.labels):
            rows.append(label + "," + ",".join(str(int(v)) for v in self.confusion[i]))
        return rows


def evaluate(model: TrainedModel, test_ds: LabeledDataset,
             topk: tuple[int, ...] = (1, 5)) -> EvalReport:
    X, truth = dataset_matrix(test_ds, model.normalization)
    if X.shape[1] != model.feature_length:
        raise ValueError(
            f"test feature length {X.shape[1]} != model feature length {model.feature_length}"
        )
    labels = sorted(set(model.classes) | set(truth))
    index = {label: i for i, label in enumerate(labels)}
    true_idx = np.array([index[label] for label in truth])
    ranked = np.array([index[label] for label in model.classifier.classes])[model.rank_many(X)]
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    np.add.at(confusion, (true_idx, ranked[:, 0]), 1)
    found = ranked == true_idx[:, None]
    hits = {k: int(np.count_nonzero(found[:, :max(k, 1)].any(axis=1))) for k in topk}

    total = len(truth)
    per_class = {}
    for label in labels:
        i = index[label]
        row = confusion[i].sum()
        if row:
            per_class[label] = confusion[i, i] / row
    top1 = float(np.trace(confusion)) / total
    return EvalReport(
        labels=labels,
        top1_accuracy=top1,
        topk_accuracy={k: hits[k] / total for k in topk},
        confusion=confusion,
        per_class_accuracy=per_class,
        total=total,
    )


def _classifier_payload(model: TrainedModel) -> dict:
    if model.kind == "knn":
        knn: KnnModel = model.classifier
        return {
            "k": knn.k,
            "metric": knn.metric,
            "train_x": knn.train_x,
            "train_labels": list(knn.train_labels),
        }
    forest: ForestModel = model.classifier
    p = forest.params
    return {
        "params": {
            "n_trees": p.n_trees,
            "max_depth": p.max_depth,
            "min_leaf": p.min_leaf,
            "feature_subsample": p.feature_subsample,
            "seed": p.seed,
        },
        "classes": forest.classes,
        "trees": forest.trees,
    }


class ModelFormatError(ValueError):
    """Raised for model files of another format or version, or with missing
    or ill-typed keys."""


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    """Write the model atomically: a failed write leaves `path` untouched."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "normalization": model.normalization,
        "feature_length": model.feature_length,
        "classes": model.classes,
        "metadata": model.metadata,
        "classifier": _classifier_payload(model),
    }
    with atomic_writer(path) as fh:
        _write_json(fh, doc)
        fh.write("\n")


def _write_json(fh, value) -> None:
    """Write the text of json.dump(value, fh, separators=(",", ":"),
    sort_keys=True) with the C encoder. Dicts with string keys are walked in
    sorted key order and a numpy matrix is written one row at a time, so
    neither the matrix as Python floats nor the document as one string
    ever exists whole."""
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        fh.write("{")
        for i, key in enumerate(sorted(value)):
            fh.write(("," if i else "") + json.dumps(key) + ":")
            _write_json(fh, value[key])
        fh.write("}")
    elif isinstance(value, np.ndarray):
        fh.write("[")
        for i, row in enumerate(value):
            fh.write(("," if i else "") + _dumps(row.tolist()))
        fh.write("]")
    else:
        fh.write(_dumps(value))


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def load_model(path: str | os.PathLike) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _model_from_doc(json.loads(text), path)
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file lacks key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc


def _model_from_doc(doc: dict, path: str | os.PathLike) -> TrainedModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {doc.get('version')}")
    payload = doc["classifier"]
    if doc["kind"] == "knn":
        classifier = KnnModel(
            k=payload["k"],
            train_x=np.array(payload["train_x"], dtype=np.float64),
            train_labels=list(payload["train_labels"]),
            metric=payload["metric"],
        )
        # min and max propagate NaN: both are finite only if every value is
        if not np.isfinite([classifier.train_x.min(), classifier.train_x.max()]).all():
            raise ModelFormatError(f"{path}: train_x holds non-finite values")
        if doc["feature_length"] != classifier.train_x.shape[1]:
            raise ModelFormatError(
                f"{path}: feature_length {doc['feature_length']} != training matrix"
                f" width {classifier.train_x.shape[1]}"
            )
    elif doc["kind"] == "forest":
        p = payload["params"]
        if not all(isinstance(tree, dict) for tree in payload["trees"]):
            raise ModelFormatError(f"{path}: forest trees must be JSON objects")
        classifier = ForestModel(
            params=ForestParams(
                n_trees=p["n_trees"],
                max_depth=p["max_depth"],
                min_leaf=p["min_leaf"],
                feature_subsample=p["feature_subsample"],
                seed=p["seed"],
            ),
            classes=list(payload["classes"]),
            trees=payload["trees"],
        )
    else:
        raise ModelFormatError(f"{path}: unknown model kind {doc['kind']!r}")
    return TrainedModel(
        kind=doc["kind"],
        classifier=classifier,
        normalization=doc["normalization"],
        feature_length=doc["feature_length"],
        classes=list(doc["classes"]),
        metadata=dict(doc.get("metadata", {})),
    )
