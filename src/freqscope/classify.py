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
from array import array
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import forest, knn
from .dataset import DatasetFormatError, LabeledDataset
from .forest import ForestModel, ForestParams, forest_train
from .knn import KnnModel, fit_knn
from .profiles import get_profile
from .trace import atomic_writer, read_utf8

NORM_NONE = "none"
NORM_MINMAX = "minmax_per_profile"

MODEL_FORMAT = "freqscope-model"
MODEL_VERSION = 1
KNN_METRIC = "euclidean"  # the distance knn ranks by; a model file names it


def dataset_matrix(ds: LabeledDataset, normalization: str = NORM_NONE, rows=None, transform=None):
    """(X, labels) in deterministic label-sorted order: one float64 row of
    samples per trace, min-max scaled per row under NORM_MINMAX. `rows[label]`
    picks a label's traces by index, and `transform(label, idx, samples)` maps
    their int64 samples before they are written, a label at a time, into X."""
    picked = {label: range(len(ds.samples[label])) if rows is None else rows[label]
              for label in ds.classes}
    n = sum(len(idx) for idx in picked.values())
    if not n:
        raise ValueError("dataset holds no traces")
    if normalization not in (NORM_NONE, NORM_MINMAX):
        raise ValueError(f"unknown normalization {normalization!r}")
    X, at = np.empty((n, ds.samples[ds.classes[0]].shape[1])), 0
    for label, idx in picked.items():
        block = ds.samples[label] if rows is None else ds.samples[label][idx]
        X[at:at + len(idx)] = block if transform is None else transform(label, idx, block)
        at += len(idx)
    if normalization == NORM_MINMAX:
        devices = [ds.devices[label][i] for label, idx in picked.items() for i in idx]
        bounds = {}
        for device in dict.fromkeys(devices):
            try:
                profile = get_profile(device)
            except KeyError as exc:
                raise DatasetFormatError(
                    f"cannot normalize trace with unknown device {device!r}") from exc
            bounds[device] = (profile.min_freq_khz, profile.boost_cap_khz)
        lo, hi = np.array([bounds[device] for device in devices]).T[:, :, None]
        X -= lo
        X /= hi - lo
        np.clip(X, 0.0, 1.0, out=X)
    return X, [label for label, idx in picked.items() for _ in idx]


@dataclass
class TrainedModel:
    classifier: KnnModel | ForestModel
    normalization: str
    feature_length: int
    metadata: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The classifier's type: "knn" for a KnnModel, else "forest"."""
        return "knn" if isinstance(self.classifier, KnnModel) else "forest"

    def rank_many(self, X) -> np.ndarray:
        """[Q, C] rankings of the rows of X: indices into the classifier's
        `classes`, best first."""
        return (knn if self.kind == "knn" else forest).rank_many(self.classifier, X)[0]


def train_knn_model(train_ds: LabeledDataset, k: int = 4,
                    normalization: str = NORM_NONE,
                    metadata: dict | None = None, rows=None, transform=None) -> TrainedModel:
    return _train(fit_knn, k, train_ds, normalization, metadata, rows, transform)


def train_forest_model(train_ds: LabeledDataset, params: ForestParams | None = None,
                       normalization: str = NORM_NONE,
                       metadata: dict | None = None, rows=None, transform=None) -> TrainedModel:
    return _train(forest_train, params or ForestParams(), train_ds, normalization, metadata,
                  rows, transform)


def _train(fit, param, train_ds: LabeledDataset, normalization: str,
           metadata: dict | None, rows, transform) -> TrainedModel:
    """`fit(X, labels, param)` on the feature matrix of the dataset's rows."""
    X, labels = dataset_matrix(train_ds, normalization, rows, transform)
    return TrainedModel(classifier=fit(X, labels, param), normalization=normalization,
                        feature_length=X.shape[1], metadata=dict(metadata or {}))


@dataclass
class EvalReport:
    """`confusion[i, j]` counts test vectors of `labels[i]` ranked `labels[j]` first."""

    labels: list[str]
    topk_accuracy: dict[int, float]
    confusion: np.ndarray

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    @property
    def top1_accuracy(self) -> float:
        return float(np.trace(self.confusion)) / self.total

    @property
    def per_class_accuracy(self) -> dict[str, float]:
        """Label -> top-1 accuracy, for each label that has test vectors."""
        return {label: acc for label, acc, _ in self._class_rows()}

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
        counts = self.confusion.sum(axis=1).tolist()
        return [(label, self.confusion[i, i] / n, n)
                for i, (label, n) in enumerate(zip(self.labels, counts)) if n]

    def confusion_csv_lines(self) -> list[str]:
        header = "true\\pred," + ",".join(self.labels)
        rows = [header]
        for i, label in enumerate(self.labels):
            rows.append(label + "," + ",".join(str(int(v)) for v in self.confusion[i]))
        return rows


def evaluate(model: TrainedModel, test_ds: LabeledDataset, topk: tuple[int, ...] = (1, 5),
             rows=None, transform=None) -> EvalReport:
    """Rank the feature matrix of the dataset's rows (see `dataset_matrix`)."""
    X, truth = dataset_matrix(test_ds, model.normalization, rows, transform)
    if X.shape[1] != model.feature_length:
        raise DatasetFormatError(f"test feature length {X.shape[1]} != model feature length"
                                 f" {model.feature_length}")
    labels = sorted(set(model.classifier.classes) | set(truth))
    index = {label: i for i, label in enumerate(labels)}
    true_idx = np.array([index[label] for label in truth])
    ranked = np.array([index[label] for label in model.classifier.classes])[model.rank_many(X)]
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    np.add.at(confusion, (true_idx, ranked[:, 0]), 1)
    hits = knn.topk_hits(ranked, true_idx)  # a k past the class count takes them all
    accuracy = {k: int(hits[min(max(k, 1), len(hits)) - 1]) / len(truth) for k in topk}
    return EvalReport(labels=labels, topk_accuracy=accuracy, confusion=confusion)


def _classifier_payload(model: TrainedModel) -> dict:
    if model.kind == "knn":
        nn: KnnModel = model.classifier
        return {
            "k": nn.k,
            "metric": KNN_METRIC,
            "train_x": nn.train_x,
            "train_labels": list(nn.train_labels),
        }
    rf: ForestModel = model.classifier
    return {"params": asdict(rf.params), "classes": rf.classes, "trees": rf.trees}


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
        "classes": model.classifier.classes,
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
    text = read_utf8(path)
    try:
        return _model_from_doc(_read_model_json(text), path)
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file lacks key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc


def _read_model_json(text: str):
    """The document json.loads(text) gives, except that the top-level
    classifier's train_x is read a row at a time into a float64 matrix, so it
    never exists whole as Python floats."""
    decode, skip = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match

    def items(pos: int, close: str, item) -> int:
        """Call item(start) -> end on each comma-separated item up to `close`; return its end."""
        pos = skip(text, pos).end()
        if not text.startswith(close, pos):
            pos = skip(text, item(pos)).end()
            while text.startswith(",", pos):
                pos = skip(text, item(skip(text, pos + 1).end())).end()
        if not text.startswith(close, pos):
            raise json.JSONDecodeError(f"Expecting ',' delimiter or {close!r}", text, pos)
        return pos + 1

    def value(pos: int, path: tuple):
        if path == ("classifier", "train_x") and text.startswith("[", pos):
            matrix, shapes = array("d"), []  # the rows' values, end to end

            def row(pos: int) -> int:
                values, end = decode(text, pos)
                values = np.array(values, dtype=np.float64)
                matrix.frombytes(values.tobytes())
                shapes.append(values.shape)
                return end
            end = items(pos + 1, "]", row)
            if len(set(shapes)) != 1:  # np.stack's messages
                raise ValueError("all input arrays must have the same shape" if shapes
                                 else "need at least one array to stack")
            return np.frombuffer(matrix).reshape(len(shapes), *shapes[0]), end
        if path in ((), ("classifier",)) and text.startswith("{", pos):
            obj = {}

            def member(start: int) -> int:
                key, pos = decode(text, start)
                pos = skip(text, pos).end()
                if not isinstance(key, str) or not text.startswith(":", pos):
                    raise json.JSONDecodeError("Expecting a string key and ':'", text, start)
                obj[key], end = value(skip(text, pos + 1).end(), path + (key,))
                return end
            return obj, items(pos + 1, "}", member)
        return decode(text, pos)

    doc, end = value(skip(text, 0).end(), ())
    del value  # value's closure refers to itself: a cycle that keeps `text` until a gc pass
    if skip(text, end).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


def _check_nodes(trees: list, n_features: int, n_classes: int, path) -> None:
    """Every node must be a JSON object: a leaf with an integer label below
    n_classes, or a split with an integer f below n_features, a numeric t and
    objects l and r."""
    nodes = list(trees)
    while nodes:  # depth first, without recursion
        node = nodes.pop()
        if not isinstance(node, dict):
            raise ModelFormatError(f"{path}: forest node is not a JSON object")
        if "label" in node:
            ok = type(node["label"]) is int and 0 <= node["label"] < n_classes
        else:
            ok = type(node["f"]) is int and 0 <= node["f"] < n_features
            ok = ok and type(node["t"]) in (int, float)
            nodes += node["l"], node["r"]
        if not ok:
            raise ModelFormatError(
                f"{path}: forest node needs an integer label in [0, {n_classes}), or an"
                f" integer f in [0, {n_features}) and a numeric t, got"
                f" {({k: v for k, v in node.items() if k in ('label', 'f', 't')})}")


def _model_from_doc(doc: dict, path: str | os.PathLike) -> TrainedModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    if type(doc.get("version")) is not int or doc["version"] != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {doc.get('version')!r}")
    if doc["normalization"] not in (NORM_NONE, NORM_MINMAX):
        raise ModelFormatError(f"{path}: unknown normalization {doc['normalization']!r}")
    if type(doc["feature_length"]) is not int:
        raise ModelFormatError(f"{path}: non-integer feature_length {doc['feature_length']!r}")
    payload = doc["classifier"]
    if doc["kind"] == "knn":
        if payload["metric"] != KNN_METRIC:
            raise ModelFormatError(f"{path}: unsupported metric {payload['metric']!r}")
        classifier = KnnModel(k=payload["k"], train_x=payload["train_x"],
                              train_labels=list(payload["train_labels"]))
        # min and max propagate NaN: both are finite only if every value is
        if not np.isfinite([classifier.train_x.min(), classifier.train_x.max()]).all():
            raise ModelFormatError(f"{path}: train_x holds non-finite values")
        if doc["feature_length"] != classifier.train_x.shape[1]:
            raise ModelFormatError(f"{path}: feature_length {doc['feature_length']} != training"
                                   f" matrix width {classifier.train_x.shape[1]}")
    elif doc["kind"] == "forest":
        p = payload["params"]
        _check_nodes(payload["trees"], doc["feature_length"], len(payload["classes"]), path)
        classifier = ForestModel(
            params=ForestParams(**{f.name: p[f.name] for f in fields(ForestParams)}),
            classes=list(payload["classes"]), trees=payload["trees"])
    else:
        raise ModelFormatError(f"{path}: unknown model kind {doc['kind']!r}")
    if doc["classes"] != classifier.classes:
        raise ModelFormatError(f"{path}: classes differ from the classifier's {classifier.classes}")
    return TrainedModel(classifier=classifier, normalization=doc["normalization"],
                        feature_length=doc["feature_length"], metadata=dict(doc.get("metadata", {})))
