"""Reference file codecs: the .ftrace line parser and renderer, the
`json.dump` model writer and the `json.loads` model reader.

These are the per-line and whole-document implementations that the bulk
codec in `freqscope.trace` and the streamed writer and reader in
`freqscope.classify` replaced, kept as the oracles the new code is
compared against byte for byte. `load_trace` first checks every body line
against `CANONICAL_LINE` and its LF, naming the first that fails, then
reads every line with `partition` and two `int()` calls; `render_trace`
builds one f-string per line, `save_model` encodes the whole document
with `json.dump`, and `load_model_doc` decodes it with `json.loads`
before `np.array` converts the classifier's `train_x`.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from freqscope.classify import MODEL_FORMAT, MODEL_VERSION, TrainedModel
from freqscope.forest import ForestModel
from freqscope.knn import KnnModel
from freqscope.trace import (
    _HEADER_KEYS,
    MAGIC,
    FrequencyTrace,
    TraceFormatError,
    atomic_writer,
    decode_label,
    encode_label,
)

# the one spelling of a body line: `index,freq_khz` in ASCII digits
CANONICAL_LINE = re.compile(r"[0-9]{1,19},[0-9]{1,19}")


def render_trace(trace: FrequencyTrace) -> str:
    """The text the parent's save_trace wrote."""
    lines = [MAGIC, f"#interval_ms={trace.interval_ms}", f"#device={encode_label(trace.device)}"]
    if trace.label is not None:
        lines.append(f"#label={encode_label(trace.label)}")
    for i, freq in enumerate(trace.samples):
        lines.append(f"{i},{freq}")
    return "\n".join(lines) + "\n"


def load_trace(path: str | os.PathLike) -> FrequencyTrace:
    """Parse a .ftrace file; inverse of save_trace."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()

    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise TraceFormatError(path, 1, f"missing magic header {MAGIC!r}")

    header: dict[str, str] = {}
    body_start = None
    for n, line in enumerate(lines[1:], start=2):
        if not line.startswith("#"):
            body_start = n
            break
        key, sep, value = line[1:].partition("=")
        if not sep:
            raise TraceFormatError(path, n, f"malformed header line {line!r}")
        if key not in _HEADER_KEYS:
            raise TraceFormatError(path, n, f"unknown header key {key!r}")
        if key in header:
            raise TraceFormatError(path, n, f"duplicate header key {key!r}")
        header[key] = value

    if "interval_ms" not in header:
        raise TraceFormatError(path, 1, "header lacks interval_ms")
    if not re.fullmatch("[0-9]+", header["interval_ms"]):
        raise TraceFormatError(path, 1, f"interval_ms is not an integer: {header['interval_ms']!r}")
    interval = int(header["interval_ms"])

    if body_start is None:
        raise TraceFormatError(path, len(lines), "empty body")

    for n, line in enumerate(lines[body_start - 1 :], start=body_start):
        if not CANONICAL_LINE.fullmatch(line) or (n == len(lines) and not raw.endswith("\n")):
            raise TraceFormatError(path, n, f"malformed sample line {line!r} (want index,freq_khz:"
                                   " 1-19 ASCII digits each, LF-terminated)")

    samples: list[int] = []
    for n, line in enumerate(lines[body_start - 1 :], start=body_start):
        idx_text, _, freq_text = line.partition(",")
        if int(idx_text) != len(samples):
            raise TraceFormatError(path, n, f"sample index {int(idx_text)} out of sequence"
                                   f" (expected {len(samples)})")
        samples.append(int(freq_text))

    try:
        return FrequencyTrace(
            samples=samples,
            interval_ms=interval,
            device=decode_label(header.get("device", "unknown")),
            label=decode_label(header["label"]) if "label" in header else None,
        )
    except ValueError as exc:
        raise TraceFormatError(path, body_start, str(exc)) from None


def _classifier_payload(model: TrainedModel) -> dict:
    if model.kind == "knn":
        knn: KnnModel = model.classifier
        return {
            "k": knn.k,
            "metric": "euclidean",
            "train_x": knn.train_x.tolist(),
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
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_model_doc(text: str):
    """The document the parent's load_model read from a model file's text."""
    doc = json.loads(text)
    payload = doc.get("classifier") if isinstance(doc, dict) else None
    if isinstance(payload, dict) and "train_x" in payload:
        payload["train_x"] = np.array(payload["train_x"], dtype=np.float64)
    return doc
