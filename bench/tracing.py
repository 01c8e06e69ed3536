"""Spans around freqscope's public layer functions, recorded from outside
the package.

`instrument()` replaces each target function, in every freqscope module
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent span, pass id) and a few counts read from the call's
arguments and result. Counting happens after the span closes and its cost
is kept out of the parent's self time. The originals come back on exit.

`layer_metrics()` turns one pass's spans into the per-layer metrics: busy
time as self time (span duration minus direct children), plus counts.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    pass_id: int
    start: float
    end: float = 0.0
    aux: float = 0.0  # counting time spent after `end`, inside the parent
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store; one per run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, self.pass_id, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def _file_size(path) -> int:
    return os.path.getsize(os.fspath(path))


def _tree_nodes(tree: dict) -> int:
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        n += 1
        if "label" not in node:
            stack.extend((node["l"], node["r"]))
    return n


# (module, function, span name, counts from (args, result))
Counter = Callable[[tuple, object], dict] | None
TARGETS: list[tuple[str, str, str, Counter]] = [
    ("workloads", "website_workload", "workloads.synth", lambda a, r: {"ticks": len(r)}),
    ("workloads", "keystroke_workload", "workloads.synth", lambda a, r: {"ticks": len(r)}),
    ("governors", "simulate", "governors.simulate", lambda a, r: {"ticks": len(r)}),
    ("sampler", "collect", "sampler.collect", lambda a, r: {
        "reads": sum(len(t) for t in r),
        "measurements_done": len(r),
        "measurements_planned": a[0].measurements,
    }),
    ("dataset", "save_dataset", "dataset.save", None),
    ("trace", "save_trace", "dataset.save", lambda a, r: {
        "files": 1, "bytes_written": _file_size(a[1])}),
    ("dataset", "load_dataset", "dataset.load", None),
    ("trace", "load_trace", "dataset.load", lambda a, r: {
        "files": 1, "bytes_read": _file_size(a[0])}),
    ("dataset", "split_dataset", "dataset.split", None),
    ("classify", "dataset_matrix", "classify.matrix", None),
    ("classify", "evaluate", "classify.evaluate", lambda a, r: {"queries": r.total}),
    ("classify", "save_model", "classify.model_save", lambda a, r: {
        "model_bytes": _file_size(a[1])}),
    ("classify", "load_model", "classify.model_load", None),
    ("knn", "fit_knn", "knn.fit", None),
    ("knn", "knn_rank", "knn.rank", lambda a, r: {"queries": 1}),
    ("forest", "forest_train", "forest.train", lambda a, r: {
        "trees": len(r.trees), "nodes": sum(_tree_nodes(t) for t in r.trees)}),
    ("forest", "forest_rank", "forest.rank", lambda a, r: {"queries": 1}),
    ("keystroke", "detect_keystrokes", "keystroke.detect", lambda a, r: {
        "traces": 1, "presses": r.press_count}),
    ("keystroke", "train_password_model", "keystroke.train", None),
    ("keystroke", "guess_curve", "keystroke.guess", lambda a, r: {"guess_queries": len(a[1])}),
    ("defend", "defended_dataset", "defend.transform", lambda a, r: {
        "traces_transformed": r.total_measurements()}),
    ("defend", "defense_sweep", "defend.sweep", lambda a, r: {"rows": len(r)}),
]


def _wrap(tracer: Tracer, name: str, fn, count: Counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if count is not None:
            t0 = time.perf_counter()
            for key, value in count(args, result).items():
                rec.counts[key] = rec.counts.get(key, 0) + value
            rec.aux = time.perf_counter() - t0
        return result
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target; yields the names of targets freqscope lacks."""
    missing = []
    patched = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "freqscope" or name.startswith("freqscope."))]
    for mod_name, fn_name, span_name, count in TARGETS:
        original = getattr(importlib.import_module(f"freqscope.{mod_name}"), fn_name, None)
        if original is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = _wrap(tracer, span_name, original, count)
        for module in modules:
            if module.__dict__.get(fn_name) is original:
                setattr(module, fn_name, wrapper)
                patched.append((module, fn_name, original))
    try:
        yield missing
    finally:
        for module, fn_name, original in reversed(patched):
            setattr(module, fn_name, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its direct children's durations and the
    counting time that ran inside it."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= (s.end - s.start) + s.aux
    return out


# metric -> (span names, "self" for summed self time, or a count key)
LAYER_METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "workloads.synth_s": (("workloads.synth",), "self"),
    "workloads.ticks": (("workloads.synth",), "ticks"),
    "governors.simulate_s": (("governors.simulate",), "self"),
    "governors.ticks": (("governors.simulate",), "ticks"),
    "sampler.collect_s": (("sampler.collect",), "self"),
    "sampler.reads": (("sampler.collect",), "reads"),
    "sampler.measurements_done": (("sampler.collect",), "measurements_done"),
    "sampler.measurements_planned": (("sampler.collect",), "measurements_planned"),
    "dataset.save_s": (("dataset.save",), "self"),
    "dataset.load_s": (("dataset.load",), "self"),
    "dataset.files": (("dataset.save", "dataset.load"), "files"),
    "dataset.bytes_written": (("dataset.save",), "bytes_written"),
    "dataset.bytes_read": (("dataset.load",), "bytes_read"),
    "dataset.split_s": (("dataset.split",), "self"),
    "classify.matrix_s": (("classify.matrix",), "self"),
    "classify.evaluate_s": (("classify.evaluate",), "self"),
    "classify.queries": (("classify.evaluate",), "queries"),
    "classify.model_save_s": (("classify.model_save",), "self"),
    "classify.model_load_s": (("classify.model_load",), "self"),
    "classify.model_bytes": (("classify.model_save",), "model_bytes"),
    "knn.fit_s": (("knn.fit",), "self"),
    "knn.rank_s": (("knn.rank",), "self"),
    "knn.queries": (("knn.rank",), "queries"),
    "forest.train_s": (("forest.train",), "self"),
    "forest.trees": (("forest.train",), "trees"),
    "forest.nodes": (("forest.train",), "nodes"),
    "forest.rank_s": (("forest.rank",), "self"),
    "forest.queries": (("forest.rank",), "queries"),
    "keystroke.detect_s": (("keystroke.detect",), "self"),
    "keystroke.traces": (("keystroke.detect",), "traces"),
    "keystroke.presses": (("keystroke.detect",), "presses"),
    "keystroke.train_s": (("keystroke.train",), "self"),
    "keystroke.guess_s": (("keystroke.guess",), "self"),
    "keystroke.guess_queries": (("keystroke.guess",), "guess_queries"),
    "defend.transform_s": (("defend.transform",), "self"),
    "defend.traces_transformed": (("defend.transform",), "traces_transformed"),
    "defend.sweep_s": (("defend.sweep",), "self"),
    "defend.rows": (("defend.sweep",), "rows"),
}

# throughput metric -> (count metric, time metric)
RATES = {
    "governors.ticks_per_s": ("governors.ticks", "governors.simulate_s"),
    "knn.queries_per_s": ("knn.queries", "knn.rank_s"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass's spans; layers not called read 0."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}
    for metric, (names, what) in LAYER_METRICS.items():
        group = [s for name in names for s in by_name.get(name, [])]
        if what == "self":
            out[metric] = sum(own[s.id] for s in group)
        else:
            out[metric] = sum(s.counts.get(what, 0) for s in group)
    for metric, (count, secs) in RATES.items():
        out[metric] = out[count] / out[secs] if out[secs] > 0 else 0.0
    return out
