"""Run configuration files: one `section.key = value` per line.

Blank lines and lines starting with `#` are skipped. Keys must appear in
the schema below (unknown keys are rejected so typos fail loudly) and at
most once. Every command that writes outputs drops the resolved settings
next to them so a run can be reproduced from its artifacts alone; output
paths are deliberately not part of the resolved file, keeping repeated
runs byte-identical.
"""

from __future__ import annotations

import os

RESOLVED_CONFIG_NAME = "freqscope.resolved.conf"


class ConfigError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _int_list(text: str) -> list[int]:
    return [int(part.strip()) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part.strip()) for part in text.split(",") if part.strip()]


SCHEMA = {
    "run.seed": int,
    "sim.profile": str,
    "sim.governor": str,
    "sim.interval_ms": int,
    "sim.samples": int,
    "sim.turbo": _bool,
    "sim.set_speed_khz": int,
    "sim.hispeed_freq_khz": int,
    "simulate.kind": str,
    "simulate.classes": int,
    "simulate.measurements": int,
    "simulate.per_label": int,
    "simulate.passwords": str,
    "simulate.jitter": float,
    "collect.source": str,
    "collect.interval_ms": int,
    "collect.samples": int,
    "collect.measurements": int,
    "collect.label": str,
    "collect.pre_hook": str,
    "collect.post_hook": str,
    "collect.sleep_ms": int,
    "collect.policy": str,
    "collect.replay": str,
    "collect.sysfs_root": str,
    "collect.policy_index": int,
    "collect.workload": str,
    "collect.workload_class": int,
    "collect.presses": _int_list,
    "split.seed": int,
    "split.train": float,
    "split.val": float,
    "split.test": float,
    "classifier.kind": str,
    "classifier.k": int,
    "classifier.normalization": str,
    "classifier.trees": int,
    "classifier.max_depth": int,
    "classifier.min_leaf": int,
    "classifier.feature_subsample": str,
    "classifier.seed": int,
    "eval.topk": _int_list,
    "eval.split": str,
    "keystroke.idle_freq_khz": int,
    "keystroke.peak_cap_khz": int,
    "keystroke.sustained_freq_khz": int,
    "keystroke.min_pulse": int,
    "keystroke.max_single": int,
    "keystroke.decay_ms": int,
    "keystroke.interval_ms": int,
    "keystroke.hysteresis_khz": int,
    "keystroke.guess_curve": int,
    "keystroke.split_seed": int,
    "defend.resolution_factors": _int_list,
    "defend.noise_rates": _float_list,
    "defend.noise_height": float,
    "defend.noise_seed": int,
    "defend.mask_freq_khz": int,
}


def parse_config(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected `section.key = value`, got {line!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        try:
            values[key] = SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line_no) from None
    return values


def load_config(path: str | os.PathLike) -> dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)!r}: {exc}") from exc


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_render(v) for v in value)
    return str(value)


def resolved_lines(values: dict[str, object]) -> list[str]:
    lines = []
    for key in sorted(values):
        if key not in SCHEMA:
            raise ConfigError(f"refusing to write unknown key {key!r}")
        value = values[key]
        if value is None:
            continue
        lines.append(f"{key} = {_render(value)}")
    return lines


def write_resolved(path: str | os.PathLike, values: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(resolved_lines(values)))
        fh.write("\n")
