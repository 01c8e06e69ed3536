"""The benchmark's workloads: generated inputs, CLI commands, output checks.

Each workload is a fixed CLI pipeline. Its inputs (password list, key-press
schedule, flag values) come only from the workload seed, so the same seed
gives the same command lines and, by freqscope's rerun contract, the same
output bytes. Commands run with relative paths from a per-pass directory
whose sibling `inputs/` holds the generated inputs; the resolved configs
that freqscope writes then never contain a machine-specific path.

Output checks read the files with this module's own parsers, not with
freqscope's, so a defect in a freqscope loader cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

RESOLVED_CONF = "freqscope.resolved.conf"
SPLIT_HOLDOUT = 0.1  # freqscope's default val and test fractions


@dataclass(frozen=True)
class Command:
    """One CLI invocation. `stage` groups commands into the stage timings
    the report prints; `cwd` is "inputs" for set-up commands, else "pass"."""

    stage: str
    argv: tuple[str, ...]
    cwd: str = "pass"


@dataclass
class Plan:
    """Everything one run of a workload needs, fixed by (seed, sizes)."""

    input_files: dict[str, str]  # path under inputs/ -> text
    setup: list[Command]
    commands: list[Command]
    # output path -> index of the command producing it; pass outputs are
    # relative to the pass directory, set-up outputs to the run directory
    outputs: dict[str, int] = field(default_factory=dict)
    setup_outputs: dict[str, int] = field(default_factory=dict)


# --- inputs ----------------------------------------------------------------


def password_list(seed: int, count: int) -> list[str]:
    """`count` distinct passwords; lengths cycle 6..10 so the total typing
    time, and with it the trace length, barely depends on the seed."""
    rng = random.Random(f"bench-passwords-{seed}")
    alphabet = string.ascii_lowercase + string.digits
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(alphabet) for _ in range(6 + len(words) % 5))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def press_schedule(seed: int, span_ms: int) -> list[int]:
    """Key-press times for the collect workload: gaps of 250-700 ms, so
    every press is a separate pulse, over roughly `span_ms`."""
    rng = random.Random(f"bench-presses-{seed}")
    presses = [400]
    while presses[-1] < span_ms:
        presses.append(presses[-1] + rng.randrange(250, 701, 10))
    return presses


# --- workload plans --------------------------------------------------------


def _website_sim(classes: int, measurements: int, samples: int, governor: str,
                 seed: int, out: str) -> tuple[str, ...]:
    return (
        "simulate", "--kind", "website", "--classes", str(classes),
        "--measurements", str(measurements), "--samples", str(samples),
        "--interval-ms", "10", "--profile", "ryzen5", "--governor", governor,
        "--jitter", "0.3", "--seed", str(seed), "--out", out,
    )


def fingerprint_plan(seed: int, s: dict) -> Plan:
    return Plan(
        input_files={},
        setup=[],
        commands=[
            Command("simulate", _website_sim(s["classes"], s["measurements"], s["samples"],
                                             "ondemand", seed, "data/fp")),
            Command("classify", ("train", "--dataset", "data/fp", "--model", "models/knn.json",
                                 "--classifier", "knn", "--k", "4")),
            Command("classify", ("eval", "--dataset", "data/fp", "--model", "models/knn.json",
                                 "--split", "test", "--topk", "5", "--out", "reports/fp")),
        ],
        outputs={
            "data/fp": 0,
            "models/knn.json": 1,
            "models/knn.json.resolved.conf": 1,
            "reports/fp/report.kv": 2,
        },
    )


def typing_plan(seed: int, s: dict) -> Plan:
    presses = press_schedule(seed, s["press_span_ms"])
    passwords = password_list(seed, s["passwords"])
    return Plan(
        input_files={"passwords.txt": "\n".join(passwords) + "\n"},
        setup=[],
        commands=[
            Command("collect", (
                "collect", "--source", "sim", "--profile", "cortex_a73",
                "--governor", "interactive", "--workload", "keystrokes",
                "--presses", ",".join(map(str, presses)), "--interval-ms", "20",
                "--samples", str(s["samples"]), "--measurements", str(s["measurements"]),
                "--label", "typing", "--seed", str(seed), "--out", "data/typing",
            )),
            Command("keystrokes", ("keystrokes", "--dataset", "data/typing")),
            Command("simulate", (
                "simulate", "--kind", "keystrokes", "--passwords", "../inputs/passwords.txt",
                "--per-label", str(s["per_label"]), "--profile", "cortex_a73",
                "--seed", str(seed), "--out", "data/pw",
            )),
            Command("keystrokes", ("keystrokes", "--dataset", "data/pw",
                                   "--guess-curve", str(s["guesses"]), "--out", "reports/pw")),
        ],
        outputs={
            "data/typing": 0,
            "cmd1.out": 1,
            "data/pw": 2,
            "reports/pw/guesses.csv": 3,
        },
    )


def defense_forest_plan(seed: int, s: dict) -> Plan:
    return Plan(
        input_files={},
        setup=[Command("setup", _website_sim(s["classes"], s["measurements"], s["samples"],
                                             "schedutil", seed, "sched"), cwd="inputs")],
        commands=[
            Command("defend", (
                "defend", "--dataset", "../inputs/sched", "--classifier", "forest",
                "--trees", str(s["trees"]), "--defense", "resolution:1,5,25",
                "--defense", "noise:20", "--defense", "mask:2200000", "--out", "sweeps/d",
            )),
        ],
        outputs={"sweeps/d/sweep.csv": 0},
        setup_outputs={"inputs/sched": 0},
    )


# --- digests ---------------------------------------------------------------


def _is_contract_file(name: str) -> bool:
    # only data and resolved configs are byte-identical across reruns;
    # anything else a command may drop beside them (run records, logs) is not
    return name.endswith(".ftrace") or name == RESOLVED_CONF


def digest(path: Path) -> str:
    """sha256 of a file, or of a dataset tree's traces and resolved configs
    (relative path and content of each, in sorted order)."""
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.read_bytes())
        return h.hexdigest()
    if not path.is_dir():
        return "missing"
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if not _is_contract_file(name):
                continue
            full = Path(dirpath) / name
            h.update(full.relative_to(path).as_posix().encode("utf-8") + b"\0")
            h.update(hashlib.sha256(full.read_bytes()).digest())
    return h.hexdigest()


# --- structural checks -----------------------------------------------------


def _trace_lengths(label_dir: Path) -> list[int]:
    lengths = []
    for f in sorted(label_dir.glob("*.ftrace")):
        lines = f.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "#ftrace v1":
            raise ValueError(f"{f.name}: not an ftrace file")
        lengths.append(sum(1 for line in lines if line and not line.startswith("#")))
    return lengths


def check_dataset(root: Path, labels: int, per_label: int, samples: int | None) -> list[str]:
    """`labels` class dirs of `per_label` traces each, all of one length
    (`samples`, when given)."""
    if not root.is_dir():
        return [f"{root.name}: dataset missing"]
    dirs = sorted(d for d in root.iterdir() if d.is_dir())
    problems = []
    if len(dirs) != labels:
        problems.append(f"{root.name}: {len(dirs)} label dirs, expected {labels}")
    lengths = set()
    for d in dirs:
        try:
            got = _trace_lengths(d)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            return problems + [f"{root.name}/{d.name}: {exc}"]
        if len(got) != per_label:
            problems.append(f"{root.name}/{d.name}: {len(got)} traces, expected {per_label}")
        lengths.update(got)
    if len(lengths) > 1:
        problems.append(f"{root.name}: mixed trace lengths {sorted(lengths)[:5]}")
    elif samples is not None and lengths and lengths != {samples}:
        problems.append(f"{root.name}: trace length {lengths.pop()}, expected {samples}")
    if not (root / RESOLVED_CONF).is_file():
        problems.append(f"{root.name}: no {RESOLVED_CONF}")
    return problems


def _kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise ValueError(f"{text} outside [0, 1]")
    return value


def _holdout(n: int) -> int:
    return int(n * SPLIT_HOLDOUT)


def check_fingerprint(pass_dir: Path, s: dict) -> dict[str, list[str]]:
    c, m = s["classes"], s["measurements"]
    problems: dict[str, list[str]] = {}
    problems["data/fp"] = check_dataset(pass_dir / "data/fp", c, m, s["samples"])

    model_problems = []
    try:
        doc = json.loads((pass_dir / "models/knn.json").read_text(encoding="utf-8"))
        rows = doc["classifier"]["train_x"]
        n_train = c * (m - 2 * _holdout(m))
        if doc["kind"] != "knn" or len(rows) != n_train or len(rows[0]) != s["samples"]:
            model_problems.append(
                f"knn model: kind {doc['kind']}, {len(rows)}x{len(rows[0])},"
                f" expected knn {n_train}x{s['samples']}"
            )
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        model_problems.append(f"knn model unreadable: {exc!r}")
    problems["models/knn.json"] = model_problems

    report_problems = []
    try:
        kv = _kv(pass_dir / "reports/fp/report.kv")
        if int(kv["total"]) != c * _holdout(m):
            report_problems.append(f"report: total {kv['total']}, expected {c * _holdout(m)}")
        if _fraction(kv["top5"]) < _fraction(kv["top1"]):
            report_problems.append("report: top5 below top1")
    except (OSError, ValueError, KeyError) as exc:
        report_problems.append(f"report unreadable: {exc!r}")
    problems["reports/fp/report.kv"] = report_problems
    return problems


def check_typing(pass_dir: Path, s: dict) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    problems["data/typing"] = check_dataset(
        pass_dir / "data/typing", 1, s["measurements"], s["samples"]
    )

    detect_problems = []
    try:
        text = (pass_dir / "cmd1.out").read_text(encoding="utf-8")
        line = next(l for l in text.splitlines() if l.startswith("typing:"))
        fields = dict(part.split("=") for part in line.split()[1:])
        if int(fields["traces"]) != s["measurements"] or not float(fields["mean_presses"]) > 0:
            detect_problems.append(f"keystroke detection: {line!r}")
    except (OSError, StopIteration, ValueError, KeyError) as exc:
        detect_problems.append(f"keystroke detection output unreadable: {exc!r}")
    problems["cmd1.out"] = detect_problems

    problems["data/pw"] = check_dataset(pass_dir / "data/pw", s["passwords"], s["per_label"], None)

    curve_problems = []
    try:
        lines = (pass_dir / "reports/pw/guesses.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "guess,accuracy" or len(lines) != s["guesses"] + 1:
            curve_problems.append(f"guess curve: {len(lines) - 1} rows, expected {s['guesses']}")
        curve = [_fraction(line.split(",")[1]) for line in lines[1:]]
        if any(b < a for a, b in zip(curve, curve[1:])):
            curve_problems.append(f"guess curve decreases: {curve}")
    except (OSError, ValueError, IndexError) as exc:
        curve_problems.append(f"guess curve unreadable: {exc!r}")
    problems["reports/pw/guesses.csv"] = curve_problems
    return problems


SWEEP_ROWS = [
    ("resolution_reduce", "1"),
    ("resolution_reduce", "5"),
    ("resolution_reduce", "25"),
    ("noise_inject", "20x0.5"),
    ("constant_mask", "2200000"),
]


def check_defense_forest(pass_dir: Path, s: dict) -> dict[str, list[str]]:
    sweep_problems = []
    try:
        lines = (pass_dir / "sweeps/d/sweep.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if [tuple(r[:2]) for r in rows] != SWEEP_ROWS:
            sweep_problems.append(f"sweep rows {[r[:2] for r in rows]}")
        clean = {_fraction(r[2]) for r in rows}
        for r in rows:
            _fraction(r[3])
        if len(clean) != 1:
            sweep_problems.append(f"sweep: clean baseline differs across rows {clean}")
    except (OSError, ValueError, IndexError) as exc:
        sweep_problems.append(f"sweep unreadable: {exc!r}")
    return {"sweeps/d/sweep.csv": sweep_problems}


def check_defense_forest_setup(run_dir: Path, s: dict) -> dict[str, list[str]]:
    return {"inputs/sched": check_dataset(
        run_dir / "inputs/sched", s["classes"], s["measurements"], s["samples"]
    )}


@dataclass(frozen=True)
class Workload:
    """`full` sizes are the benchmark; `tiny` ones serve the smoke test."""

    plan: Callable[[int, dict], Plan]
    check: Callable[[Path, dict], dict[str, list[str]]]
    full: dict
    tiny: dict
    setup_check: Callable[[Path, dict], dict[str, list[str]]] | None = None


WORKLOADS = {
    "fingerprint": Workload(
        plan=fingerprint_plan,
        check=check_fingerprint,
        full={"classes": 20, "measurements": 30, "samples": 1000},
        tiny={"classes": 3, "measurements": 10, "samples": 100},
    ),
    "typing": Workload(
        plan=typing_plan,
        check=check_typing,
        full={"measurements": 1000, "samples": 150, "press_span_ms": 60_000,
              "passwords": 150, "per_label": 10, "guesses": 5},
        tiny={"measurements": 12, "samples": 150, "press_span_ms": 6_000,
              "passwords": 6, "per_label": 10, "guesses": 5},
    ),
    "defense_forest": Workload(
        plan=defense_forest_plan,
        check=check_defense_forest,
        setup_check=check_defense_forest_setup,
        full={"classes": 20, "measurements": 20, "samples": 1000, "trees": 10},
        tiny={"classes": 3, "measurements": 10, "samples": 100, "trees": 2},
    ),
}
