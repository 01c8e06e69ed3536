"""Run settings: one table drives the config files, the CLI flags and the
resolved configs.

Each entry of `SETTINGS` holds a config key, its flag, the one parser both
spellings go through, the default, the help text and the subcommands that
take it. A default of None leaves the setting unset or lets the command
derive it (the profile's governor, the keystroke trace length, the model's
split for `eval`). `resolve` merges flag > config file > default.

Config files hold one `section.key = value` per line. Blank lines and
lines starting with `#` are skipped. A list value is comma separated,
except a list of strings (the defense specs), which is space separated.
Keys must appear in the table (unknown keys are rejected so typos fail
loudly) and at most once. Every command that writes outputs drops the
settings it used next to them so a run can be reproduced from its
artifacts alone; output paths are deliberately not part of the resolved
file, keeping repeated runs byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from .classify import NORM_MINMAX, NORM_NONE
from .forest import ForestParams
from .trace import TraceFormatError, atomic_writer, read_utf8

RESOLVED_CONFIG_NAME = "freqscope.resolved.conf"
SPLIT_KEYS = ("split.train", "split.val", "split.test")


class ConfigError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def non_negative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < float("inf"):  # also rejects NaN
        raise ValueError(f"expected a finite number >= 0, got {value}")
    return value


def int_list(text: str) -> list[int]:
    return [int(part.strip()) for part in text.split(",") if part.strip()]


def float_list(text: str) -> list[float]:
    return [float(part.strip()) for part in text.split(",") if part.strip()]


def topk(text: str) -> list[int]:
    """`N` means top-1 and top-N; a list means exactly those ranks."""
    ks = [positive_int(part) for part in text.split(",") if part.strip()]
    if len(ks) == 1:
        return [1, ks[0]] if ks[0] > 1 else [1]
    return sorted(set(ks))


def feature_subsample(text: str) -> float | str:
    """`sqrt`, or a fraction in (0, 1], as ForestParams checks it."""
    value = text if text == "sqrt" else float(text)
    ForestParams(feature_subsample=value)
    return value


def normalization(text: str) -> str:
    aliases = {"none": NORM_NONE, "minmax": NORM_MINMAX, NORM_MINMAX: NORM_MINMAX}
    if text not in aliases:
        raise ValueError(f"unknown normalization {text!r} (none | minmax)")
    return aliases[text]


@dataclass(frozen=True)
class Setting:
    key: str
    flag: str | None  # None: config file only; a parse_bool flag gets a --no- twin
    parse: Callable[[str], object]
    default: object  # None: unset, or derived by the command
    help: str
    commands: tuple[str, ...]
    choices: tuple[str, ...] | None = None
    repeat: bool = False  # the flag may be given again; each value extends the list

    @property
    def dest(self) -> str:
        """The flag's argparse dest."""
        return self.flag[2:].replace("-", "_")

    def flag_help(self) -> str:
        default = "" if self.default is None else f" = {_render(self.default)}"
        return f"{self.help} [{self.key}{default}]"


SIM = ("simulate", "collect")
CLASSIFY = ("train", "defend")
SPLIT = ("train", "eval", "defend")

SETTINGS = (
    Setting("run.seed", "--seed", int, 0, "workload seed", SIM),
    Setting("sim.profile", "--profile", str, None,
            "device profile (ryzen5; cortex_a73 for keystroke datasets)", SIM),
    Setting("sim.governor", "--governor", str, None,
            "scaling governor (the profile's default)", SIM),
    Setting("sim.turbo", "--turbo", parse_bool, None,
            "force turbo boost on (unset: the profile decides)", SIM),
    Setting("sim.set_speed_khz", "--set-speed-khz", int, None,
            "pinned frequency for the userspace governor", SIM),
    Setting("sim.hispeed_freq_khz", "--hispeed-khz", int, None,
            "interactive governor boost floor", SIM),
    Setting("sim.interval_ms", "--interval-ms", positive_int, None,
            "sample interval (10; 20 for keystroke datasets)", ("simulate",)),
    Setting("sim.samples", "--samples", positive_int, None,
            "samples per trace (1000; keystroke datasets fit the longest password)",
            ("simulate",)),
    Setting("simulate.kind", "--kind", str, "website", "dataset kind", ("simulate",),
            choices=("website", "keystrokes")),
    Setting("simulate.classes", "--classes", positive_int, 20, "number of website classes",
            ("simulate",)),
    Setting("simulate.measurements", "--measurements", positive_int, 30, "traces per class",
            ("simulate",)),
    Setting("simulate.per_label", "--per-label", positive_int, 10, "traces per password",
            ("simulate",)),
    Setting("simulate.passwords", "--passwords", str, None,
            "password list file (keystrokes kind)", ("simulate",)),
    Setting("simulate.jitter", "--jitter", non_negative_float, 0.03, "website load jitter sigma",
            ("simulate",)),
    Setting("collect.source", "--source", str, "sim", "frequency source", ("collect",),
            choices=("sim", "replay", "sysfs")),
    Setting("collect.interval_ms", "--interval-ms", positive_int, 10, "sample interval",
            ("collect",)),
    Setting("collect.samples", "--samples", positive_int, 1000, "samples per measurement",
            ("collect",)),
    Setting("collect.measurements", "--measurements", positive_int, 1, "measurements to take",
            ("collect",)),
    Setting("collect.label", "--label", str, "unlabeled", "label of the traces",
            ("collect",)),
    Setting("collect.pre_hook", "--pre-hook", str, None,
            "shell command run before each measurement", ("collect",)),
    Setting("collect.post_hook", "--post-hook", str, None,
            "shell command run after each measurement", ("collect",)),
    Setting("collect.sleep_ms", "--sleep-ms", non_negative_int, 1000, "pause between measurements",
            ("collect",)),
    Setting("collect.policy", "--policy", str, "open", "source access policy",
            ("collect",), choices=("open", "masked")),
    Setting("collect.replay", "--replay", str, None, "trace file for the replay source",
            ("collect",)),
    Setting("collect.sysfs_root", "--sysfs-root", str, None,
            "cpufreq root for the sysfs source", ("collect",)),
    Setting("collect.policy_index", "--policy-index", int, 0,
            "cpufreq policy read by the sysfs source", ("collect",)),
    Setting("collect.workload", "--workload", str, "idle", "simulated workload",
            ("collect",), choices=("website", "keystrokes", "idle", "noise")),
    Setting("collect.workload_class", "--workload-class", int, 0,
            "website class of the workload", ("collect",)),
    Setting("collect.workload_ticks", "--workload-ticks", positive_int, 1000,
            "workload length in ticks", ("collect",)),
    Setting("collect.presses", "--presses", int_list, None,
            "press times in ms, comma separated (keystrokes workload)", ("collect",)),
    Setting("split.seed", "--split-seed", int, None,
            "split seed (0; eval: the model's)", SPLIT + ("keystrokes",)),
    Setting("split.train", None, float, None, "train fraction", SPLIT),
    Setting("split.val", None, float, None, "validation fraction", SPLIT),
    Setting("split.test", None, float, None, "test fraction", SPLIT),
    Setting("classifier.kind", "--classifier", str, "knn", "classifier", CLASSIFY,
            choices=("knn", "forest")),
    Setting("classifier.k", "--k", positive_int, 4, "KNN neighbor count", CLASSIFY),
    Setting("classifier.normalization", "--normalization", normalization, NORM_NONE,
            "none | minmax", CLASSIFY),
    Setting("classifier.trees", "--trees", positive_int, 100, "forest size", CLASSIFY),
    Setting("classifier.max_depth", "--max-depth", positive_int, 20, "forest tree depth limit",
            CLASSIFY),
    Setting("classifier.min_leaf", "--min-leaf", positive_int, 1, "forest leaf size floor",
            CLASSIFY),
    Setting("classifier.feature_subsample", "--feature-subsample", feature_subsample, "sqrt",
            "'sqrt' or a fraction in (0,1]", CLASSIFY),
    Setting("classifier.seed", "--classifier-seed", int, 0, "forest seed", CLASSIFY),
    Setting("eval.topk", "--topk", topk, (1, 5),
            "top-K accuracies to report; N means 1,N", ("eval",)),
    Setting("eval.split", "--split", str, "test", "split to evaluate", ("eval",),
            choices=("train", "val", "test")),
    Setting("keystroke.guess_curve", "--guess-curve", positive_int, None,
            "emit cumulative accuracy up to N guesses", ("keystrokes",)),
    Setting("defend.defenses", "--defense", str.split, None,
            "defense specs, swept in order: resolution:F1,F2,... |"
            " noise:RATE[:HEIGHT[:SEED]] | mask:FREQ", ("defend",), repeat=True),
)

SCHEMA = {s.key: s for s in SETTINGS}


class Settings(dict):
    """One command's settings by key. It records the keys the command reads,
    so the resolved conf holds exactly the settings the run used."""

    def __init__(self, values: dict[str, object]):
        super().__init__(values)
        self.read: set[str] = set()

    def __getitem__(self, key: str):
        self.read.add(key)
        return super().__getitem__(key)

    def derive(self, key: str, value):
        """The setting, or `value` when it was left unset."""
        if self[key] is None:
            self[key] = value
        return self[key]

    def used(self) -> dict[str, object]:
        return {key: dict.__getitem__(self, key) for key in self.read}


def resolve(command: str, args) -> Settings:
    """Flag > `--config` file > table default for every setting of `command`;
    `--fractions` sets the three split fractions at once."""
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    values = {}
    for s in SETTINGS:
        if command in s.commands:
            flag = getattr(args, s.dest) if s.flag else None
            values[s.key] = flag if flag is not None else cfg.get(s.key, s.default)
    if getattr(args, "fractions", None) is not None:
        fractions = float_list(args.fractions)
        if len(fractions) != 3:
            raise ConfigError(f"expected train,val,test fractions, got {args.fractions!r}")
        values.update(zip(SPLIT_KEYS, fractions))
    return Settings(values)


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
        setting = SCHEMA[key]
        try:
            values[key] = setting.parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line_no) from None
        if setting.choices and values[key] not in setting.choices:
            raise ConfigError(
                f"bad value for {key!r}: expected one of {', '.join(setting.choices)}", line_no)
    return values


def load_config(path: str | os.PathLike) -> dict[str, object]:
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)!r}: {exc}") from exc
    except TraceFormatError as exc:
        raise ConfigError(f"config {os.fspath(path)!r} is {exc.problem}", exc.line) from None
    return parse_config(text)


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        # strings such as defense specs may hold commas themselves
        sep = " " if all(isinstance(v, str) for v in value) else ","
        return sep.join(_render(v) for v in value)
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
    """Write atomically; an unknown key leaves an existing file untouched."""
    text = "\n".join(resolved_lines(values)) + "\n"
    with atomic_writer(path) as fh:
        fh.write(text)
