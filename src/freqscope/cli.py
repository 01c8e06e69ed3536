"""Command-line front end for the whole pipeline.

Subcommands: simulate, collect, train, eval, keystrokes, defend, report.
Settings come from flags, optionally backed by a `--config` file
(`section.key = value` lines); flags win. Every command that writes
artifacts also writes the resolved settings next to them.

Exit codes:
  0  success
  2  configuration or usage error
  3  data error (unreadable trace/dataset/model, exhausted replay, busy dir,
     a dataset already in the simulate output, a collect append unlike the
     traces it joins, a lost defend worker)
  4  access restricted by the source policy
  5  every measurement was lost to hook failures
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .classify import (
    ModelFormatError,
    evaluate,
    load_model,
    save_model,
    train_forest_model,
    train_knn_model,
)
from .config import (
    RESOLVED_CONFIG_NAME,
    SCHEMA,
    SETTINGS,
    SPLIT_KEYS,
    ConfigError,
    Settings,
    parse_bool,
    resolve,
    write_resolved,
)
from .dataset import (
    DEFAULT_FRACTIONS,
    DatasetFormatError,
    LabeledDataset,
    LockError,
    check_append,
    dataset_lock,
    load_dataset,
    save_dataset,
    stable_seed,
)
from .defend import defense_sweep, parse_defense, sweep_csv_lines
from .forest import ForestParams
from .governors import SimConfig, simulate_batch
from .keystroke import (
    KeystrokeReport,
    detect_keystrokes,
    guess_curve,
    password_press_schedule,
    train_password_model,
)
from .profiles import get_profile
from .sampler import CollectPlan, collect
from .sources import (
    AccessDeniedError,
    ReplayExhaustedError,
    ReplaySource,
    SimSource,
    SysfsReadError,
    SysfsSource,
)
from .trace import (
    FrequencyTrace,
    TraceFormatError,
    atomic_writer,
    encode_label,
    load_trace,
    read_utf8,
)
from .workloads import (
    KEYSTROKE_TAIL_TICKS,
    check_presses,
    keystroke_workload,
    noise_workload,
    website_workload,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ACCESS = 4
EXIT_HOOK = 5

SIMULATE_BLOCK_TICKS = 1 << 17  # loads `simulate` passes the engine at once: 1 MiB of float64

log = logging.getLogger("freqscope")


def _err(message: str) -> None:
    print(f"freqscope: {message}", file=sys.stderr)


def _site_labels(n_classes: int) -> list[str]:
    width = max(2, len(str(max(n_classes - 1, 1))))
    return [f"site{c:0{width}d}" for c in range(n_classes)]


def _write_outputs(out: Path, files: dict[str, list[str]], s: Settings | None = None) -> None:
    """Text files of lines into `out`, plus the resolved conf of `s`, each
    written atomically."""
    out.mkdir(parents=True, exist_ok=True)
    for name, lines in files.items():
        with atomic_writer(out / name) as fh:
            fh.write("\n".join(lines) + "\n")
    if s is not None:
        write_resolved(out / RESOLVED_CONFIG_NAME, s.used())


def _sim_config(s: Settings, default_profile: str) -> SimConfig:
    profile = get_profile(s.derive("sim.profile", default_profile))
    return SimConfig(  # unset values: the profile decides
        profile=profile,
        governor=s.derive("sim.governor", profile.default_governor),
        turbo=s["sim.turbo"],
        hispeed_freq_khz=s["sim.hispeed_freq_khz"],
        set_speed_khz=s["sim.set_speed_khz"],
    )


# --- simulate ------------------------------------------------------------


def _read_passwords(path: str) -> list[str]:
    try:
        words = [line.strip() for line in read_utf8(path).splitlines() if line.strip()]
    except TraceFormatError as exc:
        raise ConfigError(f"password file {path!r} is {exc.problem}", exc.line) from None
    if not words:
        raise ConfigError(f"password file {path!r} is empty")
    if len(set(words)) != len(words):
        raise ConfigError(f"password file {path!r} has duplicate entries")
    return words


def cmd_simulate(args) -> int:
    s = resolve("simulate", args)
    seed = s["run.seed"]
    out = Path(args.out)

    if s["simulate.kind"] == "website":
        sim_cfg = _sim_config(s, default_profile="ryzen5")
        s["sim.turbo"] = sim_cfg.turbo
        interval = s.derive("sim.interval_ms", 10)
        samples = s.derive("sim.samples", 1000)
        jitter = s["simulate.jitter"]
        labels, per_label = _site_labels(s["simulate.classes"]), s["simulate.measurements"]

        def workload(c, m):
            return website_workload(c, n_ticks=samples, tick_ms=interval, jitter=jitter,
                                    seed=stable_seed(seed, "website", labels[c], m))
    else:
        sim_cfg = _sim_config(s, default_profile="cortex_a73")
        interval = s.derive("sim.interval_ms", 20)
        if not s["simulate.passwords"]:
            raise ConfigError("--passwords FILE is required for keystroke datasets")
        per_label = s["simulate.per_label"]
        labels = _read_passwords(s["simulate.passwords"])
        schedules = {
            (pw, m): password_press_schedule(pw, seed=stable_seed(seed, "schedule", pw, m))
            for pw in labels
            for m in range(per_label)
        }
        last = max(presses[-1] for presses in schedules.values())
        samples = s.derive("sim.samples", last // interval + KEYSTROKE_TAIL_TICKS)
        for presses in schedules.values():  # in row order: the fault the first bad row raises
            check_presses(presses, samples, interval)

        def workload(c, m):
            return keystroke_workload(schedules[(labels[c], m)], n_ticks=samples, tick_ms=interval,
                                      seed=stable_seed(seed, "keystroke-idle", labels[c], m))

    # every input fault is raised above, so a failed run leaves no --out behind;
    # below, one engine call per block of whole labels, each block's rows its samples
    per_block = max(1, SIMULATE_BLOCK_TICKS // (per_label * samples))
    with dataset_lock(out):
        if (out / RESOLVED_CONFIG_NAME).exists() or any(out.glob("*/*.ftrace")):
            raise FileExistsError(f"{out} already holds a dataset; simulate into a new directory")
        for first in range(0, len(labels), per_block):
            block = labels[first:first + per_block]
            loads = np.empty((len(block) * per_label, samples))
            for r in range(len(loads)):
                c, m = divmod(r, per_label)
                loads[r] = workload(first + c, m).loads
            rows, _ = simulate_batch(loads, interval, sim_cfg)
            del loads  # the engine's input is not needed while the block is written
            save_dataset(LabeledDataset(
                dict(zip(block, np.split(rows, len(block)))),
                {label: [sim_cfg.profile.name] * per_label for label in block}, interval), out)
            del rows
        write_resolved(out / RESOLVED_CONFIG_NAME, s.used())
    print(
        f"wrote {len(labels) * per_label} traces"
        f" ({len(labels)} labels x {samples} samples @ {interval} ms) to {out}"
    )
    return EXIT_OK


# --- collect -------------------------------------------------------------


def _collect_workload(s: Settings):
    kind = s["collect.workload"]
    tick = 20 if kind == "keystrokes" else 10
    ticks, seed = s["collect.workload_ticks"], s["run.seed"]
    if kind == "website":
        return website_workload(s["collect.workload_class"], n_ticks=ticks, tick_ms=tick,
                                seed=seed)
    if kind == "keystrokes":
        presses = s["collect.presses"]
        if not presses:
            raise ConfigError("--presses is required for the keystrokes workload")
        ticks = max(ticks, max(presses) // tick + KEYSTROKE_TAIL_TICKS)
        return keystroke_workload(presses, n_ticks=ticks, tick_ms=tick, seed=seed)
    if kind == "noise":
        return noise_workload(ticks, tick_ms=tick, seed=seed)
    return keystroke_workload([], n_ticks=ticks, tick_ms=tick, seed=seed)  # idle: no press


def _build_source(s: Settings, source: str, policy: str):
    if source == "sim":
        return SimSource(_sim_config(s, default_profile="ryzen5"), _collect_workload(s),
                         policy=policy)
    if source == "replay":
        if not s["collect.replay"]:
            raise ConfigError("--replay TRACE.ftrace is required for the replay source")
        return ReplaySource(load_trace(s["collect.replay"]), policy=policy)
    return SysfsSource(root=s["collect.sysfs_root"], policy_index=s["collect.policy_index"],
                       policy=policy)


def cmd_collect(args) -> int:
    s = resolve("collect", args)
    label = s["collect.label"]
    plan = CollectPlan(*(s[f"collect.{k}"] for k in ("measurements", "samples", "interval_ms")))
    hooks = {k: s[f"collect.{k}"] for k in ("pre_hook", "post_hook", "sleep_ms")}
    source, policy = s["collect.source"], s["collect.policy"]
    # the conf records the sampler's settings; the source's own (sim.*, run.seed,
    # workload, replay, sysfs) are not recorded
    resolved = s.used()
    if not label:  # it names the directory of the traces
        raise ConfigError("label must not be empty")
    src, out = _build_source(s, source, policy), Path(args.out)
    # the lock and the append check come after every source and label fault and
    # before the first read; a run that writes no trace leaves no --out it made
    with dataset_lock(out):
        check_append(out, plan.samples, plan.interval_ms)
        rows = collect(plan, src, **hooks)
        if not len(rows):
            _err("no measurement completed (every attempt lost to hook failures)")
            return EXIT_HOOK
        save_dataset(LabeledDataset({label: rows}, {label: [src.device] * len(rows)},
                                    plan.interval_ms), out)
        write_resolved(out / RESOLVED_CONFIG_NAME, resolved)
    print(f"collected {len(rows)}/{plan.measurements} measurements to {out / encode_label(label)}")
    if len(rows) < plan.measurements:
        print(f"({plan.measurements - len(rows)} measurement(s) lost to hook failures)")
    return EXIT_OK


# --- train / eval --------------------------------------------------------


def _split(s: Settings, seed: int = 0, fractions=DEFAULT_FRACTIONS):
    """Split seed and train/val/test fractions; unset ones take the given values."""
    return (s.derive("split.seed", seed),
            tuple(s.derive(key, f) for key, f in zip(SPLIT_KEYS, fractions)))


def _make_trainer(s: Settings, metadata: dict):
    # every classifier setting is read, so the resolved conf records all of them
    normalization, k = s["classifier.normalization"], s["classifier.k"]
    forest = {"n_trees": s["classifier.trees"], "max_depth": s["classifier.max_depth"],
              "min_leaf": s["classifier.min_leaf"], "seed": s["classifier.seed"],
              "feature_subsample": s["classifier.feature_subsample"]}
    if s["classifier.kind"] == "knn":
        return partial(train_knn_model, k=k, normalization=normalization, metadata=metadata)
    return partial(train_forest_model, params=ForestParams(**forest),
                   normalization=normalization, metadata=metadata)


def cmd_train(args) -> int:
    s = resolve("train", args)
    split_seed, fractions = _split(s)
    train_view = load_dataset(args.dataset, split=(split_seed, fractions, "train"))
    metadata = {
        "split_seed": split_seed,
        "split_fractions": list(fractions),
        "train_traces": train_view.total_measurements(),
        "classes": len(train_view.classes),
    }
    try:
        model = _make_trainer(s, metadata)(train_view)
    except DatasetFormatError as exc:  # a device the normalization cannot read
        raise DatasetFormatError(f"{args.dataset}: {exc}") from None
    model_path = Path(args.model)
    if model_path.parent != Path(""):
        model_path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, model_path)
    write_resolved(model_path.parent / f"{model_path.name}.resolved.conf", s.used())
    print(
        f"trained {s['classifier.kind']} on {metadata['train_traces']} traces"
        f" ({metadata['classes']} classes) -> {model_path}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    s = resolve("eval", args)
    model = load_model(args.model)
    split_seed, fractions = _split(
        s, model.metadata.get("split_seed", 0),
        model.metadata.get("split_fractions", DEFAULT_FRACTIONS),
    )
    view = load_dataset(args.dataset, split=(split_seed, fractions, s["eval.split"]))
    try:
        report = evaluate(model, view, topk=tuple(s["eval.topk"]))
    except DatasetFormatError as exc:  # a device or trace length the model cannot read
        raise DatasetFormatError(f"{args.dataset}: {exc}") from None
    sys.stdout.write(report.to_text())
    if args.out:
        _write_outputs(Path(args.out), {
            "report.kv": report.key_value_lines(),
            "confusion.csv": report.confusion_csv_lines(),
        }, s)
        print(f"report written to {args.out}")
    return EXIT_OK


# --- keystrokes ----------------------------------------------------------


def _detect(trace: FrequencyTrace, source: str) -> KeystrokeReport:
    """A trace at another interval than the detector's is a data fault of
    `source`, the trace file or dataset root."""
    try:
        return detect_keystrokes(trace)
    except ValueError as exc:
        raise DatasetFormatError(f"{source}: {exc}") from None


def _timing_vectors(root: str) -> tuple[dict[str, list[np.ndarray]], list[str]]:
    """Each label's inter-key timing vectors, one per trace, and its summary
    line; the dataset is dropped on return, as the guess curve needs only these."""
    ds = load_dataset(root)
    vectors, summary = {}, []
    for label in ds.classes:
        reports = [_detect(FrequencyTrace(row, ds.interval_ms), root) for row in ds.samples[label]]
        vectors[label] = [np.asarray(r.inter_key_timings_ms, dtype=np.float64) for r in reports]
        presses = np.mean([r.press_count for r in reports])
        summary.append(f"{label}: traces={len(reports)} mean_presses={presses:.2f}")
    return vectors, summary


def cmd_keystrokes(args) -> int:
    s = resolve("keystrokes", args)
    if bool(args.trace) == bool(args.dataset):
        raise ConfigError("exactly one of --trace or --dataset is required")

    if args.trace:
        for key in ("keystroke.guess_curve", "split.seed"):  # both act on a dataset only
            if s[key] is not None:
                raise ConfigError(f"{key} ({SCHEMA[key].flag}) needs --dataset, not --trace")
        report = _detect(load_trace(args.trace), args.trace)
        lines = report.key_value_lines()
        print("\n".join(lines))
        if args.out:
            _write_outputs(Path(args.out), {"keystrokes.kv": lines}, s)
            print(f"report written to {Path(args.out) / 'keystrokes.kv'}")
        return EXIT_OK

    vectors, summary = _timing_vectors(args.dataset)
    print("\n".join(summary))
    files = {"summary.txt": summary}

    guesses = s["keystroke.guess_curve"]
    if guesses:
        try:
            model, held_out = train_password_model(vectors, split_seed=s.derive("split.seed", 0))
        except ValueError as exc:  # too few passwords, or measurements of one
            raise DatasetFormatError(f"{args.dataset}: {exc}") from None
        curve = guess_curve(model, held_out, guesses)
        files["guesses.csv"] = ["guess,accuracy"] + [
            f"{g},{acc:.6f}" for g, acc in enumerate(curve, start=1)]
        print("\n".join(files["guesses.csv"]))
    if args.out:
        _write_outputs(Path(args.out), files, s)
        print(f"{', '.join(files)} written to {Path(args.out)}")
    return EXIT_OK


# --- defend --------------------------------------------------------------


def cmd_defend(args) -> int:
    s = resolve("defend", args)
    defenses = [d for spec in s["defend.defenses"] or [] for d in parse_defense(spec)]
    if not defenses:
        raise ConfigError("no defenses given (--defense resolution:1,2,5 ...)")

    split_seed, fractions = _split(s)
    # every trace is read: a noise salt is keyed by the trace's index in its label
    rows = defense_sweep(defenses, load_dataset(args.dataset),
                         _make_trainer(s, metadata={"split_seed": split_seed}),
                         split_seed, fractions)
    csv_lines = sweep_csv_lines(rows)
    print("\n".join(csv_lines))
    if args.out:
        _write_outputs(Path(args.out), {"sweep.csv": csv_lines}, s)
        print(f"sweep written to {Path(args.out)}")
    return EXIT_OK


# --- report --------------------------------------------------------------


def _check_report_value(path, n: int, name: str, text: str) -> None:
    """`total` must be an integer >= 0, any other value an accuracy in [0, 1]."""
    try:  # NaN is no accuracy
        ok = text.isascii() and text.isdigit() if name == "total" else 0.0 <= float(text) <= 1.0
    except ValueError:
        ok = False
    if not ok:
        want = "an integer >= 0" if name == "total" else "a number in [0, 1]"
        raise TraceFormatError(path, n, f"{name} must be {want}, got {text!r}")


def _parse_kv_file(path: Path) -> dict[str, str]:
    values = {}
    for n, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip() or "=" not in line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key in ("top1", "top5", "total"):
            _check_report_value(path, n, key, value)
        values[key] = value
    return values


def _align(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def cmd_report(args) -> int:
    if not args.eval_kv and not args.sweep_csv:
        raise ConfigError("nothing to report (--eval-kv and/or --sweep-csv)")
    blocks: list[str] = []
    files: dict[str, list[str]] = {}
    if args.eval_kv:
        rows = [["name", "top1", "top5", "total"]]
        plot = ["# name top1"]
        for path_text in args.eval_kv:
            path = Path(path_text)
            kv = _parse_kv_file(path)
            name = path.parent.name if path.name == "report.kv" else path.stem
            rows.append([name, kv.get("top1", "-"), kv.get("top5", "-"), kv.get("total", "-")])
            plot.append(f"{name} {kv.get('top1', 'nan')}")
        table = "\n".join(_align(rows))
        blocks.append(table)
        files.update({"eval_table.txt": [table], "eval.dat": plot})

    if args.sweep_csv:
        header = sweep_csv_lines([])[0]
        rows = [header.split(",")]
        plot = ["# " + " ".join(rows[0])]
        for path_text in args.sweep_csv:
            lines = read_utf8(path_text).splitlines()
            if lines[:1] != [header]:
                raise TraceFormatError(path_text, 1, f"sweep header must be {header!r}")
            for n, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                cells = line.split(",")
                if len(cells) != 4:
                    raise TraceFormatError(path_text, n, f"malformed sweep row {line!r}")
                for name, cell in zip(("top1_clean", "top1_defended"), cells[2:]):
                    _check_report_value(path_text, n, name, cell)
                rows.append(cells)
                plot.append(" ".join(cells))
        table = "\n".join(_align(rows))
        blocks.append(table)
        files.update({"defense_table.txt": [table], "defense.dat": plot})

    print("\n\n".join(blocks))
    if args.out:
        _write_outputs(Path(args.out), files)
        print(f"report files written to {Path(args.out)}")
    return EXIT_OK


# --- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqscope",
        description="CPU-frequency side-channel toolkit: simulate governors,"
        " collect traces, fingerprint, recover keystrokes, evaluate defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True, help="dataset directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("collect", help="sample a frequency source into traces")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="fit a classifier on the train split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True, help="output model file (json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("keystrokes", help="detect keystrokes / rank passwords")
    p.add_argument("--trace", help="single trace file")
    p.add_argument("--dataset", help="dataset of password-labeled traces")
    p.add_argument("--out")
    p.set_defaults(func=cmd_keystrokes)

    p = sub.add_parser("defend", help="sweep countermeasures against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("report", help="render eval/sweep outputs as tables")
    p.add_argument("--eval-kv", action="append", dest="eval_kv",
                   help="report.kv file from `eval --out` (repeatable)")
    p.add_argument("--sweep-csv", action="append", dest="sweep_csv",
                   help="sweep.csv file from `defend --out` (repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    for command, p in sub.choices.items():
        settings = [s for s in SETTINGS if command in s.commands]
        if not settings:
            continue
        p.add_argument("--config", help="file of `section.key = value` settings; flags win")
        if command in SCHEMA["split.train"].commands:
            p.add_argument("--fractions",
                           help=f"train,val,test e.g. 0.8,0.1,0.1 [{', '.join(SPLIT_KEYS)}]")
        for s in settings:
            if s.flag is None:
                continue
            if s.parse is parse_bool:
                group = p.add_mutually_exclusive_group()
                group.add_argument(s.flag, dest=s.dest, action="store_const", const=True,
                                   help=f"{s.help} [{s.key} = true]")
                group.add_argument("--no-" + s.flag[2:], dest=s.dest, action="store_const",
                                   const=False, help=f"the opposite of {s.flag} [{s.key} = false]")
            else:
                p.add_argument(s.flag, dest=s.dest, type=s.parse, choices=s.choices,
                               action="extend" if s.repeat else "store", help=s.flag_help())
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except (TraceFormatError, DatasetFormatError, ModelFormatError, ReplayExhaustedError,
            SysfsReadError, LockError) as exc:
        _err(str(exc))
        return EXIT_DATA
    except AccessDeniedError as exc:
        _err(f"access restricted: {exc}")
        return EXIT_ACCESS
    except KeyError as exc:
        _err(str(exc).strip("'\""))
        return EXIT_CONFIG
    except ValueError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _err(str(exc))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
