"""Command-line front end for the whole pipeline.

Subcommands: simulate, collect, train, eval, keystrokes, defend, report.
Settings come from flags, optionally backed by a `--config` file
(`section.key = value` lines); flags win. Every command that writes
artifacts also writes the resolved settings next to them.

Exit codes:
  0  success
  2  configuration or usage error
  3  data error (unreadable trace/dataset/model, exhausted replay, busy dir)
  4  access restricted by the source policy
  5  every measurement was lost to hook failures
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .classify import (
    NORM_MINMAX,
    NORM_NONE,
    EvalReport,
    ModelFormatError,
    TrainedModel,
    evaluate,
    load_model,
    save_model,
    train_forest_model,
    train_knn_model,
)
from .config import RESOLVED_CONFIG_NAME, ConfigError, load_config, write_resolved
from .dataset import (
    DEFAULT_FRACTIONS,
    LabeledDataset,
    load_dataset,
    measurement_filename,
    save_dataset,
    split_dataset,
    stable_seed,
)
from .defend import (
    Defense,
    constant_mask,
    defense_sweep,
    noise_inject,
    resolution_reduce,
    sweep_csv_lines,
    sweep_plot_lines,
)
from .forest import ForestParams
from .governors import InteractiveParams, SimConfig, TurboParams, simulate_batch
from .keystroke import (
    KeystrokeParams,
    detect_keystrokes,
    guess_curve,
    password_press_schedule,
    train_password_model,
)
from .profiles import builtin_profiles, get_profile
from .sampler import CollectPlan, HookError, collect
from .sources import (
    POLICY_MASKED,
    POLICY_OPEN,
    AccessDeniedError,
    ReplayExhaustedError,
    ReplaySource,
    SimSource,
    SysfsReadError,
    SysfsSource,
)
from .trace import FrequencyTrace, TraceFormatError, load_trace, save_trace
from .workloads import (
    idle_workload,
    keystroke_workload,
    noise_workload,
    website_workload,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ACCESS = 4
EXIT_HOOK = 5

LOCK_NAME = ".freqscope.lock"

log = logging.getLogger("freqscope")


class LockError(RuntimeError):
    pass


@contextmanager
def dataset_lock(root: Path):
    """One dataset directory, one writer. Stale locks (crashed runs) must be
    removed by hand; the error says which file."""
    root.mkdir(parents=True, exist_ok=True)
    lock = root / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockError(
            f"{root} is being written by another run (or a stale lock; remove {lock})"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        yield
    finally:
        try:
            lock.unlink()
        except OSError:
            pass


def _err(message: str) -> None:
    print(f"freqscope: {message}", file=sys.stderr)


def _pick(cfg: dict, key: str, flag_value, default=None):
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _load_cfg(args) -> dict:
    return load_config(args.config) if getattr(args, "config", None) else {}


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected train,val,test fractions, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def _site_labels(n_classes: int) -> list[str]:
    width = max(2, len(str(max(n_classes - 1, 1))))
    return [f"site{c:0{width}d}" for c in range(n_classes)]


def _normalization(text: str) -> str:
    aliases = {"none": NORM_NONE, "minmax": NORM_MINMAX, NORM_MINMAX: NORM_MINMAX}
    if text not in aliases:
        raise ConfigError(f"unknown normalization {text!r} (none | minmax)")
    return aliases[text]


def _turbo_params(profile, turbo_flag: bool | None) -> TurboParams | None:
    # None: the profile decides; otherwise the flag forces it
    if turbo_flag is None:
        return None
    if not turbo_flag:
        return TurboParams(enabled=False)
    return TurboParams(enabled=True, ceiling_khz=profile.boost_cap_khz)


def _sim_config(args, cfg: dict, default_profile: str | None = None) -> SimConfig:
    profile_name = _pick(cfg, "sim.profile", args.profile, default_profile)
    if not profile_name:
        raise ConfigError("a device profile is required (--profile)")
    profile = get_profile(profile_name)
    governor = _pick(cfg, "sim.governor", args.governor, profile.default_governor)
    turbo_flag = _pick(cfg, "sim.turbo", args.turbo)
    interactive = None
    hispeed = _pick(cfg, "sim.hispeed_freq_khz", getattr(args, "hispeed_khz", None))
    if hispeed is not None:
        interactive = InteractiveParams(hispeed_freq_khz=hispeed)
    return SimConfig(
        profile=profile,
        governor=governor,
        interactive=interactive,
        turbo=_turbo_params(profile, turbo_flag),
        set_speed_khz=_pick(cfg, "sim.set_speed_khz", getattr(args, "set_speed_khz", None)),
    )


# --- simulate ------------------------------------------------------------


def _read_passwords(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        words = [line.strip() for line in fh if line.strip()]
    if not words:
        raise ConfigError(f"password file {path!r} is empty")
    if len(set(words)) != len(words):
        raise ConfigError(f"password file {path!r} has duplicate entries")
    return words


def _simulate_labels(sim_cfg: SimConfig, labels: list[str], per_label: int, n_ticks: int,
                     interval: int, make_workload) -> dict[str, list[FrequencyTrace]]:
    """Simulate `make_workload(label_index, m)` for every label and m <
    per_label in one engine call; the loads go into one matrix row by row."""
    loads = np.empty((len(labels) * per_label, n_ticks))
    for r in range(len(loads)):
        loads[r] = make_workload(*divmod(r, per_label)).loads
    traces = [FrequencyTrace(samples=row, interval_ms=interval, device=sim_cfg.profile.name,
                             label=labels[r // per_label])
              for r, row in enumerate(simulate_batch(loads, interval, sim_cfg)[0])]
    return {label: traces[c * per_label:(c + 1) * per_label] for c, label in enumerate(labels)}


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    kind = _pick(cfg, "simulate.kind", args.kind, "website")
    seed = _pick(cfg, "run.seed", args.seed, 0)
    out = Path(args.out)

    if kind == "website":
        sim_cfg = _sim_config(args, cfg, default_profile="ryzen5")
        interval = _pick(cfg, "sim.interval_ms", args.interval_ms, 10)
        samples = _pick(cfg, "sim.samples", args.samples, 1000)
        n_classes = _pick(cfg, "simulate.classes", args.classes, 20)
        per_class = _pick(cfg, "simulate.measurements", args.measurements, 30)
        jitter = _pick(cfg, "simulate.jitter", args.jitter, 0.03)
        labels = _site_labels(n_classes)
        measurements = _simulate_labels(
            sim_cfg, labels, per_class, samples, interval,
            lambda c, m: website_workload(
                c, n_ticks=samples, tick_ms=interval,
                seed=stable_seed(seed, "website", labels[c], m), jitter=jitter,
            ),
        )
        ds = LabeledDataset(classes=labels, measurements=measurements)
        resolved = {
            "run.seed": seed,
            "sim.profile": sim_cfg.profile.name,
            "sim.governor": sim_cfg.governor,
            "sim.interval_ms": interval,
            "sim.samples": samples,
            "sim.turbo": sim_cfg.effective_turbo().enabled,
            "simulate.kind": kind,
            "simulate.classes": n_classes,
            "simulate.measurements": per_class,
            "simulate.jitter": jitter,
        }
    elif kind == "keystrokes":
        sim_cfg = _sim_config(args, cfg, default_profile="cortex_a73")
        interval = _pick(cfg, "sim.interval_ms", args.interval_ms, 20)
        passwords_path = _pick(cfg, "simulate.passwords", args.passwords)
        if not passwords_path:
            raise ConfigError("--passwords FILE is required for keystroke datasets")
        per_label = _pick(cfg, "simulate.per_label", args.per_label, 10)
        words = _read_passwords(passwords_path)
        schedules = {
            (pw, m): password_press_schedule(pw, seed=stable_seed(seed, "schedule", pw, m))
            for pw in words
            for m in range(per_label)
        }
        samples = _pick(cfg, "sim.samples", args.samples)
        if samples is None:
            last = max(s[-1] for s in schedules.values())
            samples = last // interval + 24  # room for the final pulse + decay
        measurements = _simulate_labels(
            sim_cfg, words, per_label, samples, interval,
            lambda c, m: keystroke_workload(
                schedules[(words[c], m)], n_ticks=samples, tick_ms=interval,
                seed=stable_seed(seed, "keystroke-idle", words[c], m),
            ),
        )
        ds = LabeledDataset(classes=sorted(words), measurements=measurements)
        resolved = {
            "run.seed": seed,
            "sim.profile": sim_cfg.profile.name,
            "sim.governor": sim_cfg.governor,
            "sim.interval_ms": interval,
            "sim.samples": samples,
            "simulate.kind": kind,
            "simulate.per_label": per_label,
            "simulate.passwords": passwords_path,
        }
    else:
        raise ConfigError(f"unknown simulate kind {kind!r} (website | keystrokes)")

    with dataset_lock(out):
        save_dataset(ds, out)
        write_resolved(out / RESOLVED_CONFIG_NAME, resolved)
    print(
        f"wrote {ds.total_measurements()} traces"
        f" ({len(ds.classes)} labels x {samples} samples @ {interval} ms) to {out}"
    )
    return EXIT_OK


# --- collect -------------------------------------------------------------


def _collect_workload(args, cfg, interval_ms: int):
    kind = _pick(cfg, "collect.workload", args.workload, "idle")
    tick = 20 if kind == "keystrokes" else 10
    ticks = args.workload_ticks or 1000
    seed = _pick(cfg, "run.seed", args.seed, 0)
    if kind == "website":
        class_id = _pick(cfg, "collect.workload_class", args.workload_class, 0)
        return website_workload(class_id, n_ticks=ticks, tick_ms=tick, seed=seed)
    if kind == "keystrokes":
        presses = _pick(cfg, "collect.presses", args.presses)
        if not presses:
            raise ConfigError("--presses is required for the keystrokes workload")
        ticks = max(ticks, max(presses) // tick + 24)
        return keystroke_workload(presses, n_ticks=ticks, tick_ms=tick, seed=seed)
    if kind == "noise":
        return noise_workload(ticks, tick_ms=tick, seed=seed)
    if kind == "idle":
        return idle_workload(ticks, tick_ms=tick, seed=seed)
    raise ConfigError(f"unknown workload kind {kind!r}")


def _build_source(args, cfg, interval_ms: int):
    source = _pick(cfg, "collect.source", args.source, "sim")
    policy_name = _pick(cfg, "collect.policy", args.policy, "open")
    if policy_name not in (POLICY_OPEN, POLICY_MASKED):
        raise ConfigError(f"unknown policy {policy_name!r} (open | masked)")
    if source == "sim":
        sim_cfg = _sim_config(args, cfg, default_profile="ryzen5")
        workload = _collect_workload(args, cfg, interval_ms)
        return SimSource(sim_cfg, workload, policy=policy_name), source
    if source == "replay":
        replay_path = _pick(cfg, "collect.replay", args.replay)
        if not replay_path:
            raise ConfigError("--replay TRACE.ftrace is required for the replay source")
        return ReplaySource(load_trace(replay_path), policy=policy_name), source
    if source == "sysfs":
        root = _pick(cfg, "collect.sysfs_root", args.sysfs_root)
        index = _pick(cfg, "collect.policy_index", args.policy_index, 0)
        return SysfsSource(root=root, policy_index=index, policy=policy_name), source
    raise ConfigError(f"unknown source {source!r} (sim | replay | sysfs)")


def cmd_collect(args) -> int:
    cfg = _load_cfg(args)
    interval = _pick(cfg, "collect.interval_ms", args.interval_ms, 10)
    plan = CollectPlan(
        interval_ms=interval,
        samples_per_measurement=_pick(cfg, "collect.samples", args.samples, 1000),
        measurements=_pick(cfg, "collect.measurements", args.measurements, 1),
        label=_pick(cfg, "collect.label", args.label, "unlabeled"),
        pre_hook=_pick(cfg, "collect.pre_hook", args.pre_hook),
        post_hook=_pick(cfg, "collect.post_hook", args.post_hook),
        inter_measurement_sleep_ms=_pick(cfg, "collect.sleep_ms", args.sleep_ms, 1000),
    )
    src, source_name = _build_source(args, cfg, interval)
    traces = collect(plan, src)
    if not traces:
        _err("no measurement completed (every attempt lost to hook failures)")
        return EXIT_HOOK

    out = Path(args.out)
    from .trace import encode_label

    label_dir = out / encode_label(plan.label)
    with dataset_lock(out):
        label_dir.mkdir(parents=True, exist_ok=True)
        stems = [f[: -len(".ftrace")] for f in os.listdir(label_dir) if f.endswith(".ftrace")]
        first = max((int(s) for s in stems if s.isascii() and s.isdigit()), default=-1) + 1
        for i, trace in enumerate(traces, start=first):
            save_trace(trace, label_dir / measurement_filename(i), overwrite=False)
        resolved = {
            "collect.source": source_name,
            "collect.interval_ms": plan.interval_ms,
            "collect.samples": plan.samples_per_measurement,
            "collect.measurements": plan.measurements,
            "collect.label": plan.label,
            "collect.policy": _pick(cfg, "collect.policy", args.policy, "open"),
            "collect.sleep_ms": plan.inter_measurement_sleep_ms,
            "collect.pre_hook": plan.pre_hook,
            "collect.post_hook": plan.post_hook,
        }
        write_resolved(out / RESOLVED_CONFIG_NAME, resolved)
    print(f"collected {len(traces)}/{plan.measurements} measurements to {label_dir}")
    if len(traces) < plan.measurements:
        print(f"({plan.measurements - len(traces)} measurement(s) lost to hook failures)")
    return EXIT_OK


# --- train / eval --------------------------------------------------------


def _classifier_settings(args, cfg) -> dict:
    return {
        "classifier.kind": _pick(cfg, "classifier.kind", args.classifier_kind, "knn"),
        "classifier.k": _pick(cfg, "classifier.k", args.k, 4),
        "classifier.normalization": _normalization(
            _pick(cfg, "classifier.normalization", args.normalization, "none")
        ),
        "classifier.trees": _pick(cfg, "classifier.trees", args.trees, 100),
        "classifier.max_depth": _pick(cfg, "classifier.max_depth", args.max_depth, 20),
        "classifier.min_leaf": _pick(cfg, "classifier.min_leaf", args.min_leaf, 1),
        "classifier.feature_subsample": _pick(
            cfg, "classifier.feature_subsample", args.feature_subsample, "sqrt"
        ),
        "classifier.seed": _pick(cfg, "classifier.seed", args.classifier_seed, 0),
    }


def _make_trainer(settings: dict, metadata: dict):
    kind = settings["classifier.kind"]
    normalization = settings["classifier.normalization"]
    if kind == "knn":
        def trainer(view: LabeledDataset) -> TrainedModel:
            return train_knn_model(
                view, k=settings["classifier.k"], normalization=normalization,
                metadata=metadata,
            )
        return trainer
    if kind == "forest":
        subsample = settings["classifier.feature_subsample"]
        if subsample != "sqrt":
            subsample = float(subsample)
        params = ForestParams(
            n_trees=settings["classifier.trees"],
            max_depth=settings["classifier.max_depth"],
            min_leaf=settings["classifier.min_leaf"],
            feature_subsample=subsample,
            seed=settings["classifier.seed"],
        )
        def trainer(view: LabeledDataset) -> TrainedModel:
            return train_forest_model(
                view, params=params, normalization=normalization, metadata=metadata,
            )
        return trainer
    raise ConfigError(f"unknown classifier kind {kind!r} (knn | forest)")


def _split_settings(args, cfg) -> tuple[int, tuple[float, float, float]]:
    split_seed = _pick(cfg, "split.seed", args.split_seed, 0)
    if args.fractions is not None:
        fractions = _parse_fractions(args.fractions)
    else:
        fractions = (
            cfg.get("split.train", DEFAULT_FRACTIONS[0]),
            cfg.get("split.val", DEFAULT_FRACTIONS[1]),
            cfg.get("split.test", DEFAULT_FRACTIONS[2]),
        )
    return split_seed, fractions


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    settings = _classifier_settings(args, cfg)
    split_seed, fractions = _split_settings(args, cfg)
    ds = load_dataset(args.dataset, split_seed=split_seed, split_fractions=fractions)
    train_view, _, _ = split_dataset(ds)
    metadata = {
        "split_seed": split_seed,
        "split_fractions": list(fractions),
        "train_traces": train_view.total_measurements(),
        "classes": len(ds.classes),
    }
    trainer = _make_trainer(settings, metadata)
    model = trainer(train_view)
    model_path = Path(args.model)
    if model_path.parent != Path(""):
        model_path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, model_path)
    resolved = dict(settings)
    resolved.update({
        "split.seed": split_seed,
        "split.train": fractions[0],
        "split.val": fractions[1],
        "split.test": fractions[2],
    })
    write_resolved(model_path.parent / f"{model_path.name}.resolved.conf", resolved)
    print(
        f"trained {settings['classifier.kind']} on {metadata['train_traces']} traces"
        f" ({metadata['classes']} classes) -> {model_path}"
    )
    return EXIT_OK


def _write_report(out: Path, report: EvalReport, resolved: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "report.kv").write_text("\n".join(report.key_value_lines()) + "\n", encoding="utf-8")
    (out / "confusion.csv").write_text(
        "\n".join(report.confusion_csv_lines()) + "\n", encoding="utf-8"
    )
    write_resolved(out / RESOLVED_CONFIG_NAME, resolved)


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    model = load_model(args.model)
    default_seed = model.metadata.get("split_seed", 0)
    default_fracs = model.metadata.get("split_fractions", list(DEFAULT_FRACTIONS))
    split_seed = _pick(cfg, "split.seed", args.split_seed, default_seed)
    if args.fractions is not None:
        fractions = _parse_fractions(args.fractions)
    else:
        fractions = tuple(default_fracs)  # type: ignore[assignment]
    ds = load_dataset(args.dataset, split_seed=split_seed, split_fractions=fractions)
    views = dict(zip(("train", "val", "test"), split_dataset(ds)))
    which = _pick(cfg, "eval.split", args.split, "test")
    if which not in views:
        raise ConfigError(f"unknown split {which!r} (train | val | test)")
    topk_max = _pick(cfg, "eval.topk", args.topk, 5)
    if isinstance(topk_max, list):
        topk = tuple(sorted(set(topk_max)))
    else:
        topk = (1, topk_max) if topk_max > 1 else (1,)
    report = evaluate(model, views[which], topk=topk)
    sys.stdout.write(report.to_text())
    if args.out:
        resolved = {
            "split.seed": split_seed,
            "split.train": fractions[0],
            "split.val": fractions[1],
            "split.test": fractions[2],
            "eval.split": which,
            "eval.topk": list(topk),
        }
        _write_report(Path(args.out), report, resolved)
        print(f"report written to {args.out}")
    return EXIT_OK


# --- keystrokes ----------------------------------------------------------


def _keystroke_params(args, cfg) -> KeystrokeParams:
    return KeystrokeParams(
        idle_freq_khz=_pick(cfg, "keystroke.idle_freq_khz", args.idle_khz, 800_000),
        peak_cap_khz=_pick(cfg, "keystroke.peak_cap_khz", args.peak_cap_khz, 1_600_000),
        sustained_freq_khz=_pick(cfg, "keystroke.sustained_freq_khz", args.sustained_khz, 1_200_000),
        min_pulse_samples=_pick(cfg, "keystroke.min_pulse", args.min_pulse, 8),
        max_single_pulse_samples=_pick(cfg, "keystroke.max_single", args.max_single, 12),
        decay_ms=_pick(cfg, "keystroke.decay_ms", args.decay_ms, 200),
        sample_interval_ms=_pick(cfg, "keystroke.interval_ms", args.interval_ms, 20),
        hysteresis_khz=_pick(cfg, "keystroke.hysteresis_khz", args.hysteresis_khz, 100_000),
    )


def cmd_keystrokes(args) -> int:
    cfg = _load_cfg(args)
    params = _keystroke_params(args, cfg)
    if bool(args.trace) == bool(args.dataset):
        raise ConfigError("exactly one of --trace or --dataset is required")

    if args.trace:
        report = detect_keystrokes(load_trace(args.trace), params)
        lines = report.key_value_lines()
        print("\n".join(lines))
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "keystrokes.kv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            write_resolved(out / RESOLVED_CONFIG_NAME, {
                "keystroke.interval_ms": params.sample_interval_ms,
                "keystroke.idle_freq_khz": params.idle_freq_khz,
                "keystroke.hysteresis_khz": params.hysteresis_khz,
                "keystroke.sustained_freq_khz": params.sustained_freq_khz,
                "keystroke.peak_cap_khz": params.peak_cap_khz,
                "keystroke.min_pulse": params.min_pulse_samples,
                "keystroke.max_single": params.max_single_pulse_samples,
            })
            print(f"report written to {out / 'keystrokes.kv'}")
        return EXIT_OK

    ds = load_dataset(args.dataset)
    vectors: dict[str, list[np.ndarray]] = {}
    for label in ds.classes:
        vecs = []
        for trace in ds.measurements[label]:
            report = detect_keystrokes(trace, params)
            vecs.append(np.asarray(report.inter_key_timings_ms, dtype=np.float64))
        vectors[label] = vecs
        presses = [len(v) + 1 if len(v) else 0 for v in vecs]
        print(f"{label}: traces={len(vecs)} mean_presses={np.mean(presses):.2f}")

    guesses = _pick(cfg, "keystroke.guess_curve", args.guess_curve)
    if guesses:
        split_seed = _pick(cfg, "keystroke.split_seed", args.split_seed, 0)
        model, held_out = train_password_model(vectors, split_seed=split_seed)
        curve = guess_curve(model, held_out, guesses)
        lines = ["guess,accuracy"]
        for g, acc in enumerate(curve, start=1):
            lines.append(f"{g},{acc:.6f}")
        print("\n".join(lines))
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "guesses.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            write_resolved(out / RESOLVED_CONFIG_NAME, {
                "keystroke.guess_curve": guesses,
                "keystroke.split_seed": split_seed,
                "keystroke.interval_ms": params.sample_interval_ms,
                "keystroke.idle_freq_khz": params.idle_freq_khz,
                "keystroke.hysteresis_khz": params.hysteresis_khz,
            })
            print(f"guess curve written to {out / 'guesses.csv'}")
    return EXIT_OK


# --- defend --------------------------------------------------------------


def _parse_defense(spec: str) -> list[Defense]:
    kind, _, rest = spec.partition(":")
    if kind == "resolution":
        if not rest:
            raise ConfigError("resolution defense needs factors, e.g. resolution:1,2,5")
        return [resolution_reduce(int(f)) for f in rest.split(",")]
    if kind == "noise":
        if not rest:
            raise ConfigError("noise defense needs a rate, e.g. noise:20 or noise:20:0.8")
        parts = rest.split(":")
        rate = float(parts[0])
        height = float(parts[1]) if len(parts) > 1 else 0.5
        seed = int(parts[2]) if len(parts) > 2 else 0
        return [noise_inject(rate, height, seed)]
    if kind == "mask":
        if not rest:
            raise ConfigError("mask defense needs a frequency, e.g. mask:2200000")
        return [constant_mask(int(rest))]
    if kind == "restrict":
        raise ConfigError(
            "access_restrict is a source policy, not a trace transform;"
            " demonstrate it with: freqscope collect --policy masked"
        )
    raise ConfigError(f"unknown defense spec {spec!r} (resolution: | noise: | mask:)")


def cmd_defend(args) -> int:
    cfg = _load_cfg(args)
    defenses: list[Defense] = []
    for spec in args.defense or []:
        defenses.extend(_parse_defense(spec))
    if not defenses:
        factors = cfg.get("defend.resolution_factors")
        if factors:
            defenses.extend(resolution_reduce(f) for f in factors)
        for rate in cfg.get("defend.noise_rates", []):
            defenses.append(noise_inject(
                rate,
                cfg.get("defend.noise_height", 0.5),
                cfg.get("defend.noise_seed", 0),
            ))
        if cfg.get("defend.mask_freq_khz"):
            defenses.append(constant_mask(cfg["defend.mask_freq_khz"]))
    if not defenses:
        raise ConfigError("no defenses given (--defense resolution:1,2,5 ...)")

    settings = _classifier_settings(args, cfg)
    split_seed, fractions = _split_settings(args, cfg)
    ds = load_dataset(args.dataset, split_seed=split_seed, split_fractions=fractions)
    trainer = _make_trainer(settings, metadata={"split_seed": split_seed})
    rows = defense_sweep(defenses, ds, trainer)
    csv_lines = sweep_csv_lines(rows)
    print("\n".join(csv_lines))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
        (out / "sweep.dat").write_text(
            "\n".join(sweep_plot_lines(rows)) + "\n", encoding="utf-8"
        )
        resolved = dict(settings)
        resolved["split.seed"] = split_seed
        write_resolved(out / RESOLVED_CONFIG_NAME, resolved)
        print(f"sweep written to {out}")
    return EXIT_OK


# --- report --------------------------------------------------------------


def _parse_kv_file(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or "=" not in line:
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _align(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def cmd_report(args) -> int:
    if not args.eval_kv and not args.sweep_csv:
        raise ConfigError("nothing to report (--eval-kv and/or --sweep-csv)")
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    blocks: list[str] = []
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
        if out:
            (out / "eval_table.txt").write_text(table + "\n", encoding="utf-8")
            (out / "eval.dat").write_text("\n".join(plot) + "\n", encoding="utf-8")

    if args.sweep_csv:
        rows = [["defense", "param", "top1_clean", "top1_defended"]]
        plot = ["# defense param top1_clean top1_defended"]
        for path_text in args.sweep_csv:
            lines = Path(path_text).read_text(encoding="utf-8").splitlines()
            for n, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                cells = line.split(",")
                if len(cells) != 4:
                    raise TraceFormatError(n, f"{path_text}: malformed sweep row {line!r}")
                rows.append(cells)
                plot.append(" ".join(cells))
        table = "\n".join(_align(rows))
        blocks.append(table)
        if out:
            (out / "defense_table.txt").write_text(table + "\n", encoding="utf-8")
            (out / "defense.dat").write_text("\n".join(plot) + "\n", encoding="utf-8")

    print("\n\n".join(blocks))
    if out:
        print(f"report files written to {out}")
    return EXIT_OK


# --- parser --------------------------------------------------------------


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", help="device profile: " + ", ".join(sorted(builtin_profiles())))
    p.add_argument("--governor", help="scaling governor (default: profile default)")
    turbo = p.add_mutually_exclusive_group()
    turbo.add_argument("--turbo", dest="turbo", action="store_const", const=True,
                       help="force turbo boost on")
    turbo.add_argument("--no-turbo", dest="turbo", action="store_const", const=False,
                       help="force turbo boost off")
    p.set_defaults(turbo=None)
    p.add_argument("--set-speed-khz", type=int, dest="set_speed_khz",
                   help="pinned frequency for the userspace governor")
    p.add_argument("--hispeed-khz", type=int, dest="hispeed_khz",
                   help="interactive governor boost floor")


def _add_classifier_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classifier", dest="classifier_kind", choices=("knn", "forest"))
    p.add_argument("--k", type=int, help="KNN neighbor count (default 4)")
    p.add_argument("--normalization", help="none | minmax (default none)")
    p.add_argument("--trees", type=int, help="forest size (default 100)")
    p.add_argument("--max-depth", type=int, dest="max_depth")
    p.add_argument("--min-leaf", type=int, dest="min_leaf")
    p.add_argument("--feature-subsample", dest="feature_subsample",
                   help="'sqrt' or a fraction in (0,1]")
    p.add_argument("--classifier-seed", type=int, dest="classifier_seed")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--split-seed", type=int, dest="split_seed")
    p.add_argument("--fractions", help="train,val,test e.g. 0.8,0.1,0.1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqscope",
        description="CPU-frequency side-channel toolkit: simulate governors,"
        " collect traces, fingerprint, recover keystrokes, evaluate defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic labeled dataset")
    p.add_argument("--kind", choices=("website", "keystrokes"))
    p.add_argument("--classes", type=int, help="number of website classes")
    p.add_argument("--measurements", type=int, help="traces per class")
    p.add_argument("--passwords", help="password list file (keystrokes kind)")
    p.add_argument("--per-label", type=int, dest="per_label", help="traces per password")
    p.add_argument("--interval-ms", type=int, dest="interval_ms")
    p.add_argument("--samples", type=int, help="samples per trace")
    p.add_argument("--jitter", type=float, help="website load jitter sigma")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="dataset directory")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("collect", help="sample a frequency source into traces")
    p.add_argument("--source", choices=("sim", "replay", "sysfs"))
    p.add_argument("--interval-ms", type=int, dest="interval_ms")
    p.add_argument("--samples", type=int)
    p.add_argument("--measurements", type=int)
    p.add_argument("--label")
    p.add_argument("--pre-hook", dest="pre_hook")
    p.add_argument("--post-hook", dest="post_hook")
    p.add_argument("--sleep-ms", type=int, dest="sleep_ms")
    p.add_argument("--policy", choices=("open", "masked"))
    p.add_argument("--replay", help="trace file for the replay source")
    p.add_argument("--sysfs-root", dest="sysfs_root")
    p.add_argument("--policy-index", type=int, dest="policy_index")
    p.add_argument("--workload", choices=("website", "keystrokes", "idle", "noise"))
    p.add_argument("--workload-class", type=int, dest="workload_class")
    p.add_argument("--workload-ticks", type=int, dest="workload_ticks")
    p.add_argument("--presses", type=lambda s: [int(x) for x in s.split(",")],
                   help="press times in ms, comma separated")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="fit a classifier on the train split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True, help="output model file (json)")
    p.add_argument("--config")
    _add_classifier_flags(p)
    _add_split_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--topk", type=int, help="also report top-K accuracy")
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--config")
    _add_split_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("keystrokes", help="detect keystrokes / rank passwords")
    p.add_argument("--trace", help="single trace file")
    p.add_argument("--dataset", help="dataset of password-labeled traces")
    p.add_argument("--guess-curve", type=int, dest="guess_curve",
                   help="emit cumulative accuracy up to N guesses")
    p.add_argument("--split-seed", type=int, dest="split_seed")
    p.add_argument("--idle-khz", type=int, dest="idle_khz")
    p.add_argument("--peak-cap-khz", type=int, dest="peak_cap_khz")
    p.add_argument("--sustained-khz", type=int, dest="sustained_khz")
    p.add_argument("--min-pulse", type=int, dest="min_pulse")
    p.add_argument("--max-single", type=int, dest="max_single")
    p.add_argument("--decay-ms", type=int, dest="decay_ms")
    p.add_argument("--interval-ms", type=int, dest="interval_ms")
    p.add_argument("--hysteresis-khz", type=int, dest="hysteresis_khz")
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_keystrokes)

    p = sub.add_parser("defend", help="sweep countermeasures against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--defense", action="append",
                   help="resolution:F1,F2,... | noise:RATE[:HEIGHT[:SEED]] | mask:FREQ")
    p.add_argument("--out")
    p.add_argument("--config")
    _add_classifier_flags(p)
    _add_split_flags(p)
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("report", help="render eval/sweep outputs as tables")
    p.add_argument("--eval-kv", action="append", dest="eval_kv",
                   help="report.kv file from `eval --out` (repeatable)")
    p.add_argument("--sweep-csv", action="append", dest="sweep_csv",
                   help="sweep.csv file from `defend --out` (repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

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
    except (TraceFormatError, ModelFormatError) as exc:
        _err(str(exc))
        return EXIT_DATA
    except (ReplayExhaustedError, SysfsReadError, LockError) as exc:
        _err(str(exc))
        return EXIT_DATA
    except AccessDeniedError as exc:
        _err(f"access restricted: {exc}")
        return EXIT_ACCESS
    except HookError as exc:
        _err(str(exc))
        return EXIT_HOOK
    except json.JSONDecodeError as exc:
        _err(f"malformed model file: {exc}")
        return EXIT_DATA
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
