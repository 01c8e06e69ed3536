"""Every subcommand keeps the flags it had before the settings table drove
the parser: same names, same argparse dest, same value type."""

import argparse

from freqscope.cli import build_parser

# flag: (dest, type) per subcommand, as the hand-written parser had them;
# `--decay-ms` is left out on purpose (its setting was removed)
_SIM = {
    "--profile": ("profile", "str"),
    "--governor": ("governor", "str"),
    "--turbo": ("turbo", "const"),
    "--no-turbo": ("turbo", "const"),
    "--set-speed-khz": ("set_speed_khz", "int"),
    "--hispeed-khz": ("hispeed_khz", "int"),
}
_CLASSIFIER = {
    "--classifier": ("classifier_kind", "str"),
    "--k": ("k", "int"),
    "--normalization": ("normalization", "str"),
    "--trees": ("trees", "int"),
    "--max-depth": ("max_depth", "int"),
    "--min-leaf": ("min_leaf", "int"),
    "--feature-subsample": ("feature_subsample", "str"),
    "--classifier-seed": ("classifier_seed", "int"),
}
_SPLIT = {
    "--split-seed": ("split_seed", "int"),
    "--fractions": ("fractions", "str"),
}
ORACLE = {
    "simulate": {
        "--kind": ("kind", "str"),
        "--classes": ("classes", "int"),
        "--measurements": ("measurements", "int"),
        "--passwords": ("passwords", "str"),
        "--per-label": ("per_label", "int"),
        "--interval-ms": ("interval_ms", "int"),
        "--samples": ("samples", "int"),
        "--jitter": ("jitter", "float"),
        "--seed": ("seed", "int"),
        "--config": ("config", "str"),
        "--out": ("out", "str"),
        **_SIM,
    },
    "collect": {
        "--source": ("source", "str"),
        "--interval-ms": ("interval_ms", "int"),
        "--samples": ("samples", "int"),
        "--measurements": ("measurements", "int"),
        "--label": ("label", "str"),
        "--pre-hook": ("pre_hook", "str"),
        "--post-hook": ("post_hook", "str"),
        "--sleep-ms": ("sleep_ms", "int"),
        "--policy": ("policy", "str"),
        "--replay": ("replay", "str"),
        "--sysfs-root": ("sysfs_root", "str"),
        "--policy-index": ("policy_index", "int"),
        "--workload": ("workload", "str"),
        "--workload-class": ("workload_class", "int"),
        "--workload-ticks": ("workload_ticks", "int"),
        "--presses": ("presses", "<lambda>"),
        "--seed": ("seed", "int"),
        "--config": ("config", "str"),
        "--out": ("out", "str"),
        **_SIM,
    },
    "train": {
        "--dataset": ("dataset", "str"),
        "--model": ("model", "str"),
        "--config": ("config", "str"),
        **_CLASSIFIER,
        **_SPLIT,
    },
    "eval": {
        "--dataset": ("dataset", "str"),
        "--model": ("model", "str"),
        "--split": ("split", "str"),
        "--topk": ("topk", "int"),
        "--out": ("out", "str"),
        "--config": ("config", "str"),
        **_SPLIT,
    },
    "keystrokes": {
        "--trace": ("trace", "str"),
        "--dataset": ("dataset", "str"),
        "--guess-curve": ("guess_curve", "int"),
        "--split-seed": ("split_seed", "int"),
        "--idle-khz": ("idle_khz", "int"),
        "--peak-cap-khz": ("peak_cap_khz", "int"),
        "--sustained-khz": ("sustained_khz", "int"),
        "--min-pulse": ("min_pulse", "int"),
        "--max-single": ("max_single", "int"),
        "--interval-ms": ("interval_ms", "int"),
        "--hysteresis-khz": ("hysteresis_khz", "int"),
        "--out": ("out", "str"),
        "--config": ("config", "str"),
    },
    "defend": {
        "--dataset": ("dataset", "str"),
        "--defense": ("defense", "append"),
        "--out": ("out", "str"),
        "--config": ("config", "str"),
        **_CLASSIFIER,
        **_SPLIT,
    },
    "report": {
        "--eval-kv": ("eval_kv", "append"),
        "--sweep-csv": ("sweep_csv", "append"),
        "--out": ("out", "str"),
    },
}

# flags whose value now goes through its config key's parser
RETYPED = {
    "--presses": "int_list",  # the same comma list, blanks around parts allowed
    "--normalization": "normalization",  # aliases resolved when parsed
    "--topk": "topk",  # N still means top-1 and top-N
    # counts below 1 are rejected (collect's --measurements is still an int)
    "--classes": "positive_int",
    ("simulate", "--measurements"): "positive_int",
    "--per-label": "positive_int",
    "--guess-curve": "positive_int",
}


def _type_name(action: argparse.Action) -> str:
    if isinstance(action, argparse._StoreConstAction):
        return "const"
    if isinstance(action, argparse._AppendAction):
        return "append"
    return action.type.__name__ if action.type else "str"


def _flags() -> dict[str, dict[str, tuple[str, str]]]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {
            flag: (action.dest, _type_name(action))
            for action in p._actions if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        for command, p in sub.choices.items()
    }


def test_parser_keeps_every_flag_dest_and_type():
    expected = {
        command: {flag: (dest, RETYPED.get((command, flag), RETYPED.get(flag, kind)))
                  for flag, (dest, kind) in flags.items()}
        for command, flags in ORACLE.items()
    }
    assert _flags() == expected
