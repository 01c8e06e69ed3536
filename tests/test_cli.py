"""End-to-end command-line runs: exit codes and artifact files."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from freqscope import dataset
from freqscope.cli import LOCK_NAME, main
from freqscope.config import RESOLVED_CONFIG_NAME
from freqscope.dataset import DEFAULT_FRACTIONS, LabeledDataset, save_dataset, split_indices
from freqscope.trace import _file_mode, load_trace, save_trace, FrequencyTrace


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def website_ds(tmp_path_factory):
    """Small simulated website dataset shared by train/eval/defend tests."""
    out = tmp_path_factory.mktemp("ds") / "web"
    rc = run_cli(
        "simulate", "--kind", "website", "--classes", "4", "--measurements", "10",
        "--samples", "160", "--seed", "11", "--out", out,
    )
    assert rc == 0
    return out


def tree_bytes(root):
    """Sorted (relative path, file bytes) pairs below root."""
    found = []
    for base, _, files in os.walk(root):
        for name in sorted(files):
            p = os.path.join(base, name)
            with open(p, "rb") as fh:
                found.append((os.path.relpath(p, root), fh.read()))
    return sorted(found)


def test_simulate_writes_dataset_and_resolved(website_ds):
    dirs = sorted(d for d in os.listdir(website_ds)
                  if os.path.isdir(website_ds / d))
    assert len(dirs) == 4
    first = website_ds / dirs[0]
    traces = sorted(os.listdir(first))
    assert len(traces) == 10
    assert traces[0].endswith(".ftrace")
    assert (website_ds / RESOLVED_CONFIG_NAME).exists()
    assert not (website_ds / LOCK_NAME).exists()  # lock released


def test_simulate_reruns_byte_identical(tmp_path, website_ds):
    out2 = tmp_path / "web2"
    rc = run_cli(
        "simulate", "--kind", "website", "--classes", "4", "--measurements", "10",
        "--samples", "160", "--seed", "11", "--out", out2,
    )
    assert rc == 0
    assert tree_bytes(website_ds) == tree_bytes(out2)


def test_simulate_seed_changes_bytes(tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert run_cli("simulate", "--kind", "website", "--classes", "2",
                       "--measurements", "2", "--samples", "60",
                       "--seed", seed, "--out", out) == 0
        outs.append(tree_bytes(out))
    assert outs[0] != outs[1]


def locked_simulate(out, pid):
    out.mkdir()
    (out / LOCK_NAME).write_text(f"{pid}\n")
    return run_cli("simulate", "--kind", "website", "--classes", "2",
                   "--measurements", "2", "--samples", "40", "--out", out)


def test_simulate_respects_lock(tmp_path):
    out = tmp_path / "locked"
    assert locked_simulate(out, 424242) == 3
    (out / LOCK_NAME).unlink()
    assert run_cli("simulate", "--kind", "website", "--classes", "2",
                   "--measurements", "2", "--samples", "40", "--out", out) == 0


def test_lock_error_names_the_running_writer(tmp_path, capsys):
    out = tmp_path / "locked"
    assert locked_simulate(out, os.getpid()) == 3
    err = capsys.readouterr().err
    assert f"{out} is being written by pid {os.getpid()} (lock {out / LOCK_NAME})" in err
    assert (out / LOCK_NAME).read_text() == f"{os.getpid()}\n"  # never removed


def test_lock_error_names_a_stale_lock(tmp_path, capsys):
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    pid = int(child.stdout)  # finished and reaped: no process has this pid now
    out = tmp_path / "locked"
    assert locked_simulate(out, pid) == 3
    err = capsys.readouterr().err
    assert f"stale lock left by pid {pid} (not running); remove {out / LOCK_NAME}" in err
    assert (out / LOCK_NAME).read_text() == f"{pid}\n"  # never removed


@pytest.mark.parametrize("leftover", ["traces", "resolved_conf"])
def test_simulate_into_an_existing_dataset_exits_3(tmp_path, website_ds, leftover, capsys):
    out = tmp_path / "web"
    if leftover == "traces":
        (out / "site00").mkdir(parents=True)
        (out / "site00" / "0007.ftrace").write_bytes((website_ds / "site00" / "0000.ftrace").read_bytes())
    else:
        out.mkdir()
        (out / RESOLVED_CONFIG_NAME).write_text("run.seed = 4\n")
    before = tree_bytes(out)
    capsys.readouterr()
    assert run_cli("simulate", "--kind", "website", "--classes", "2", "--measurements", "2",
                   "--samples", "40", "--out", out) == 3
    err = capsys.readouterr().err
    assert err == f"freqscope: {out} already holds a dataset; simulate into a new directory\n"
    assert tree_bytes(out) == before


def test_simulate_into_an_existing_empty_directory(tmp_path):
    out = tmp_path / "web"
    out.mkdir()
    assert run_cli("simulate", "--kind", "website", "--classes", "2", "--measurements", "2",
                   "--samples", "40", "--out", out) == 0
    assert (out / RESOLVED_CONFIG_NAME).exists()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_artifacts_honour_the_umask(tmp_path, umask):
    old = os.umask(umask)
    _file_mode.cache_clear()  # read once per process, so forget the last test's umask
    try:
        assert run_cli("simulate", "--kind", "website", "--classes", "2", "--measurements", "4",
                       "--samples", "40", "--out", tmp_path / "ds") == 0
        assert run_cli("train", "--dataset", tmp_path / "ds", "--model",
                       tmp_path / "m" / "model.json", "--fractions", "0.5,0.25,0.25") == 0
    finally:
        os.umask(old)
        _file_mode.cache_clear()
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == 2 * 4 + 3  # traces, the dataset's conf, the model and its conf
    assert {oct(p.stat().st_mode & 0o777) for p in files} == {oct(0o666 & ~umask)}


def test_simulate_keystrokes_kind(tmp_path):
    pwfile = tmp_path / "pw.txt"
    pwfile.write_text("monkey\nvelvet\n")
    out = tmp_path / "keys"
    rc = run_cli("simulate", "--kind", "keystrokes", "--passwords", pwfile,
                 "--per-label", "3", "--out", out)
    assert rc == 0
    labels = sorted(d for d in os.listdir(out) if os.path.isdir(out / d))
    assert labels == ["monkey", "velvet"]
    t = load_trace(out / "monkey" / "0000.ftrace")
    assert t.interval_ms == 20
    assert t.label == "monkey"


def test_simulate_duplicate_passwords_rejected(tmp_path):
    pwfile = tmp_path / "pw.txt"
    pwfile.write_text("monkey\nmonkey\n")
    rc = run_cli("simulate", "--kind", "keystrokes", "--passwords", pwfile,
                 "--per-label", "3", "--out", tmp_path / "x")
    assert rc == 2


def test_bad_config_file_exits_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("simulate.clases = 4\n")
    rc = run_cli("simulate", "--kind", "website", "--config", conf,
                 "--out", tmp_path / "x")
    assert rc == 2


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"run.seed = 3\n\xff\n")
    rc = run_cli("simulate", "--config", conf, "--out", tmp_path / "x")
    err = capsys.readouterr().err
    assert rc == 2
    assert f"line 2: config {str(conf)!r} is not UTF-8: invalid start byte 0xff" in err
    assert "Traceback" not in err and not (tmp_path / "x").exists()


REMOVED_KEYS = {  # a setting that was deleted: the command that took it
    "sim.conservative_step_khz = 100000": ("simulate", "--out"),
    "keystroke.decay_ms = 200": ("keystrokes", "--dataset"),
    "defend.resolution_factors = 1,5": ("defend", "--dataset"),
    "defend.noise_rates = 20": ("defend", "--dataset"),
    "defend.noise_height = 0.5": ("defend", "--dataset"),
    "defend.noise_seed = 0": ("defend", "--dataset"),
    "defend.mask_freq_khz = 2200000": ("defend", "--dataset"),
    # the keystroke detector's tunings, now constants of `freqscope.keystroke`
    "keystroke.idle_freq_khz = 800000": ("keystrokes", "--dataset"),
    "keystroke.peak_cap_khz = 1600000": ("keystrokes", "--dataset"),
    "keystroke.sustained_freq_khz = 1200000": ("keystrokes", "--dataset"),
    "keystroke.min_pulse = 8": ("keystrokes", "--dataset"),
    "keystroke.max_single = 12": ("keystrokes", "--dataset"),
    "keystroke.interval_ms = 20": ("keystrokes", "--dataset"),
    "keystroke.hysteresis_khz = 100000": ("keystrokes", "--dataset"),
}


@pytest.mark.parametrize("line", REMOVED_KEYS, ids=lambda line: line.partition(" ")[0])
def test_removed_key_exits_2(tmp_path, capsys, line):
    conf = tmp_path / "old.conf"
    conf.write_text(line + "\n")
    command, path_flag = REMOVED_KEYS[line]
    assert run_cli(command, "--config", conf, path_flag, tmp_path / "x") == 2
    assert f"unknown key {line.partition(' ')[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--idle-khz", "--peak-cap-khz", "--sustained-khz",
                                  "--min-pulse", "--max-single", "--interval-ms",
                                  "--hysteresis-khz"])
def test_removed_keystroke_flag_exits_2(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("keystrokes", "--dataset", tmp_path / "x", flag, "1")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


DEFEND_CONF = """\
defend.defenses = resolution:1,4 noise:20:0.8:7 mask:1700000
classifier.kind = forest
classifier.trees = 3
split.train = 0.5
split.val = 0.25
split.test = 0.25
"""

# case: a command and its flags, whose settings the resolved conf must carry.
# `collect` is left out: its conf records only the sampler's settings, and
# recording the source's would change the bench's typing dataset digest.
RERUN_CASES = {
    "simulate-set_speed": ("simulate", "--governor", "userspace", "--set-speed-khz",
                           "2200000", "--classes", "2", "--measurements", "2",
                           "--samples", "60", "--passwords", "{pw}"),
    "simulate-hispeed": ("simulate", "--profile", "cortex_a73", "--hispeed-khz", "2361000",
                         "--classes", "2", "--measurements", "2", "--samples", "60",
                         "--passwords", "{pw}"),
    "simulate-keystrokes_no_turbo": ("simulate", "--kind", "keystrokes", "--profile",
                                     "comet_lake", "--governor", "performance", "--no-turbo",
                                     "--per-label", "2", "--passwords", "{pw}"),
    "train": ("train", "--dataset", "{web}", "--classifier", "forest", "--trees", "3",
              "--max-depth", "4", "--split-seed", "5", "--fractions", "0.5,0.25,0.25"),
    "eval": ("eval", "--dataset", "{web}", "--model", "{model}", "--split", "val",
             "--topk", "3", "--split-seed", "2"),
    "keystrokes": ("keystrokes", "--dataset", "{keys}", "--guess-curve", "2",
                   "--split-seed", "3"),
    "defend-flags": ("defend", "--dataset", "{web}", "--defense", "resolution:1,4",
                     "--defense", "noise:20:0.8:7", "--defense", "mask:1700000",
                     "--classifier", "forest", "--trees", "3",
                     "--fractions", "0.5,0.25,0.25"),
    "defend-config": ("defend", "--dataset", "{web}", "--config", "{conf}"),
}
# input paths are given to both runs; the resolved conf leaves them out
PATH_FLAGS = ("--dataset", "--model")


@pytest.mark.parametrize("case", sorted(RERUN_CASES))
def test_command_reruns_from_its_resolved_conf_alone(tmp_path, website_ds, case):
    pwfile, conf, model = tmp_path / "pw.txt", tmp_path / "defend.conf", tmp_path / "m.json"
    pwfile.write_text("monkey\nvelvet\n")
    conf.write_text(DEFEND_CONF)
    paths = {"{pw}": pwfile, "{web}": website_ds, "{conf}": conf, "{model}": model,
             "{keys}": tmp_path / "keys"}
    if case == "eval":
        assert run_cli("train", "--dataset", website_ds, "--model", model) == 0
    if case == "keystrokes":
        assert run_cli("simulate", "--kind", "keystrokes", "--passwords", pwfile,
                       "--per-label", "10", "--out", paths["{keys}"]) == 0
    command, *flags = [paths.get(a, a) for a in RERUN_CASES[case]]
    inputs = [a for flag, path in zip(flags, flags[1:]) if flag in PATH_FLAGS
              for a in (flag, path)]

    def run(out, *settings):
        # train writes a model and its conf; every other command an --out directory
        dest = ("--model", out / "m.json") if command == "train" else ("--out", out)
        assert run_cli(command, *settings, *dest) == 0
        return out / ("m.json.resolved.conf" if command == "train" else RESOLVED_CONFIG_NAME)

    first, second = tmp_path / "first", tmp_path / "second"
    resolved = run(first, *flags)
    run(second, *inputs, "--config", resolved)
    assert tree_bytes(first) == tree_bytes(second)


SET_SPEED_INPUTS = {  # command: its other arguments, a userspace governor on ryzen5
    "simulate": ("--classes", "2", "--measurements", "1", "--samples", "40"),
    "collect": ("--samples", "40", "--sleep-ms", "0"),
}


@pytest.mark.parametrize("value", ["99999999", "-5"])
@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(SET_SPEED_INPUTS))
def test_set_speed_outside_the_profile_exits_2(tmp_path, capsys, command, where, value):
    if where == "config":
        (tmp_path / "c.conf").write_text(f"sim.set_speed_khz = {value}\n")
        setting = ("--config", tmp_path / "c.conf")
    else:
        setting = (f"--set-speed-khz={value}",)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli(command, *SET_SPEED_INPUTS[command], "--profile", "ryzen5",
                 "--governor", "userspace", *setting, "--out", out)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"freqscope: set_speed_khz must be in [1400000, 4060000] on ryzen5,"
                   f" got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SET_SPEED_INPUTS))
def test_off_grid_set_speed_is_quantized(tmp_path, command):
    out = tmp_path / "out"
    assert run_cli(command, *SET_SPEED_INPUTS[command], "--profile", "ryzen5",
                   "--governor", "userspace", "--set-speed-khz", "1750000", "--out", out) == 0
    samples = [s for path in sorted(out.glob("*/*.ftrace"))
               for s in load_trace(path).samples.tolist()]
    # 1.75 GHz plus at most one load step (98.5 MHz) is nearest 1.8 GHz
    assert len(samples) == 40 * len(list(out.glob("*/*.ftrace")))
    assert set(samples) == {1_800_000}


def test_unknown_profile_exits_2(tmp_path):
    rc = run_cli("simulate", "--kind", "website", "--profile", "pentium3",
                 "--classes", "2", "--measurements", "2", "--samples", "40",
                 "--out", tmp_path / "x")
    assert rc == 2


def test_train_and_eval_round_trip(tmp_path, website_ds, capsys):
    model = tmp_path / "model.json"
    rc = run_cli("train", "--dataset", website_ds, "--model", model,
                 "--classifier", "knn", "--k", "3",
                 "--split-seed", "5", "--fractions", "0.5,0.25,0.25")
    assert rc == 0
    assert model.exists()
    assert (tmp_path / "model.json.resolved.conf").exists()
    doc = json.loads(model.read_text())
    assert doc["format"] == "freqscope-model"
    assert doc["metadata"]["split_seed"] == 5

    out = tmp_path / "eval"
    rc = run_cli("eval", "--dataset", website_ds, "--model", model,
                 "--split", "test", "--topk", "2", "--out", out)
    assert rc == 0
    text = capsys.readouterr().out
    assert "top-1 accuracy" in text
    # the report text is what eval printed; it is not written a second time
    assert sorted(os.listdir(out)) == ["confusion.csv", RESOLVED_CONFIG_NAME, "report.kv"]
    kv = (out / "report.kv").read_text()
    assert any(line.startswith("top1 = ") for line in kv.splitlines())
    assert (out / "confusion.csv").read_text().startswith("true\\pred,")
    assert (out / RESOLVED_CONFIG_NAME).exists()


def test_eval_takes_split_fractions_from_config(tmp_path, website_ds):
    model = tmp_path / "model.json"
    assert run_cli("train", "--dataset", website_ds, "--model", model) == 0
    conf = tmp_path / "split.conf"
    conf.write_text("split.train = 0.5\nsplit.val = 0.1\nsplit.test = 0.4\n")
    outs = []
    for name, how in (("conf", ("--config", conf)), ("flag", ("--fractions", "0.5,0.1,0.4"))):
        outs.append(tmp_path / name)
        assert run_cli("eval", "--dataset", website_ds, "--model", model, *how,
                       "--out", outs[-1]) == 0
    assert tree_bytes(outs[0]) == tree_bytes(outs[1])
    assert "total = 16" in (outs[0] / "report.kv").read_text().splitlines()


def test_train_and_eval_open_only_their_split(tmp_path, monkeypatch):
    ds, model = tmp_path / "ds", tmp_path / "m.json"
    assert run_cli("simulate", "--classes", "20", "--measurements", "30", "--samples", "40",
                   "--out", ds) == 0
    opened, load = [], dataset._load_member
    monkeypatch.setattr(dataset, "_load_member", lambda path: opened.append(path) or load(path))
    assert run_cli("train", "--dataset", ds, "--model", model) == 0
    assert len(opened) == 480
    opened.clear()
    assert run_cli("eval", "--dataset", ds, "--model", model, "--split", "test") == 0
    assert len(opened) == 60


def test_a_bad_trace_outside_the_split_fails_only_the_commands_that_read_it(
        tmp_path, website_ds, capsys):
    ds, model = tmp_path / "ds", tmp_path / "m.json"
    shutil.copytree(website_ds, ds)
    _, _, test = split_indices(0, "site00", 10, DEFAULT_FRACTIONS)
    bad = ds / "site00" / f"{test[0]:04d}.ftrace"
    bad.write_text("#ftrace v2\n")
    assert run_cli("train", "--dataset", ds, "--model", model) == 0
    assert run_cli("eval", "--dataset", ds, "--model", model, "--split", "val") == 0
    capsys.readouterr()
    for argv in (("eval", "--model", model, "--split", "test"),
                 ("defend", "--defense", "resolution:2")):
        assert run_cli(*argv, "--dataset", ds) == 3
        assert capsys.readouterr().err == (
            f"freqscope: {bad}: line 1: missing magic header '#ftrace v1'\n")


def test_eval_of_an_empty_split_exits_2(tmp_path, website_ds, capsys):
    model = tmp_path / "m.json"
    assert run_cli("train", "--dataset", website_ds, "--model", model,
                   "--fractions", "0.9,0,0.1") == 0
    capsys.readouterr()
    assert run_cli("eval", "--dataset", website_ds, "--model", model, "--split", "val") == 2
    assert capsys.readouterr().err == "freqscope: dataset holds no traces\n"


def test_eval_missing_dataset_exits_3(tmp_path, website_ds):
    model = tmp_path / "model.json"
    assert run_cli("train", "--dataset", website_ds, "--model", model) == 0
    rc = run_cli("eval", "--dataset", tmp_path / "absent", "--model", model)
    assert rc == 3


def test_eval_malformed_model_exits_3(tmp_path, website_ds):
    model = tmp_path / "broken.json"
    model.write_text("{not json")
    assert run_cli("eval", "--dataset", website_ds, "--model", model) == 3


def _drop(*keys):
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return doc
    return edit


def _with(key, value):
    return lambda doc: {**doc, key: value}


def _ragged_train_x(doc):
    doc["classifier"]["train_x"][0].pop()
    return doc


def _non_finite_train_x(doc):
    doc["classifier"]["train_x"][1][0] = float("nan")  # json writes NaN
    return doc


def _k_set(value):
    def edit(doc):
        doc["classifier"]["k"] = value
        return doc
    return edit


def _zero_trees(doc):
    doc["classifier"]["params"]["n_trees"] = 0
    return doc


def _trees_not_objects(doc):
    doc["classifier"]["trees"] = [5, "x"]
    return doc


def _first_leaf(node):
    while "label" not in node:
        node = node["l"]
    return node


def _node_set(key, value, leaf=False):
    """Set `key` of the first tree's root split, or of its leftmost leaf."""
    def edit(doc):
        root = doc["classifier"]["trees"][0]
        (_first_leaf(root) if leaf else root)[key] = value(doc) if callable(value) else value
        return doc
    return edit


def _no_right_child(doc):
    del doc["classifier"]["trees"][0]["r"]
    return doc


MALFORMED_MODELS = {  # case: (trained kind, edit of its JSON document)
    "no_classifier": ("knn", _drop("classifier")),
    "no_knn_k": ("knn", _drop("classifier", "k")),
    "ragged_train_x": ("knn", _ragged_train_x),
    "non_finite_train_x": ("knn", _non_finite_train_x),
    "feature_length_not_train_x_width":
        ("knn", lambda doc: _with("feature_length", doc["feature_length"] - 1)(doc)),
    "knn_k_not_an_int": ("knn", _k_set(True)),
    "knn_classes_disagree": ("knn", _with("classes", ["a"])),
    "forest_classes_disagree": ("forest", _with("classes", ["a"])),
    "no_forest_max_depth": ("forest", _drop("classifier", "params", "max_depth")),
    "zero_forest_trees": ("forest", _zero_trees),
    "forest_trees_not_objects": ("forest", _trees_not_objects),
    "forest_label_past_classes": ("forest", _node_set("label", 99, leaf=True)),
    "forest_label_negative": ("forest", _node_set("label", -1, leaf=True)),
    "forest_feature_not_an_int": ("forest", _node_set("f", 1.5)),
    "forest_feature_negative": ("forest", _node_set("f", -1)),
    "forest_feature_past_length": ("forest", _node_set("f", lambda doc: doc["feature_length"])),
    "forest_split_without_right": ("forest", _no_right_child),
    "forest_threshold_a_string": ("forest", _node_set("t", "0.5")),
    "unknown_kind": ("knn", _with("kind", "svm")),
    "other_format": ("knn", _with("format", "something-else")),
    "other_version": ("knn", _with("version", 99)),
    "metadata_not_a_dict": ("knn", _with("metadata", [1, 2])),
    "not_an_object": ("knn", lambda doc: [doc["format"]]),
}


@pytest.fixture(scope="module")
def model_docs(tmp_path_factory, website_ds):
    out = tmp_path_factory.mktemp("models")
    docs = {}
    for kind in ("knn", "forest"):
        path = out / f"{kind}.json"
        assert run_cli("train", "--dataset", website_ds, "--model", path,
                       "--classifier", kind, "--trees", "2") == 0
        docs[kind] = path.read_text()
    return docs


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_eval_malformed_model_payload_exits_3(tmp_path, website_ds, model_docs, case, capsys):
    kind, edit = MALFORMED_MODELS[case]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(edit(json.loads(model_docs[kind]))))
    capsys.readouterr()
    assert run_cli("eval", "--dataset", website_ds, "--model", model) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(model) in err


GOOD_TRACE = "#ftrace v1\n#interval_ms=10\n0,100\n1,200\n"

MALFORMED_DATASETS = {  # case: (relative path -> file text, stderr message)
    "mixed_lengths": ({"a/0000.ftrace": GOOD_TRACE,
                       "b/0000.ftrace": "#ftrace v1\n#interval_ms=10\n0,100\n"},
                      "traces disagree on sample count: [1, 2]"),
    "mixed_intervals": ({"a/0000.ftrace": GOOD_TRACE,
                         "b/0000.ftrace": GOOD_TRACE.replace("=10", "=20")},
                        "traces disagree on interval_ms: [10, 20]"),
    "no_traces": ({"a/notes.txt": "not a trace\n"}, "no traces found under {root!r}"),
    "bad_header": ({"a/0000.ftrace": GOOD_TRACE, "a/0001.ftrace": "#ftrace v2\n0,1\n"},
                   "{root}/a/0001.ftrace: line 1: missing magic header '#ftrace v1'"),
    "bad_body_line": ({"a/0000.ftrace": GOOD_TRACE,
                       "a/0001.ftrace": "#ftrace v1\n#interval_ms=10\n 0,+100\n1,2x0\n"},
                      "{root}/a/0001.ftrace: line 4: non-numeric sample line: '1,2x0'"),
    "sample_past_int64": ({"a/0000.ftrace": GOOD_TRACE.replace(",200", ",9223372036854775808")},
                          "{root}/a/0000.ftrace: line 3: samples must be integers in"
                          " [0, 2**63), got 9223372036854775808"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_train_malformed_dataset_exits_3(tmp_path, case, capsys):
    files, message = MALFORMED_DATASETS[case]
    root = tmp_path / "ds"
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    capsys.readouterr()
    # train reads only its split: with every trace in it, it reads the bad one
    assert run_cli("train", "--dataset", root, "--model", tmp_path / "m.json",
                   "--fractions", "1,0,0") == 3
    err = capsys.readouterr().err
    assert err == f"freqscope: {message.format(root=str(root))}\n"
    assert not (tmp_path / "m.json").exists()


MALFORMED_SPLITS = {  # case: (--fractions value, or config file text; stderr message)
    "flag_nan": ("nan,0.1,0.1", "split.train must be a finite fraction >= 0, got nan"),
    "flag_inf": ("0.5,0.5,inf", "split.test must be a finite fraction >= 0, got inf"),
    "flag_negative": ("1.2,-0.1,-0.1", "split.val must be a finite fraction >= 0, got -0.1"),
    "config_nan": ("split.train = nan\nsplit.val = 0.5\nsplit.test = 0.5\n",
                   "split.train must be a finite fraction >= 0, got nan"),
    "config_inf": ("split.train = 0.5\nsplit.val = -inf\nsplit.test = 0.5\n",
                   "split.val must be a finite fraction >= 0, got -inf"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPLITS))
def test_train_malformed_split_exits_2(tmp_path, website_ds, case, capsys):
    value, message = MALFORMED_SPLITS[case]
    if "=" in value:
        (tmp_path / "c.conf").write_text(value)
        argv = ("--config", tmp_path / "c.conf")
    else:
        argv = ("--fractions", value)
    capsys.readouterr()
    assert run_cli("train", "--dataset", website_ds, "--model", tmp_path / "m.json", *argv) == 2
    assert capsys.readouterr().err == f"freqscope: {message}\n"
    assert not (tmp_path / "m.json").exists()


BAD_COUNTS = {  # case: (command, flag, config key, value below 1)
    "classes": ("simulate", "--classes", "simulate.classes", "0"),
    "measurements": ("simulate", "--measurements", "simulate.measurements", "0"),
    "per_label": ("simulate", "--per-label", "simulate.per_label", "0"),
    "topk": ("eval", "--topk", "eval.topk", "0,-2"),
    "guess_curve_zero": ("keystrokes", "--guess-curve", "keystroke.guess_curve", "0"),
    "guess_curve_negative": ("keystrokes", "--guess-curve", "keystroke.guess_curve", "-1"),
    "sim_samples": ("simulate", "--samples", "sim.samples", "-5"),
    "sim_interval": ("simulate", "--interval-ms", "sim.interval_ms", "0"),
    "collect_interval": ("collect", "--interval-ms", "collect.interval_ms", "0"),
    "collect_samples": ("collect", "--samples", "collect.samples", "0"),
    "collect_measurements": ("collect", "--measurements", "collect.measurements", "0"),
    "workload_ticks": ("collect", "--workload-ticks", "collect.workload_ticks", "0"),
    "k": ("train", "--k", "classifier.k", "0"),
    "trees": ("train", "--trees", "classifier.trees", "0"),
    "max_depth": ("defend", "--max-depth", "classifier.max_depth", "0"),
    "min_leaf": ("defend", "--min-leaf", "classifier.min_leaf", "-1"),
}


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_count_below_1_exits_2(tmp_path, website_ds, capsys, case, where):
    command, flag, key, value = BAD_COUNTS[case]
    out = tmp_path / "out"
    if command == "simulate":
        (tmp_path / "pw.txt").write_text("monkey\ndragon\n")
        inputs = ("--kind", "keystrokes", "--passwords", tmp_path / "pw.txt", "--out", out)
    elif command == "eval":
        assert run_cli("train", "--dataset", website_ds, "--model", tmp_path / "m.json",
                       "--fractions", "0.5,0.25,0.25") == 0
        inputs = ("--dataset", website_ds, "--model", tmp_path / "m.json", "--out", out)
    elif command == "collect":
        inputs = ("--out", out)
    elif command == "train":
        inputs = ("--dataset", website_ds, "--model", out / "m.json")
    else:
        inputs = ("--dataset", website_ds, "--out", out)
    if where == "config":
        (tmp_path / "c.conf").write_text(f"{key} = {value}\n")
        setting = ("--config", tmp_path / "c.conf")
    else:
        setting = (f"{flag}={value}",)
    capsys.readouterr()
    try:
        rc = run_cli(command, *inputs, *setting)
    except SystemExit as exc:  # argparse rejects a bad flag value itself
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    if where == "config":
        assert f"bad value for {key!r}: expected an integer >= 1, got {int(value.split(',')[0])}" in err
    else:
        assert f"argument {flag}: invalid" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_bad_feature_subsample_exits_2(tmp_path, website_ds, capsys, where):
    if where == "config":
        (tmp_path / "c.conf").write_text("classifier.feature_subsample = x\n")
        setting = ("--config", tmp_path / "c.conf")
    else:
        setting = ("--feature-subsample", "x")
    capsys.readouterr()
    try:
        rc = run_cli("train", "--dataset", website_ds, "--model", tmp_path / "m.json",
                     "--classifier", "forest", *setting)
    except SystemExit as exc:  # argparse rejects a bad flag value itself
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    if where == "config":
        assert "line 1: bad value for 'classifier.feature_subsample'" in err
    else:
        assert "argument --feature-subsample: invalid feature_subsample value: 'x'" in err
    assert not (tmp_path / "m.json").exists()


def test_train_forest_kind(tmp_path, website_ds):
    model = tmp_path / "forest.json"
    rc = run_cli("train", "--dataset", website_ds, "--model", model,
                 "--classifier", "forest", "--trees", "10",
                 "--fractions", "0.5,0.25,0.25")
    assert rc == 0
    assert json.loads(model.read_text())["kind"] == "forest"


def test_collect_sim_source(tmp_path):
    out = tmp_path / "collected"
    rc = run_cli("collect", "--source", "sim", "--workload", "idle",
                 "--samples", "30", "--measurements", "2", "--label", "idle run",
                 "--out", out)
    assert rc == 0
    label_dir = out / "idle%20run"
    files = sorted(os.listdir(label_dir))
    assert files == ["0000.ftrace", "0001.ftrace"]
    # appending keeps numbering monotonic
    rc = run_cli("collect", "--source", "sim", "--workload", "idle",
                 "--samples", "30", "--measurements", "1", "--label", "idle run",
                 "--out", out)
    assert rc == 0
    assert sorted(os.listdir(label_dir))[-1] == "0002.ftrace"


def test_collect_numbers_after_the_highest_existing_trace(tmp_path):
    out = tmp_path / "collected"
    label_dir = out / "gap"
    label_dir.mkdir(parents=True)
    kept = FrequencyTrace(samples=[1_400_000], interval_ms=10, label="gap")
    for name in ("0000.ftrace", "0002.ftrace"):
        save_trace(kept, label_dir / name)
    before = (label_dir / "0002.ftrace").read_bytes()
    rc = run_cli("collect", "--source", "sim", "--workload", "idle",
                 "--samples", "30", "--measurements", "2", "--label", "gap",
                 "--out", out)
    assert rc == 0
    assert sorted(os.listdir(label_dir)) == [
        "0000.ftrace", "0002.ftrace", "0003.ftrace", "0004.ftrace"]
    assert (label_dir / "0002.ftrace").read_bytes() == before


def test_save_trace_without_overwrite_keeps_existing(tmp_path):
    path = tmp_path / "0000.ftrace"
    save_trace(FrequencyTrace(samples=[1], interval_ms=10), path)
    with pytest.raises(FileExistsError):
        save_trace(FrequencyTrace(samples=[2], interval_ms=10), path, overwrite=False)
    assert load_trace(path).samples.tolist() == [1]
    assert os.listdir(tmp_path) == ["0000.ftrace"]


def test_collect_masked_policy_exits_4(tmp_path):
    rc = run_cli("collect", "--source", "sim", "--workload", "idle",
                 "--samples", "10", "--measurements", "1", "--label", "x",
                 "--policy", "masked", "--out", tmp_path / "y")
    assert rc == 4


def test_collect_replay_is_bit_exact(tmp_path):
    src = FrequencyTrace(samples=[1_500_000 + 100_000 * i for i in range(12)],
                         interval_ms=10, device="ryzen5", label="orig")
    path = tmp_path / "orig.ftrace"
    save_trace(src, path)
    out = tmp_path / "replayed"
    rc = run_cli("collect", "--source", "replay", "--replay", path,
                 "--samples", "12", "--measurements", "1", "--label", "copy",
                 "--sleep-ms", "0", "--out", out)
    assert rc == 0
    got = load_trace(out / "copy" / "0000.ftrace")
    assert got.samples.tolist() == src.samples.tolist()


def test_collect_replay_exhausted_exits_3(tmp_path):
    src = FrequencyTrace(samples=[1_500_000] * 5, interval_ms=10,
                         device="ryzen5", label="orig")
    path = tmp_path / "short.ftrace"
    save_trace(src, path)
    rc = run_cli("collect", "--source", "replay", "--replay", path,
                 "--samples", "50", "--measurements", "1", "--label", "x",
                 "--out", tmp_path / "y")
    assert rc == 3


def test_collect_all_hooks_fail_exits_5(tmp_path):
    rc = run_cli("collect", "--source", "sim", "--workload", "idle",
                 "--samples", "10", "--measurements", "2", "--label", "x",
                 "--pre-hook", "exit 9", "--out", tmp_path / "y")
    assert rc == 5


def test_collect_sysfs_fixture(tmp_path, monkeypatch):
    policy = tmp_path / "cpufreq" / "policy0"
    policy.mkdir(parents=True)
    (policy / "scaling_cur_freq").write_text("2500000\n")
    monkeypatch.setenv("FREQSCOPE_SYSFS_ROOT", str(tmp_path))
    out = tmp_path / "out"
    rc = run_cli("collect", "--source", "sysfs", "--samples", "3",
                 "--measurements", "1", "--interval-ms", "1", "--label", "live",
                 "--sleep-ms", "0", "--out", out)
    assert rc == 0
    got = load_trace(out / "live" / "0000.ftrace")
    assert got.samples.tolist() == [2_500_000] * 3


@pytest.mark.parametrize("reading", ["-5", "9223372036854775808", "99999999999999999999999"])
def test_collect_sysfs_reading_out_of_range_exits_3(tmp_path, monkeypatch, capsys, reading):
    policy = tmp_path / "cpufreq" / "policy0"
    policy.mkdir(parents=True)
    (policy / "scaling_cur_freq").write_text(reading + "\n")
    monkeypatch.setenv("FREQSCOPE_SYSFS_ROOT", str(tmp_path))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("collect", "--source", "sysfs", "--samples", "3",
                 "--measurements", "1", "--interval-ms", "1", "--label", "live",
                 "--sleep-ms", "0", "--out", out)
    err = capsys.readouterr().err
    assert rc == 3
    assert err == (f"freqscope: frequency outside [0, 2**63) in"
                   f" {policy / 'scaling_cur_freq'}: {reading}\n")
    assert "Traceback" not in err
    assert not out.exists()


def test_keystrokes_single_trace(tmp_path, capsys):
    idle, hi = 806_000, 1_500_000
    t = FrequencyTrace(samples=[idle] * 20 + [hi] * 10 + [idle] * 20,
                       interval_ms=20, device="cortex_a73", label="typed")
    path = tmp_path / "typed.ftrace"
    save_trace(t, path)
    out = tmp_path / "detected"
    rc = run_cli("keystrokes", "--trace", path, "--out", out)
    assert rc == 0
    assert "presses = 1" in (out / "keystrokes.kv").read_text()
    assert "presses" in capsys.readouterr().out
    # a dataset of that one trace counts the same press
    (tmp_path / "ds" / "typed").mkdir(parents=True)
    save_trace(t, tmp_path / "ds" / "typed" / "0000.ftrace")
    assert run_cli("keystrokes", "--dataset", tmp_path / "ds") == 0
    assert "typed: traces=1 mean_presses=1.00" in capsys.readouterr().out


def test_keystrokes_needs_trace_or_dataset():
    assert run_cli("keystrokes") == 2


def test_keystrokes_guess_curve(tmp_path, capsys):
    pwfile = tmp_path / "pw.txt"
    pwfile.write_text("ffffff\nqpqpqp\n")
    ds = tmp_path / "keys"
    assert run_cli("simulate", "--kind", "keystrokes", "--passwords", pwfile,
                   "--per-label", "10", "--out", ds) == 0
    out = tmp_path / "curve"
    rc = run_cli("keystrokes", "--dataset", ds, "--guess-curve", "2", "--out", out)
    assert rc == 0
    curve = (out / "guesses.csv").read_text().splitlines()
    assert curve[0] == "guess,accuracy"
    assert len(curve) == 3


def test_keystrokes_dataset_writes_its_summary(tmp_path, capsys):
    pwfile = tmp_path / "pw.txt"
    pwfile.write_text("ffffff\nqpqpqp\n")
    ds = tmp_path / "keys"
    assert run_cli("simulate", "--kind", "keystrokes", "--passwords", pwfile,
                   "--per-label", "3", "--out", ds) == 0
    out = tmp_path / "summary"
    capsys.readouterr()
    assert run_cli("keystrokes", "--dataset", ds, "--out", out) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(os.listdir(out)) == [RESOLVED_CONFIG_NAME, "summary.txt"]
    summary = (out / "summary.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in summary] == ["ffffff", "qpqpqp"]
    assert printed[:2] == summary


TYPED = [806_000] * 20 + [1_500_000] * 10 + [806_000] * 20 + [1_500_000] * 10 + [806_000] * 20
KEYSTROKE_FAULTS = {  # case: ({password: traces}, interval, guess curve, exit code, message)
    "trace_interval": (None, 10, None, 3, "trace interval 10 ms != expected 20 ms"),
    "dataset_interval": ({"monkey": 10, "velvet": 10}, 10, 2, 3,
                         "trace interval 10 ms != expected 20 ms"),
    "few_measurements": ({"abc1": 4, "velvet": 10}, 20, 2, 3,
                         "password 'abc1' has 4 measurements; need >= 10"),
    "one_password": ({"monkey": 10}, 20, 1, 3, "need at least 2 passwords"),
    # more guesses than passwords is a usage error, not a data fault
    "guesses_above_passwords": ({"monkey": 10, "velvet": 10}, 20, 3, 2,
                                "max_guesses must be in [1, 2], got 3"),
}


@pytest.mark.parametrize("case", sorted(KEYSTROKE_FAULTS))
def test_keystrokes_data_fault_names_its_input(tmp_path, capsys, case):
    counts, interval, guesses, code, message = KEYSTROKE_FAULTS[case]
    if counts is None:
        source = tmp_path / "typed.ftrace"
        save_trace(FrequencyTrace(samples=TYPED, interval_ms=interval), source)
        argv = ("--trace", source)
    else:
        source = tmp_path / "ds"
        save_dataset(LabeledDataset(classes=sorted(counts), measurements={
            pw: [FrequencyTrace(samples=TYPED, interval_ms=interval, label=pw)] * n
            for pw, n in counts.items()}), source)
        argv = ("--dataset", source, "--guess-curve", guesses)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("keystrokes", *argv, "--out", out)
    err = capsys.readouterr().err
    assert rc == code
    if code == 3:
        assert err == f"freqscope: {source}: {message}\n"
    else:
        assert err == f"freqscope: {message}\n"
    assert not out.exists()


def test_defend_sweep(tmp_path, website_ds, capsys):
    out = tmp_path / "sweep"
    rc = run_cli("defend", "--dataset", website_ds,
                 "--defense", "resolution:1,4",
                 "--defense", "mask:1700000",
                 "--fractions", "0.5,0.25,0.25", "--out", out)
    assert rc == 0
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[0] == "defense,param,top1_clean,top1_defended"
    assert len(csv) == 4
    # `report --sweep-csv` renders the sweep as a plot file
    assert sorted(os.listdir(out)) == [RESOLVED_CONFIG_NAME, "sweep.csv"]
    conf = (out / RESOLVED_CONFIG_NAME).read_text()
    assert "defend.defenses = resolution:1,4 mask:1700000\n" in conf
    assert "resolution_reduce" in capsys.readouterr().out


def test_defend_restrict_is_a_usage_error(tmp_path, website_ds):
    rc = run_cli("defend", "--dataset", website_ds, "--defense", "restrict",
                 "--out", tmp_path / "x")
    assert rc == 2


@pytest.mark.parametrize("where, spec, bad", [
    ("config", "noise:x", "'x'"),
    ("flag", "resolution:a", "'a'"),
])
def test_bad_defense_number_names_the_spec(tmp_path, website_ds, capsys, where, spec, bad):
    if where == "config":
        conf = tmp_path / "d.conf"
        conf.write_text(f"defend.defenses = resolution:1,5 {spec}\n")
        argv = ("--config", conf)
    else:
        argv = ("--defense", spec)
    rc = run_cli("defend", "--dataset", website_ds, *argv, "--out", tmp_path / "x")
    err = capsys.readouterr().err
    assert rc == 2
    assert f"defend.defenses: {bad} in defense spec {spec!r}" in err
    assert "Traceback" not in err


def test_report_from_eval_kv(tmp_path, website_ds, capsys):
    model = tmp_path / "m.json"
    assert run_cli("train", "--dataset", website_ds, "--model", model,
                   "--fractions", "0.5,0.25,0.25") == 0
    evals = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert run_cli("eval", "--dataset", website_ds, "--model", model,
                       "--out", out) == 0
        evals.append(out / "report.kv")
    capsys.readouterr()
    rc = run_cli("report", "--eval-kv", evals[0], "--eval-kv", evals[1],
                 "--out", tmp_path / "rpt")
    assert rc == 0
    text = capsys.readouterr().out
    assert "run_a" in text and "run_b" in text
    assert (tmp_path / "rpt" / "eval.dat").exists()


def test_report_renders_missing_keys_as_blanks(tmp_path, capsys):
    kv = tmp_path / "only_top1.kv"
    kv.write_text("top1 = 0.5\nnote = anything\n")
    assert run_cli("report", "--eval-kv", kv, "--out", tmp_path / "rpt") == 0
    assert "only_top1  0.5   -     -" in capsys.readouterr().out
    assert (tmp_path / "rpt" / "eval.dat").read_text() == "# name top1\nonly_top1 0.5\n"


SWEEP_HEADER = "defense,param,top1_clean,top1_defended\n"

MALFORMED_REPORTS = {  # case: (flag, file text, line of the fault)
    "top1_not_a_number": ("--eval-kv", "total = 4\ntop1 = x\n", 2),
    "top1_nan": ("--eval-kv", "top1 = nan\n", 1),
    "top5_above_one": ("--eval-kv", "top1 = 0.5\ntop5 = 1.5\n", 2),
    "top1_negative": ("--eval-kv", "top1 = -0.1\n", 1),
    "total_negative": ("--eval-kv", "\ntotal = -3\n", 2),
    "total_not_an_int": ("--eval-kv", "total = 2.5\n", 1),
    "sweep_clean_not_a_number": ("--sweep-csv", SWEEP_HEADER + "noise_inject,20,abc,1.5\n", 2),
    "sweep_defended_above_one": ("--sweep-csv", SWEEP_HEADER + "resolution_reduce,1,0.9,0.9\n"
                                 "noise_inject,20,0.5,1.5\n", 3),
    "sweep_defended_empty": ("--sweep-csv", SWEEP_HEADER + "noise_inject,20,0.5,\n", 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_report_malformed_value_exits_3(tmp_path, case, capsys):
    flag, text, line = MALFORMED_REPORTS[case]
    path = tmp_path / ("sweep.csv" if flag == "--sweep-csv" else "run.kv")
    path.write_text(text)
    capsys.readouterr()
    assert run_cli("report", flag, path, "--out", tmp_path / "rpt") == 3
    err = capsys.readouterr().err
    assert f"line {line}: {path}: " in err and "Traceback" not in err
    assert not (tmp_path / "rpt").exists()


def test_report_malformed_sweep_row_exits_3(tmp_path):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("defense,param,top1_clean,top1_defended\n"
                     "resolution,1,0.9,0.9\n"
                     "noise,20,0.9\n")
    result = subprocess.run(
        [sys.executable, "-m", "freqscope.cli", "report", "--sweep-csv", str(sweep)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert "line 3" in result.stderr and "malformed sweep row" in result.stderr
