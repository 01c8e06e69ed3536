"""End-to-end command-line runs: exit codes and artifact files."""

import json
import os
import subprocess
import sys

import pytest

from freqscope.cli import LOCK_NAME, main
from freqscope.config import RESOLVED_CONFIG_NAME
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


REMOVED_KEYS = {  # a setting that was deleted: the command that took it
    "sim.conservative_step_khz = 100000": ("simulate", "--out"),
    "keystroke.decay_ms = 200": ("keystrokes", "--dataset"),
    "defend.resolution_factors = 1,5": ("defend", "--dataset"),
    "defend.noise_rates = 20": ("defend", "--dataset"),
    "defend.noise_height = 0.5": ("defend", "--dataset"),
    "defend.noise_seed = 0": ("defend", "--dataset"),
    "defend.mask_freq_khz = 2200000": ("defend", "--dataset"),
}


@pytest.mark.parametrize("line", REMOVED_KEYS, ids=lambda line: line.partition(" ")[0])
def test_removed_key_exits_2(tmp_path, capsys, line):
    conf = tmp_path / "old.conf"
    conf.write_text(line + "\n")
    command, path_flag = REMOVED_KEYS[line]
    assert run_cli(command, "--config", conf, path_flag, tmp_path / "x") == 2
    assert f"unknown key {line.partition(' ')[0]!r}" in capsys.readouterr().err


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
                   "--split-seed", "3", "--min-pulse", "7"),
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
    assert (out / "report.txt").exists()
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


MALFORMED_MODELS = {  # case: (trained kind, edit of its JSON document)
    "no_classifier": ("knn", _drop("classifier")),
    "no_knn_k": ("knn", _drop("classifier", "k")),
    "ragged_train_x": ("knn", _ragged_train_x),
    "non_finite_train_x": ("knn", _non_finite_train_x),
    "feature_length_not_train_x_width":
        ("knn", lambda doc: _with("feature_length", doc["feature_length"] - 1)(doc)),
    "knn_k_not_an_int": ("knn", _k_set(True)),
    "no_forest_max_depth": ("forest", _drop("classifier", "params", "max_depth")),
    "zero_forest_trees": ("forest", _zero_trees),
    "forest_trees_not_objects": ("forest", _trees_not_objects),
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
    assert run_cli("train", "--dataset", root, "--model", tmp_path / "m.json") == 3
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
    assert (out / "sweep.dat").exists()
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
