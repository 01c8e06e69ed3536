"""Config file parsing, the settings table and the resolved-settings writer."""

import os

import pytest

from freqscope.config import (
    RESOLVED_CONFIG_NAME,
    SETTINGS,
    ConfigError,
    load_config,
    parse_config,
    resolved_lines,
    write_resolved,
)


def test_parse_basic_types():
    text = """
# a comment
run.seed = 42
sim.profile = ryzen5
sim.turbo = false
simulate.jitter = 0.03
split.train = 0.7
eval.topk = 1, 5
collect.presses = 1000,1400,3000
"""
    values = parse_config(text)
    assert values["run.seed"] == 42
    assert values["sim.profile"] == "ryzen5"
    assert values["sim.turbo"] is False
    assert values["simulate.jitter"] == pytest.approx(0.03)
    assert values["eval.topk"] == [1, 5]
    assert values["collect.presses"] == [1000, 1400, 3000]


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match="line 2") as err:
        parse_config("run.seed = 1\nrun.sede = 2\n")
    assert err.value.line_no == 2
    assert "unknown key" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("run.seed = 1\nrun.seed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("run.seed 1\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="line 3.*run.seed") as err:
        parse_config("\n\nrun.seed = seven\n")
    assert err.value.line_no == 3


def test_bool_values_are_strict():
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("sim.turbo = yes\n")
    assert parse_config("sim.turbo = true\n")["sim.turbo"] is True


def test_value_may_contain_equals():
    values = parse_config("collect.pre_hook = VAR=1 true\n")
    assert values["collect.pre_hook"] == "VAR=1 true"


def test_round_trip_through_resolved_file(tmp_path):
    values = {
        "run.seed": 7,
        "sim.turbo": True,
        "eval.topk": [1, 5],
        "split.train": 0.7,
        "sim.profile": "cortex_a73",
        "defend.defenses": ["resolution:1,5,25", "noise:20:0.8:7", "mask:2200000"],
    }
    path = tmp_path / "out.conf"
    write_resolved(path, values)
    again = load_config(path)
    assert again == values
    # keys come out sorted, so repeated writes are byte-identical
    write_resolved(tmp_path / "b.conf", dict(reversed(list(values.items()))))
    assert path.read_text() == (tmp_path / "b.conf").read_text()


def test_resolved_skips_none_and_rejects_unknown():
    assert resolved_lines({"run.seed": 1, "sim.set_speed_khz": None}) == ["run.seed = 1"]
    with pytest.raises(ConfigError, match="unknown key"):
        resolved_lines({"made.up": 1})


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.conf")


@pytest.mark.parametrize("data,line", [(b"\xff", 1), (b"run.seed = 1\n\n# caf\xe9\n", 3),
                                       (b"run.seed = 1\n\xe2\x82", 2)])
def test_load_config_not_utf8_names_path_and_line(tmp_path, data, line):
    path = tmp_path / "bad.conf"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"line {line}: config {str(path)!r} is not UTF-8: ")
    assert info.value.line_no == line


def test_rejected_write_leaves_existing_resolved_file(tmp_path):
    path = tmp_path / RESOLVED_CONFIG_NAME
    write_resolved(path, {"run.seed": 1})
    before = path.read_bytes()
    with pytest.raises(ConfigError, match="unknown key"):
        write_resolved(path, {"run.seed": 2, "bogus.key": 1})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [RESOLVED_CONFIG_NAME]


@pytest.mark.parametrize("setting", [s for s in SETTINGS if s.default is not None],
                         ids=lambda s: s.key)
def test_table_default_round_trips(setting):
    text = resolved_lines({setting.key: setting.default})
    assert resolved_lines(parse_config(text[0])) == text


def test_single_topk_means_top1_and_topn():
    assert parse_config("eval.topk = 5\n")["eval.topk"] == [1, 5]
    assert parse_config("eval.topk = 1\n")["eval.topk"] == [1]
    assert parse_config("eval.topk = 5,1,3,5\n")["eval.topk"] == [1, 3, 5]


@pytest.mark.parametrize("line, bad", [
    ("simulate.classes = 0", 0),
    ("simulate.measurements = -1", -1),
    ("simulate.per_label = 0", 0),
    ("keystroke.guess_curve = 0", 0),
    ("eval.topk = 0", 0),
    ("eval.topk = 5,-2", -2),
])
def test_counts_and_ranks_below_1_rejected(line, bad):
    key = line.partition(" ")[0]
    with pytest.raises(ConfigError,
                       match=f"line 1: bad value for '{key}': expected an integer >= 1, got {bad}$"):
        parse_config(line + "\n")


def test_feature_subsample_is_sqrt_or_a_fraction():
    key = "classifier.feature_subsample"
    assert parse_config(f"{key} = sqrt\n")[key] == "sqrt"
    assert parse_config(f"{key} = 0.50\n")[key] == 0.5
    assert resolved_lines(parse_config(f"{key} = 0.50\n")) == [f"{key} = 0.5"]
    for value in ("x", "log2", "0", "1.5", "nan", "-inf"):
        with pytest.raises(ConfigError, match=f"^line 2: bad value for '{key}'"):
            parse_config(f"# forest\n{key} = {value}\n")


def test_choice_keys_are_checked_like_their_flags():
    with pytest.raises(ConfigError, match="line 1.*expected one of open, masked"):
        parse_config("collect.policy = closed\n")
