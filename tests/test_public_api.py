"""The package's public names: every name in `freqscope.__all__` resolves,
once, to its module's object, and `import freqscope` loads no module."""

import importlib
import subprocess
import sys

import pytest

import freqscope


def test_every_exported_name_resolves_once():
    assert len(freqscope.__all__) == len(set(freqscope.__all__))
    missing = [name for name in freqscope.__all__ if not hasattr(freqscope, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in ("FeatureVector", "evaluate_defense", "timings", "access_restrict",
                 "synth_workload", "knn_predict", "forest_predict", "step_governor",
                 "merge_datasets", "repetitiveness"):
        assert name not in freqscope.__all__
        assert not hasattr(freqscope, name)


def test_import_loads_no_submodule():
    code = ("import sys, freqscope; "
            "print(sorted(m for m in sys.modules if m.startswith('freqscope.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_every_name_is_its_modules_object():
    for module, names in freqscope._NAMES.items():
        for name in names:
            assert getattr(freqscope, name) is getattr(
                importlib.import_module(f"freqscope.{module}"), name)
    assert sorted(freqscope.__all__) == sorted(n for ns in freqscope._NAMES.values() for n in ns)


def test_dir_and_star_import():
    assert set(freqscope.__all__) <= set(dir(freqscope))
    namespace = {}
    exec("from freqscope import *", namespace)
    assert {name: namespace[name] for name in freqscope.__all__} == {
        name: getattr(freqscope, name) for name in freqscope.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        freqscope.no_such_name
