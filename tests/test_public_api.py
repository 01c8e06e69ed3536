"""The package's public names: every name in `freqscope.__all__` resolves,
once."""

import freqscope


def test_every_exported_name_resolves_once():
    assert len(freqscope.__all__) == len(set(freqscope.__all__))
    missing = [name for name in freqscope.__all__ if not hasattr(freqscope, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in ("FeatureVector", "evaluate_defense", "timings", "access_restrict",
                 "synth_workload", "knn_predict", "forest_predict", "step_governor",
                 "merge_datasets"):
        assert name not in freqscope.__all__
        assert not hasattr(freqscope, name)
