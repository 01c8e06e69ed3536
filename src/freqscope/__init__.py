"""freqscope: CPU-frequency side-channel toolkit.

Simulates Linux CPUFreq scaling governors over synthetic workloads, samples
frequency sources (simulated, replayed, or real sysfs) into labeled trace
datasets, fingerprints traces with KNN / random-forest classifiers, recovers
keystroke timings and passwords, and measures countermeasure efficacy.

`import freqscope` loads none of its modules: each public name below is
looked up in its module on first use, which imports that module then.
"""

from importlib import import_module

# numpy loads before `python -m freqscope.cli` compiles cli.py: with bytecode
# caching off, the other order raised the peak RSS of defend's forked workers
# by 0.45 MB (2-vCPU Xeon VM), through heap layout alone
import numpy  # noqa: F401

__version__ = "0.1.0"

_NAMES = {
    "classify": ("NORM_MINMAX", "NORM_NONE", "EvalReport", "ModelFormatError", "TrainedModel",
                 "evaluate", "load_model", "save_model", "train_forest_model",
                 "train_knn_model"),
    "dataset": ("DatasetFormatError", "LabeledDataset", "load_dataset", "save_dataset",
                "split_dataset", "stable_seed"),
    "defend": ("Defense", "apply_defense", "defense_sweep"),
    "forest": ("ForestModel", "ForestParams", "forest_rank", "forest_train"),
    "governors": ("InteractiveParams", "SimConfig", "TurboParams", "WorkloadTrace", "simulate"),
    "keystroke": ("KeystrokeParams", "KeystrokeReport", "PasswordModel", "detect_keystrokes",
                  "guess_curve", "train_password_model"),
    "knn": ("KnnModel", "fit_knn", "knn_rank", "rank_many"),
    "profiles": ("DeviceProfile", "builtin_profiles", "get_profile"),
    "sampler": ("CollectPlan", "collect"),
    "sources": ("AccessDeniedError", "FreqSource", "ReplaySource", "SimSource", "SysfsSource"),
    "trace": ("FrequencyTrace", "TraceFormatError", "load_trace", "save_trace"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # not cached here, so a name always is its module's current binding
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
