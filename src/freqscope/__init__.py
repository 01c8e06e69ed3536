"""freqscope: CPU-frequency side-channel toolkit.

Simulates Linux CPUFreq scaling governors over synthetic workloads, samples
frequency sources (simulated, replayed, or real sysfs) into labeled trace
datasets, fingerprints traces with KNN / random-forest classifiers, recovers
keystroke timings and passwords, and measures countermeasure efficacy.
"""

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
from .dataset import (
    DatasetFormatError,
    LabeledDataset,
    load_dataset,
    save_dataset,
    split_dataset,
    stable_seed,
)
from .defend import Defense, apply_defense, defense_sweep
from .forest import ForestModel, ForestParams, forest_rank, forest_train
from .governors import (
    InteractiveParams,
    SimConfig,
    TurboParams,
    WorkloadTrace,
    simulate,
)
from .keystroke import (
    KeystrokeParams,
    KeystrokeReport,
    PasswordModel,
    detect_keystrokes,
    guess_curve,
    train_password_model,
)
from .knn import KnnModel, fit_knn, knn_rank, rank_many
from .profiles import DeviceProfile, builtin_profiles, get_profile
from .sampler import CollectPlan, collect, repetitiveness
from .sources import (
    AccessDeniedError,
    FreqSource,
    ReplaySource,
    SimSource,
    SysfsSource,
)
from .trace import FrequencyTrace, TraceFormatError, load_trace, save_trace

__version__ = "0.1.0"

__all__ = [
    "AccessDeniedError",
    "CollectPlan",
    "DatasetFormatError",
    "Defense",
    "DeviceProfile",
    "EvalReport",
    "ForestModel",
    "ForestParams",
    "FreqSource",
    "FrequencyTrace",
    "InteractiveParams",
    "KeystrokeParams",
    "KeystrokeReport",
    "KnnModel",
    "LabeledDataset",
    "ModelFormatError",
    "NORM_MINMAX",
    "NORM_NONE",
    "PasswordModel",
    "ReplaySource",
    "SimConfig",
    "SimSource",
    "SysfsSource",
    "TraceFormatError",
    "TrainedModel",
    "TurboParams",
    "WorkloadTrace",
    "apply_defense",
    "builtin_profiles",
    "collect",
    "defense_sweep",
    "detect_keystrokes",
    "evaluate",
    "fit_knn",
    "forest_rank",
    "forest_train",
    "get_profile",
    "guess_curve",
    "knn_rank",
    "load_dataset",
    "load_model",
    "load_trace",
    "rank_many",
    "repetitiveness",
    "save_dataset",
    "save_model",
    "save_trace",
    "simulate",
    "split_dataset",
    "stable_seed",
    "train_forest_model",
    "train_knn_model",
    "train_password_model",
]
