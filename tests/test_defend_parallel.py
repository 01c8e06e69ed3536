"""The defense sweep in worker processes: the same rows as the serial loop
for any worker count, failures that keep the exit-code contract, and no
worker left behind."""

import multiprocessing
import os

import numpy as np
import pytest

from defend_oracle import serial_sweep
from freqscope import cli, defend
from freqscope.classify import NORM_MINMAX, train_forest_model, train_knn_model
from freqscope.dataset import LabeledDataset
from freqscope.defend import constant_mask, defense_sweep, noise_inject, resolution_reduce
from freqscope.forest import ForestParams
from freqscope.profiles import get_profile
from freqscope.trace import FrequencyTrace

RYZEN = get_profile("ryzen5")

DEFENSES = {  # case: the defenses of one sweep
    "one": [resolution_reduce(3)],
    "resolution": [resolution_reduce(1), resolution_reduce(4), resolution_reduce(9)],
    "mixed": [noise_inject(20.0, 0.8, seed=3), resolution_reduce(5), constant_mask(2_200_000),
              noise_inject(5.0)],
    # factor 1 and a burst count that rounds to 0 leave every sample as it is
    "identity": [resolution_reduce(1), noise_inject(0.5), resolution_reduce(4),
                 resolution_reduce(4)],
}

TRAINERS = {
    "knn": lambda view: train_knn_model(view, k=3),
    "forest": lambda view: train_forest_model(
        view, params=ForestParams(n_trees=4, max_depth=6, seed=2), normalization=NORM_MINMAX),
}


def noisy_dataset():
    """Overlapping classes, so accuracies fall between 0 and 1."""
    rng = np.random.default_rng(4)
    measurements = {}
    for c in range(4):
        rows = np.clip(8 + c + rng.integers(-6, 7, size=(12, 60)), 0, len(RYZEN.pstates) - 1)
        measurements[f"c{c}"] = [
            FrequencyTrace(samples=np.asarray(RYZEN.pstates)[r], interval_ms=10,
                           device="ryzen5", label=f"c{c}")
            for r in rows
        ]
    return LabeledDataset(classes=sorted(measurements), measurements=measurements)


SPLIT = (5, (0.5, 0.25, 0.25))  # noisy_dataset's split seed and fractions


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trainer", sorted(TRAINERS))
@pytest.mark.parametrize("case", sorted(DEFENSES))
def test_sweep_matches_serial_oracle(monkeypatch, case, trainer, workers):
    ds = noisy_dataset()
    use_cpus(monkeypatch, workers)
    rows = defense_sweep(DEFENSES[case], ds, TRAINERS[trainer], *SPLIT)
    assert rows == serial_sweep(DEFENSES[case], ds, TRAINERS[trainer], *SPLIT)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_jobs_run_in_workers_only_with_two_cpus(monkeypatch, tmp_path, workers):
    pids = tmp_path / "pids"

    def trainer(view):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return train_knn_model(view, k=3)

    use_cpus(monkeypatch, workers)
    defense_sweep([resolution_reduce(2), resolution_reduce(3)], noisy_dataset(), trainer, *SPLIT)
    seen = pids.read_text().split()
    assert len(seen) == 3  # the baseline and two defenses
    assert (str(os.getpid()) in seen) == (workers == 1)


@pytest.mark.parametrize("case, jobs", [("one", 2), ("resolution", 3), ("mixed", 5),
                                         ("identity", 2)])
def test_one_job_per_distinct_defended_dataset(monkeypatch, case, jobs):
    # the clean baseline, then each distinct defense that changes a sample
    calls, job = [], defend._sweep_job

    def counted(i, sweep=None):
        calls.append(i)
        return job(i, sweep)

    monkeypatch.setattr(defend, "_sweep_job", counted)
    use_cpus(monkeypatch, 1)
    defense_sweep(DEFENSES[case], noisy_dataset(), TRAINERS["knn"], *SPLIT)
    assert calls == list(range(-1, jobs - 1))


def simulate_small(out):
    assert cli.main(["simulate", "--classes", "4", "--measurements", "10", "--samples", "80",
                     "--seed", "3", "--out", str(out)]) == 0


DEFEND = ("--classifier", "forest", "--trees", "3", "--defense", "resolution:1,5",
          "--defense", "noise:20", "--defense", "mask:2200000")


def test_defend_outputs_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    simulate_small(tmp_path / "ds")
    outputs = {}
    for workers in (1, 2):
        use_cpus(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        assert cli.main(["defend", "--dataset", str(tmp_path / "ds"), *DEFEND,
                         "--out", str(out)]) == 0
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outputs[1]) == ["freqscope.resolved.conf", "sweep.csv"]
    assert outputs[1] == outputs[2]


def test_failed_job_keeps_its_exit_code_and_leaves_no_worker(monkeypatch, tmp_path, capsys):
    simulate_small(tmp_path / "ds")
    use_cpus(monkeypatch, 2)
    rc = cli.main(["defend", "--dataset", str(tmp_path / "ds"), "--defense", "resolution:2",
                   "--defense", "mask:123", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "freqscope: mask frequency 123 is not a pstate of ryzen5\n"
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


def test_lost_worker_exits_3_without_traceback(monkeypatch, tmp_path, capsys):
    simulate_small(tmp_path / "ds")
    parent = os.getpid()

    def dying_trainer(view):
        if os.getpid() == parent:
            raise AssertionError("the sweep trained in the parent process")
        os._exit(1)

    monkeypatch.setattr(cli, "_make_trainer", lambda s, metadata: dying_trainer)
    use_cpus(monkeypatch, 2)
    rc = cli.main(["defend", "--dataset", str(tmp_path / "ds"), "--defense", "resolution:2",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("freqscope: defense sweep lost a worker process")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()
