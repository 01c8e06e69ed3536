"""The defense sweep in worker processes: the same rows as the serial loop
for any worker count, failures that keep the exit-code contract, no worker
left behind, and jobs that hold about one copy of the dataset."""

import multiprocessing
import os
from functools import partial

import numpy as np
import pytest

from defend_oracle import serial_sweep
from freqscope import cli, defend
from freqscope.classify import NORM_MINMAX, NORM_NONE, train_forest_model, train_knn_model
from freqscope.dataset import DEFAULT_FRACTIONS, LabeledDataset
from freqscope.defend import constant_mask, defense_sweep, noise_inject, resolution_reduce
from freqscope.forest import ForestParams
from freqscope.profiles import get_profile
from helpers import traced_peak

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

FOREST = ForestParams(n_trees=4, max_depth=6, seed=2)
TRAINERS = {  # each classifier under each normalization
    "knn": partial(train_knn_model, k=3),
    "knn_minmax": partial(train_knn_model, k=3, normalization=NORM_MINMAX),
    "forest": partial(train_forest_model, params=FOREST, normalization=NORM_MINMAX),
    "forest_none": partial(train_forest_model, params=FOREST, normalization=NORM_NONE),
}


def noisy_dataset(counts=(12, 9, 14, 11), width=60):
    """Overlapping classes, so accuracies fall between 0 and 1. The labels
    hold unequal trace counts, so a row's place in a part and in a job's
    matrix differ from its index in its label, which salts its noise."""
    rng = np.random.default_rng(4)
    samples = {}
    for c, n in enumerate(counts):
        rows = np.clip(8 + c % 4 + rng.integers(-6, 7, size=(n, width)), 0,
                       len(RYZEN.pstates) - 1)
        samples[f"c{c:02d}"] = np.asarray(RYZEN.pstates, dtype=np.int64)[rows]
    return LabeledDataset(samples, {label: ["ryzen5"] * len(rows)
                                    for label, rows in samples.items()}, 10)


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

    def trainer(view, **select):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return train_knn_model(view, k=3, **select)

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


@pytest.mark.parametrize("job", [-1, 0, 1, 2], ids=["clean", "resolution", "noise", "mask"])
def test_a_job_holds_about_one_copy_of_the_dataset(job):
    # the shape of the bench's defend dataset, 20 labels x 20 traces x 1,000
    # samples: a job writes its train rows straight into the float64 matrix it
    # fits, and defends one label's rows at a time, so each job peaks at
    # 1.04-1.05x the samples' bytes here; a job that defended a whole copy and
    # split it read 2.0-2.1x, and a noise law whose temporaries held 8 cells
    # per burst read 1.4x
    ds = noisy_dataset(counts=(20,) * 20, width=1000)
    defenses = [resolution_reduce(5), noise_inject(20.0), constant_mask(2_200_000)]
    trainer = partial(train_forest_model, params=ForestParams(n_trees=2, seed=0))
    sweep = (defenses, ds, trainer, 0, DEFAULT_FRACTIONS)
    defend._sweep_job(job, sweep)  # what the first call imports and caches does not count
    _, peak = traced_peak(lambda: defend._sweep_job(job, sweep))
    assert peak < 1.2 * sum(rows.nbytes for rows in ds.samples.values())


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

    def dying_trainer(view, **select):
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
