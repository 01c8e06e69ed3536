"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Every workload in both modes emits exactly the metrics BENCHMARK.json
declares, with their units; a corrupted output is counted as a failure;
and without freqscope sources the benchmark refuses to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import pipelines  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(pipelines.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(pipelines.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


@pytest.fixture
def work_dir():
    path = run.WORK / "test-bench"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_corrupted_output_counts_as_failure(work_dir, monkeypatch, capsys):
    """Flip the top-1 accuracy in the second pass's eval report: the
    structural check and the determinism check both charge `eval`."""
    calls = []
    real_run_cli = run.run_cli

    def corrupting_run_cli(argv, cwd, log):
        res = real_run_cli(argv, cwd, log)
        if argv[0] == "eval":
            calls.append(cwd)
            if len(calls) == 2:
                report = Path(cwd) / "reports/fp/report.kv"
                report.write_text(report.read_text().replace("top1 = ", "top1 = 7"))
        return res

    monkeypatch.setattr(run, "run_cli", corrupting_run_cli)
    monkeypatch.setattr(run, "WORK", work_dir)
    rc = run.main(["--workload", "fingerprint", "--seed", "1", "--seconds", "0", "--tiny"])
    assert rc == 1
    assert len(calls) == 2
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "FAILED pass1.cmd2: top1 outside [0, 1]" in out or "FAILED pass1.cmd2" in out


def test_reference_mismatch_and_rerun_drift_are_charged(work_dir):
    wl = pipelines.WORKLOADS["fingerprint"]
    plan = wl.plan(2, wl.tiny)
    pass_dir = work_dir / "pass0"
    pass_dir.mkdir()
    for i, cmd in enumerate(plan.commands):
        assert run.run_cli(cmd.argv, pass_dir, pass_dir / f"cmd{i}").rc == 0

    clean = run.Run(refs=None)
    clean.outputs("pass0.cmd", pass_dir, plan.outputs, wl.check(pass_dir, wl.tiny))
    assert clean.failed == {}

    refs = dict(clean.first_digests, **{"models/knn.json": "0" * 64})
    wrong_ref = run.Run(refs=refs)
    wrong_ref.outputs("pass0.cmd", pass_dir, plan.outputs, wl.check(pass_dir, wl.tiny))
    assert list(wrong_ref.failed) == ["pass0.cmd1"]

    trace = sorted((pass_dir / "data/fp").rglob("*.ftrace"))[0]
    trace.write_text(trace.read_text() + "\n")
    clean.outputs("pass1.cmd", pass_dir, plan.outputs, wl.check(pass_dir, wl.tiny))
    assert list(clean.failed) == ["pass1.cmd0"]


def test_refuses_to_run_without_sources(work_dir):
    (work_dir / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, work_dir / "bench" / f.name)
    shutil.copy(BENCH / "refs.json", work_dir / "bench" / "refs.json")
    shutil.copy(ROOT / "BENCHMARK.json", work_dir / "BENCHMARK.json")
    proc, result = bench("--workload", "fingerprint", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=work_dir)
    assert proc.returncode != 0
    assert result is None
