"""freqscope benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fingerprint --seed 0 --seconds 20 --trace 0

Run from the root of a freqscope checkout; the program under test is the
checkout's own `src/`. With `--trace 0` the CLI pipeline of the workload
runs as sequential subprocesses (a closed loop with one client), timed with
`os.wait4`, and the end-to-end metrics are printed. With `--trace 1` the
same commands run in-process with spans around freqscope's layer functions
and the per-layer metrics are printed instead. Every output is checked
(see pipelines.py); the exit code is 1 when any command or check failed.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pipelines import WORKLOADS, Command, Plan, digest
from tracing import Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS = Path(__file__).resolve().parent / "refs.json"
WORK = ROOT / ".bench_work"
REF_SEED = 0

SETUPS = 3            # set-ups per run; setup_s is their median
STARTUP_PROBES = 3    # `--help` runs per traced run; cli.startup_s is their median
COMMAND_TIMEOUT_S = 120.0
# calibrate() on the reference VM (2-vCPU Intel Xeon) at its usual speed
CALIBRATION_REF_S = 0.2
RUN_BUDGET_S = 150.0  # no new pass starts once it would likely end after this
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
NO_CPUFREQ_NOTE = ("no cpufreq policy under /sys/devices/system/cpu/cpufreq: SysfsSource"
                   " lateness is unmeasured and no workload uses the sysfs source")


@dataclass
class CmdResult:
    wall_s: float
    rss_mb: float
    rc: int


class Run:
    """Bookkeeping of one benchmark run: commands attempted, the commands
    that failed (by key) and why, and the digests seen per output."""

    def __init__(self, refs: dict | None):
        self.attempted = 0
        self.failed: dict[str, list[str]] = {}
        self.refs = refs
        self.first_digests: dict[str, str] = {}

    def command(self, key: str, rc: int) -> None:
        self.attempted += 1
        if rc != 0:
            self.fail(key, f"exit code {rc}")

    def fail(self, key: str, why: str) -> None:
        self.failed.setdefault(key, []).append(why)

    def outputs(self, prefix: str, base: Path, outputs: dict[str, int],
                problems: dict[str, list[str]]) -> None:
        """Structural problems, determinism against the first pass, and the
        stored reference digests, each charged to the producing command."""
        for path, index in outputs.items():
            key = f"{prefix}{index}"
            for why in problems.get(path, []):
                self.fail(key, why)
            got = digest(base / path)
            first = self.first_digests.setdefault(path, got)
            if got != first:
                self.fail(key, f"{path}: differs from the first pass (rerun not byte-identical)")
            if self.refs is not None and self.refs.get(path) != got:
                self.fail(key, f"{path}: sha256 {got[:12]} differs from the reference")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: tuple[str, ...], cwd: Path, log: Path) -> CmdResult:
    """One CLI subprocess, output to `<log>.out` and `<log>.err`; wall time
    and peak RSS come from its own rusage."""
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "freqscope.cli", *argv],
                                cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return CmdResult(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: how fast the CPU runs now.

    The reference VM's CPU speed swings by tens of percent within seconds
    and drifts over minutes. Each command's wall time is also reported
    scaled by CALIBRATION_REF_S / calibrate() taken just before it."""
    t0 = time.perf_counter()
    table, s = {}, 0
    for i in range(1_000_000):
        table[i % 1000] = s
        s += (i * 7) % 13
    return time.perf_counter() - t0


def cwd_of(cmd: Command, run_dir: Path, pass_dir: Path) -> Path:
    return run_dir / "inputs" if cmd.cwd == "inputs" else pass_dir


def write_inputs(plan: Plan, run_dir: Path) -> None:
    inputs = run_dir / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    for name, text in plan.input_files.items():
        (inputs / name).write_text(text, encoding="utf-8")


# --- end-to-end run ----------------------------------------------------------


def e2e_run(wl, plan: Plan, sizes: dict, run: Run, run_dir: Path, seconds: float,
            t_start: float) -> dict[str, float]:
    setups = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        write_inputs(plan, run_dir)
        probe = run_cli(("--help",), run_dir, run_dir / f"setup{k}.probe")
        run.command(f"setup{k}.probe", probe.rc)
        for i, cmd in enumerate(plan.setup):
            res = run_cli(cmd.argv, run_dir / "inputs", run_dir / f"setup{k}.cmd{i}")
            run.command(f"setup{k}.cmd{i}", res.rc)
        setups.append(time.perf_counter() - t0)
        if wl.setup_check:
            run.outputs(f"setup{k}.cmd", run_dir, plan.setup_outputs,
                        wl.setup_check(run_dir, sizes))
    print(f"setup: {' '.join(f'{s:.3f}' for s in setups)} s")

    passes: list[list[CmdResult]] = []
    ref_walls: list[float] = []
    t_measure = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_measure
        if len(passes) >= 2 and elapsed >= seconds:
            break
        last = sum(r.wall_s for r in passes[-1]) if passes else 0.0
        if passes and time.perf_counter() - t_start + 1.5 * last > RUN_BUDGET_S:
            break
        n = len(passes)
        pass_dir = run_dir / f"pass{n}"
        pass_dir.mkdir()
        results = []
        ref_wall = 0.0
        for i, cmd in enumerate(plan.commands):
            speed = CALIBRATION_REF_S / calibrate()
            res = run_cli(cmd.argv, cwd_of(cmd, run_dir, pass_dir), pass_dir / f"cmd{i}")
            run.command(f"pass{n}.cmd{i}", res.rc)
            results.append(res)
            ref_wall += res.wall_s * speed
        passes.append(results)
        ref_walls.append(ref_wall)
        run.outputs(f"pass{n}.cmd", pass_dir, plan.outputs, wl.check(pass_dir, sizes))
        shutil.rmtree(pass_dir)
        stages = stage_times(plan, results)
        print(f"pass {len(passes)}: wall {sum(r.wall_s for r in results):.3f} s"
              f"  wall_ref {ref_wall:.3f} s  "
              + "  ".join(f"{k} {v:.3f} s" for k, v in stages.items())
              + f"  peak {max(r.rss_mb for r in results):.1f} MB")

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "wall_ref_s": statistics.median(ref_walls),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
    }
    per_stage = [stage_times(plan, p) for p in passes]
    for stage in per_stage[0]:
        metrics[f"{stage}_s"] = statistics.median(s[stage] for s in per_stage)
    return metrics


def stage_times(plan: Plan, results: list[CmdResult]) -> dict[str, float]:
    out: dict[str, float] = {}
    for cmd, res in zip(plan.commands, results):
        out[cmd.stage] = out.get(cmd.stage, 0.0) + res.wall_s
    return out


# --- traced run --------------------------------------------------------------


def call_cli(cli, argv: tuple[str, ...], cwd: Path, log: Path) -> int:
    """freqscope.cli.main in this process, stdout captured to `log`."""
    old = os.getcwd()
    buf = io.StringIO()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a dead benchmark
        traceback.print_exc()
        rc = 1
    finally:
        os.chdir(old)
    log.write_text(buf.getvalue(), encoding="utf-8")
    return rc


def traced_run(wl, plan: Plan, sizes: dict, run: Run, run_dir: Path, seconds: float,
               t_start: float, tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Alternate untraced and traced in-process passes. Each pass also runs
    the set-up commands, so layers used only in set-up are still measured."""
    import freqscope.cli as cli

    write_inputs(plan, run_dir)
    startup = []
    for k in range(STARTUP_PROBES):
        res = run_cli(("--help",), run_dir, run_dir / f"probe{k}")
        run.command(f"probe{k}", res.rc)
        startup.append(res.wall_s)

    walls: dict[bool, list[float]] = {False: [], True: []}
    per_pass: list[dict[str, float]] = []
    missing: list[str] = []
    n = 0
    t_measure = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_measure
        if walls[True] and walls[False] and elapsed >= seconds:
            break
        last = max(walls[True] + walls[False], default=0.0)
        if n and time.perf_counter() - t_start + 1.5 * last > RUN_BUDGET_S:
            break
        traced = n % 2 == 1
        pass_dir = run_dir / f"pass{n}"
        pass_dir.mkdir()
        for path in plan.setup_outputs:
            shutil.rmtree(run_dir / path, ignore_errors=True)
        tracer.pass_id = n
        first_span = len(tracer.spans)
        hooks = instrument(tracer) if traced else contextlib.nullcontext(missing)
        span = tracer.span if traced else (lambda name: contextlib.nullcontext())
        t0 = time.perf_counter()
        with hooks as missing, span("pass"):
            for prefix, cmds in (("setup", plan.setup), ("cmd", plan.commands)):
                for i, cmd in enumerate(cmds):
                    with span(f"cli.{cmd.argv[0]}"):
                        rc = call_cli(cli, cmd.argv, cwd_of(cmd, run_dir, pass_dir),
                                      pass_dir / f"{prefix}{i}.out")
                    run.command(f"pass{n}.{prefix}{i}", rc)
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            per_pass.append(layer_metrics(tracer.spans[first_span:]))
            per_pass[-1]["trace.spans"] = len(tracer.spans) - first_span
        if wl.setup_check:
            run.outputs(f"pass{n}.setup", run_dir, plan.setup_outputs,
                        wl.setup_check(run_dir, sizes))
        run.outputs(f"pass{n}.cmd", pass_dir, plan.outputs, wl.check(pass_dir, sizes))
        shutil.rmtree(pass_dir)
        print(f"pass {n + 1} ({'traced' if traced else 'untraced'}): {walls[traced][-1]:.3f} s")
        n += 1

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics, missing


# --- result ------------------------------------------------------------------


def machine_note(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None  # stays None outside a git checkout
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = ((ROOT / ".git" / head[5:]).read_text().strip()
                  if head.startswith("ref: ") else head)
    policies = len(glob.glob("/sys/devices/system/cpu/cpufreq/policy*"))
    sources = hashlib.sha256()
    for path in sorted((SRC / "freqscope").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "seed": seed,
        "cpufreq_policies": policies,
        "note": None if policies else NO_CPUFREQ_NOTE,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REF_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; reference digests are not checked")
    ap.add_argument("--record-refs", action="store_true",
                    help="store this run's digests as the references for its workload")
    args = ap.parse_args(argv)

    if not (SRC / "freqscope" / "cli.py").is_file():
        print(f"bench: no freqscope sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))

    t_start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    sizes = wl.tiny if args.tiny else wl.full
    plan = wl.plan(args.seed, sizes)
    use_refs = not args.tiny and args.seed == REF_SEED and not args.record_refs
    run = Run(json.loads(REFS.read_text(encoding="utf-8"))[args.workload] if use_refs else None)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  sizes {sizes}")

    tracer = Tracer()
    missing: list[str] = []
    try:
        if args.trace:
            metrics, missing = traced_run(wl, plan, sizes, run, run_dir, args.seconds,
                                          t_start, tracer)
        else:
            metrics = e2e_run(wl, plan, sizes, run, run_dir, args.seconds, t_start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        print(f"spans written to {spans_file.relative_to(ROOT)}")
        if missing:
            print(f"not traced (absent from freqscope): {', '.join(missing)}")

    if args.record_refs and not run.failed:
        stored = json.loads(REFS.read_text(encoding="utf-8")) if REFS.exists() else {}
        stored[args.workload] = dict(sorted(run.first_digests.items()))
        REFS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"reference digests for {args.workload} written to {REFS.relative_to(ROOT)}")

    failed = len(run.failed)
    for key, whys in sorted(run.failed.items()):
        for why in whys:
            print(f"FAILED {key}: {why}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units.get(name, 's')}")  # stage times are seconds
    print(f"{'failed_frac':32s} {failed / max(run.attempted, 1):.6g} fraction"
          f" ({failed} of {run.attempted} commands)")
    print("machine " + json.dumps(machine_note(args.seed)))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
