"""Benchmark of the zsections laboratory: end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload {sweep,refine,harness} --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload sweep --full --seed 0 --seconds 1 --trace 1

Run from the root of a checkout.  The zsections package is imported from
that checkout's ``src``; without it the benchmark exits with code 2.  Each
run starts fresh single-threaded worker processes: some that only set up
(import plus warm-up) for ``setup_s``, then the measuring ones, which set
up, run passes of the workload through the real CLI for ``--seconds``
seconds and check every output (see worker.py, workloads.py and checks.py).

Workers run in lanes, one per CPU (at most two), pinned and side by side.
Lane i takes passes i, i + L, ... of the seeded stream, and the samples of
all lanes are pooled.  The speed of each virtual CPU drifts by 20 to 40%
over seconds and minutes, independently of the other one, so every time
is normalized: it is measured against the reference kernel of calibrate.py,
timed at the same moments on the same CPU, and reported as seconds on a
CPU that runs that kernel in ``calibrate.REFERENCE_S`` seconds.  The raw
times are in the details line.  All files go to a temporary directory
under ``.perfbench_work`` in the checkout, removed at the end.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where an attempt is one
CLI command and it fails on an unexpected exit code or any failed output
check.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from tracer.py.  The line before it holds
the details: machine facts, revision, the commands run, every per-pass
sample and every failed check.  ``--full`` runs the whole criterion-6 sweep
over [30, 1000] once instead of the [30, 100] prefix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"

MAX_LANES = 2
SETUP_ROUNDS = 6  # rounds of set-up-only workers; the measuring workers add one more
RUN_LIMIT_S = 170.0
FULL_RUN_LIMIT_S = 900.0


def worker_env(work: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update({
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "TMPDIR": str(work),
        "HOME": str(work),
        # Keep the CLI's git provenance lookup inside the checkout.
        "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
        "GIT_CONFIG_NOSYSTEM": "1",
    })
    return env


def run_lanes(arguments: list, cpus: list, work: Path, deadline: float) -> list:
    """Run one worker per CPU side by side; worker i gets --cpu cpus[i] and --lane i."""
    procs = []
    try:
        for lane, cpu in enumerate(cpus):
            directory = Path(tempfile.mkdtemp(prefix=f"lane{lane}-", dir=work))
            procs.append(subprocess.Popen(
                [sys.executable, str(WORKER), "--work", str(directory), "--cpu", str(cpu),
                 "--lane", str(lane), "--lanes", str(len(cpus)), *arguments],
                cwd=ROOT, env=worker_env(directory), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True))
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
            sys.stderr.write(err)
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited with code {proc.returncode}")
            lines = out.strip().splitlines()
            if not lines:
                raise RuntimeError("worker printed no result")
            results.append(json.loads(lines[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zsections").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            git = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_revision": git, "src_sha256": digest.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def normalized(times: list, kernels: list, column: int) -> list:
    """Each pass's time scaled to the reference CPU speed of calibrate.py.

    kernels holds, per pass, the (wall, cpu) times of the kernel runs made
    inside it; column picks wall (0) or CPU (1).  Their sum is taken away
    from the pass's time and their mean sets the scale.
    """
    out = []
    for time_s, runs in zip(times, kernels):
        if not runs:
            raise RuntimeError("a pass was shorter than the calibration period")
        spent = [run[column] for run in runs]
        out.append((time_s - sum(spent)) * calibrate.REFERENCE_S / statistics.fmean(spent))
    return out


def normalized_setup(lane: dict) -> float:
    return lane["setup_s"] * calibrate.REFERENCE_S / statistics.median(lane["setup_kernel_s"])


def end_to_end(result: dict, setups: list) -> dict:
    walls = result["norm_walls"]
    return {
        "norm_wall_s": metric(statistics.median(walls), "s"),
        "zeros_per_norm_s": metric(statistics.median(
            zeros / wall for zeros, wall in zip(result["zeros"], walls)), "1/s"),
        "norm_cpu_s": metric(statistics.median(result["norm_cpus"]), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def pooled(lanes: list) -> dict:
    """The samples and counts of all lanes as one result."""
    return {
        "walls": [w for lane in lanes for w in lane["walls"]],
        "norm_walls": [w for lane in lanes
                       for w in normalized(lane["walls"], lane["kernels"], 0)],
        "norm_cpus": [c for lane in lanes
                      for c in normalized(lane["cpus"], lane["kernels"], 1)],
        "zeros": [z for lane in lanes for z in lane["zeros"]],
        "peak_rss_mb": max(lane["peak_rss_mb"] for lane in lanes),
        "attempted": sum(lane["attempted"] for lane in lanes),
        "failed": sum(lane["failed"] for lane in lanes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--full", action="store_true",
                        help="sweep only: the whole criterion-6 range [30, 1000]")
    args = parser.parse_args(argv)
    if args.full and args.workload != "sweep":
        parser.error("--full applies to the sweep workload only")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "zsections" / "__init__.py").is_file():
        print(f"run.py: no zsections package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))[:MAX_LANES]
    if args.full:  # a single pass: a second lane would only repeat it
        cpus = cpus[:1]
    deadline = time.perf_counter() + (FULL_RUN_LIMIT_S if args.full else RUN_LIMIT_S)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        set_ups = [lane for _ in range(SETUP_ROUNDS)
                   for lane in run_lanes(["--setup-only"], cpus, work, deadline)]
        lanes = run_lanes(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--full"] if args.full else []),
            cpus, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    set_ups += lanes
    setups = [normalized_setup(lane) for lane in set_ups]
    result = pooled(lanes)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "full": args.full, "threads": 1, "cpus": cpus,
        "machine": {"nproc": len(os.sched_getaffinity(0)), **lanes[0]["machine"]},
        **revision(),
        "setup_s_samples": setups,
        "setup_s_raw": [lane["setup_s"] for lane in set_ups],
        "wall_s_samples": [lane["walls"] for lane in lanes],
        "cpu_s_samples": [lane["cpus"] for lane in lanes],
        "kernel_s_samples": [lane["kernels"] for lane in lanes],
        "wall_s": statistics.median(result["walls"]),
        "zero_records": [lane["zeros"] for lane in lanes],
        "peak_rss_mb": [lane["peak_rss_mb"] for lane in lanes],
        "passes": [lane["passes"] for lane in lanes],
        "failures": [lane["failures"] for lane in lanes],
    }
    if args.trace:
        metrics = layer_metrics([lane["layers"] for lane in lanes],
                                len(result["walls"]), result["norm_walls"])
    else:
        metrics = end_to_end(result, setups)
    print(json.dumps(details))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
