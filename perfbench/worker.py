"""One measured run of a workload, in a fresh process started by run.py.

    worker.py --setup-only --work DIR [--cpu C]
    worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR
              [--full] [--cpu C] [--lane I --lanes L]
    worker.py --record --work DIR

Set-up is importing zsections from this checkout's ``src`` plus one warm-up
command; right after it, the reference kernel of calibrate.py runs
``SETUP_KERNELS`` times to tell how fast the CPU was.  Then passes of the
workload run through ``zsections.cli.main``, in-process, until ``--seconds``
have elapsed.  Each pass is timed (wall and process CPU), and so is every
kernel run that calibrate.Sampler makes inside it.  With
``--lanes L`` the worker takes every L-th pass of the seeded stream,
starting at pass ``--lane``; ``--cpu`` pins it to one CPU.  The outputs are
checked after the timing ends.  The worker prints one JSON object.
``--record`` runs every command any seed can issue and writes their outputs
to ``expected.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WARMUP = ["zeros", "--range", "412:413:0.1", "--scheme", "em,spira,acc", "--threads", "1"]
SETUP_KERNELS = 25


def load_cli():
    """zsections.cli.main, imported from this checkout and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import zsections.cli
    home = Path(zsections.__file__).resolve().parent
    if home != src / "zsections":
        raise ImportError(f"zsections was imported from {home}, not from {src}")
    return zsections.cli.main


def run_command(main, argv: list, out: Path) -> int:
    """Exit code of one CLI command; a crash counts as exit code -1."""
    try:
        return main(argv + ["--out", str(out)])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashed command is a failed operation, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return -1


def set_up(work: Path):
    start = time.perf_counter()
    main = load_cli()
    code = run_command(main, WARMUP, work / "warmup.csv")
    if code != 0:
        raise RuntimeError(f"warm-up command exited with {code}")
    return main, time.perf_counter() - start


def measure(main, workload: str, seed: int, seconds: float, trace: bool, full: bool,
            lane: int, lanes: int, work: Path) -> dict:
    import calibrate
    import workloads
    from tracer import Tracer

    stream = itertools.islice(workloads.passes(workload, seed, full), lane, None, lanes)
    tracer = Tracer() if trace else None
    runs, walls, cpus, spans, pass_commands = [], [], [], [], []
    sampler = calibrate.Sampler()
    started = time.perf_counter()
    with sampler, tracer if tracer is not None else contextlib.nullcontext():
        while not walls or time.perf_counter() - started < seconds:
            commands = next(stream)
            index = len(walls)
            if tracer is not None:
                tracer.pass_index = index
            wall, cpu = time.perf_counter(), time.process_time()
            for j, argv in enumerate(commands):
                out = work / f"pass{index}_{j}.csv"
                runs.append((index, argv, out, run_command(main, argv, out)))
            spans.append((wall, time.perf_counter()))
            walls.append(spans[-1][1] - wall)
            cpus.append(time.process_time() - cpu)
            pass_commands.append([workloads.command_key(argv) for argv in commands])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import Checker, read_output, zero_records

    checker = Checker.from_file()
    zeros = [0] * len(walls)
    failures = []
    for index, argv, out, code in runs:
        output = None
        try:
            if code == 0:
                output = read_output(out)
            problems = checker.problems(argv, code, output)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"output missing or malformed: {exc!r}"]
        if problems:
            failures.append({"pass": index, "command": workloads.command_key(argv),
                             "problems": problems})
        else:
            zeros[index] += zero_records(argv, output["summary"])
    result = {
        "walls": walls, "cpus": cpus, "zeros": zeros, "peak_rss_mb": peak_rss_mb,
        "kernels": [[[wall, cpu] for begin, wall, cpu in sampler.samples if start <= begin < end]
                    for start, end in spans],
        "attempted": len(runs), "failed": len(failures),
        "failures": failures, "passes": pass_commands, "machine": machine_facts(),
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
    return result


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def record(main, work: Path) -> None:
    import workloads
    from checks import EXPECTED_PATH, read_output

    expected = {}
    for argv in workloads.all_commands():
        out = work / "record.csv"
        code = run_command(main, argv, out)
        if code != 0:
            raise RuntimeError(f"{workloads.command_key(argv)} exited with {code}")
        expected[workloads.command_key(argv)] = read_output(out)
        print(workloads.command_key(argv), file=sys.stderr, flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--lane", type=int, default=0)
    parser.add_argument("--lanes", type=int, default=1)
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    cli_main, setup_s = set_up(args.work)
    if args.record:
        record(cli_main, args.work)
        return 0
    import calibrate

    calibrate.kernel()  # warm-up: the first run pays one-time numpy costs
    result = {"setup_s": setup_s,
              "setup_kernel_s": [calibrate.timed()[0] for _ in range(SETUP_KERNELS)]}
    if not args.setup_only:
        result.update(measure(cli_main, args.workload, args.seed, args.seconds,
                              bool(args.trace), args.full, args.lane, args.lanes,
                              args.work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
