"""Seeded command lists for the three benchmark workloads.

A workload is a stream of passes; a pass is a list of CLI argument lists
(without ``--out``, which the worker adds).  The seed fixes the stream, so
the same seed gives the same inputs; how many passes a run consumes depends
on how fast they go.  Every seeded choice is drawn from a finite pool so
that ``expected.json`` can hold the recorded output of every command the
benchmark can issue.

* ``sweep``: the criterion-6 configuration (half-cutoff section against
  the EM oracle at step 0.005), cut to the prefix [30, 100] so that a pass
  fits a run; ``--full`` restores t_max = 1000.  Grid evaluation and scalar
  theta dominate it.  It ignores the seed.
* ``refine``: ``zeros`` on four 20-unit windows in [2000, 5000] at the
  coarse step 0.1, one window drawn from each quarter of the range so that
  passes cost about the same.  Refinement (bisection, residuals, dip
  re-scans), the O(t) EM partial sum, long sections and the accelerated
  coefficient cache carry it.
* ``harness``: the four figures, error-decay, the coefficient sweep, the
  (412, 419) zero set and an RS-refereed ``eval`` range at a seeded start
  near 1000: fixed cutoffs, RS1 and many CSV rows through ``cli.emit``.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "refine", "harness")

SWEEP_T_MAX = 100
FULL_SWEEP_T_MAX = 1000

REFINE_STARTS = tuple(range(2000, 5000, 20))  # window [a, a + 20]
REFINE_STRATA = 4

HARNESS_EVAL_STARTS = tuple(range(975, 1026))  # range [x, x + 50]

THREADS = ["--threads", "1"]


def sweep_command(t_max: int) -> list:
    return ["conjecture", "--t-max", str(t_max), "--step", "0.005"] + THREADS


def refine_command(a: int) -> list:
    return ["zeros", "--range", f"{a}:{a + 20}:0.1", "--scheme", "em,spira,acc"] + THREADS


def harness_fixed_commands() -> list:
    fixed = [["figure", f"fig{i}"] for i in range(1, 5)]
    fixed += [
        ["error-decay", "--t-list", "100,200,400,800,1600", "--scheme", "spira,acc"],
        ["coeffs", "--sweep", "50,100,200,400,800"],
        ["zeros", "--range", "412:419:0.01", "--scheme", "em,spira", "--n", "205"],
    ]
    return [argv + THREADS for argv in fixed]


def harness_eval_command(x: int) -> list:
    return ["eval", "--range", f"{x}:{x + 50}:0.01", "--scheme", "afe,spira",
            "--ref", "rs"] + THREADS


def passes(workload: str, seed: int, full: bool = False):
    """Endless stream of passes for one workload and seed."""
    rng = random.Random(seed)
    if workload == "sweep":
        command = sweep_command(FULL_SWEEP_T_MAX if full else SWEEP_T_MAX)
        while True:
            yield [command]
    elif workload == "refine":
        size = len(REFINE_STARTS)
        bounds = [size * s // REFINE_STRATA for s in range(REFINE_STRATA + 1)]
        while True:
            yield [refine_command(REFINE_STARTS[rng.randrange(lo, hi)])
                   for lo, hi in zip(bounds, bounds[1:])]
    elif workload == "harness":
        fixed = harness_fixed_commands()
        while True:
            yield fixed + [harness_eval_command(rng.choice(HARNESS_EVAL_STARTS))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def all_commands() -> list:
    """Every command any seed can issue, for recording the expected outputs."""
    commands = [sweep_command(SWEEP_T_MAX), sweep_command(FULL_SWEEP_T_MAX)]
    commands += [refine_command(a) for a in REFINE_STARTS]
    commands += harness_fixed_commands()
    commands += [harness_eval_command(x) for x in HARNESS_EVAL_STARTS]
    return commands


def command_key(argv: list) -> str:
    return " ".join(argv)


def zero_interval(argv: list):
    """(a, b) whose reference zero count mpmath can check, or None."""
    if argv[0] == "conjecture":
        return 30.0, float(argv[argv.index("--t-max") + 1])
    if argv[0] == "zeros":
        a, b, _ = argv[argv.index("--range") + 1].split(":")
        return float(a), float(b)
    return None
