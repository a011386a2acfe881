"""A fixed reference computation that measures how fast this CPU runs right now.

The virtual CPUs this benchmark was built on change speed by 20 to 40% over
seconds and minutes, because of other tenants of the host.  Timing the
workload alone measures that drift as much as the program.  So, while a
pass of the workload runs, ``Sampler`` interrupts it every ``PERIOD_S``
seconds and times one run of ``kernel()``; the pass is then timed against
the kernel runs made inside it.  The drift moves both, and their ratio
stays put.

The kernel does not use zsections, so a change to the program cannot change
it.  It mixes the kinds of work the program does: numpy long-double scalar
arithmetic (as in ``theta``), numpy ufuncs over arrays of a few hundred to a
few thousand entries (cosine sums, Euler-Maclaurin partial sums),
``math.fsum`` reductions and plain Python float loops.

``REFERENCE_S`` converts a ratio back to seconds: a normalized time is the
time the measured work would take on a CPU that runs one kernel in
``REFERENCE_S`` seconds, about the median on a 2-vCPU "Intel(R) Xeon(R)
Processor" virtual machine (Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REFERENCE_S = 0.008
PERIOD_S = 0.2

_LD = np.longdouble
_SIZES = (300, 1200, 2500)
_REPS = 5


def kernel() -> float:
    """Run the reference computation once; returns a checksum."""
    total = 0.0
    for rep in range(_REPS):
        # numpy long-double scalar arithmetic
        re, im, acc = _LD(0.25), _LD(10.0 + rep), _LD(0)
        for _ in range(120):
            r2 = re * re + im * im
            acc += _LD(0.5) * np.log(r2) + np.arctan2(im, re)
            re += 1
        total += float(acc)
        # ufuncs over mid-sized arrays, reduced with fsum
        for size in _SIZES:
            n = np.arange(1, size + 1, dtype=np.float64)
            terms = np.cos((100.0 + rep) * np.log(n)) / np.sqrt(n)
            total += math.fsum(terms)
        # plain Python float loop
        s = 0.0
        for k in range(1, 2500):
            x = k * 1e-3
            s += math.sin(x) * math.log1p(x) + math.sqrt(x)
        total += s
    return total


def timed() -> tuple:
    """(wall seconds, process CPU seconds) of one kernel run."""
    wall, cpu = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - wall, time.process_time() - cpu


class Sampler:
    """Times one kernel run every PERIOD_S seconds from a SIGALRM handler.

    Used as a context manager around measured code in the main thread.
    ``samples`` holds (start, wall seconds, CPU seconds) of each run, so the
    caller can take away the time they added and compare with their mean.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), *timed()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
