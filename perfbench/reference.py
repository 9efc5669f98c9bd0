"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The benchmark shares a host whose vCPUs slow down by up to 1.8x for
seconds or minutes while neighbours are busy.  Timing the program alone
then measures the neighbours as much as the program.  So the benchmark
times this kernel next to the ops and reports every time at the reference
speed: a time measured while the kernel took ``g`` seconds is multiplied by
``REFERENCE_S / g``.  The kernel does the kind of work the package does
(tuple states, generator expressions, ``sum``, ``math`` calls, a Runge-Kutta
stage sweep) and none of the package's code, so a change to the package
cannot move it.  It must stay fixed: changing it or ``REFERENCE_S``
changes every reported time.
"""

from __future__ import annotations

import math
import os
import time

# Classical RK4, written the way filcol.integrate writes its stage sweep.
_A = ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
STEPS = 60
REPEATS = 3
MAX_GAUGED_CPUS = 8
# About the kernel's least time on a 2-vCPU x86-64 cloud VM with CPython 3.
REFERENCE_S = 1e-3


def _field(y):
    x, v, u, w = y
    r2 = x * x + u * u + 1.0
    c = 1.0 / (r2 * math.sqrt(r2))
    return (v, -x * c + 0.1 * math.sin(u), w, -u * c - 0.1 * math.cos(x))


def kernel(steps: int = STEPS):
    y = (1.0, 0.0, 0.0, 1.0)
    h = 0.01
    for _ in range(steps):
        ks = [_field(y)]
        for row in _A:
            ks.append(_field(tuple(
                y[i] + h * sum(a * ks[j][i] for j, a in enumerate(row)) for i in range(4)
            )))
        y = tuple(y[i] + h * sum(b * ks[j][i] for j, b in enumerate(_B)) for i in range(4))
    return y


def gauge() -> float:
    """Least of REPEATS timings of the kernel, in seconds."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(REPEATS):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best


def gauge_cpus() -> float:
    """The kernel's time at the mean speed of the CPUs this process may use.

    For work a process pool spreads over the CPUs: each vCPU of a shared
    host slows down on its own, so a gauge on the one CPU the client runs on
    misses a slowdown of the others.  The process is pinned to each allowed
    CPU in turn (at most MAX_GAUGED_CPUS) and the per-CPU gauges combine as
    1 / mean(1 / g).  The affinity is restored before returning, so that
    processes started later may use every CPU.  Where affinity cannot be
    set, this is ``gauge()``.
    """
    try:
        allowed = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return gauge()
    speeds = []
    try:
        for cpu in sorted(allowed)[:MAX_GAUGED_CPUS]:
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / gauge())
    except OSError:
        pass
    finally:
        os.sched_setaffinity(0, allowed)
    return len(speeds) / math.fsum(speeds) if speeds else gauge()
