"""Calibrated time: seconds scaled by how fast the machine runs right now.

On a shared machine the same Python work takes up to 40 % longer from
one minute to the next, and process CPU time slows with it.  The
benchmark therefore runs a fixed calibration kernel between operations
(on the same CPU, see `pin`) and scales each operation's time by
``NOMINAL_S / mean kernel time`` of the runs just before and after it: a
reported second is a second of a machine on which the kernel takes
``NOMINAL_S``.  The speed jitters from one millisecond to the next (one
kernel run takes 3.0 ms, the next 4.4 ms) and drifts over seconds, so
the mean of several runs next to the operation is what it saw.  The
kernel mixes what the solvers do: building tuples, dict look-ups and
stores, comparisons and a keyed sort.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

NOMINAL_S = 0.0035


def kernel() -> tuple:
    counts: dict = {}
    for i in range(7000):
        key = (i % 97, i % 89, i % 3)
        counts[key] = counts.get(key, 0) + 1
    return min(counts.items(), key=lambda kv: (kv[1], kv[0]))


def pin() -> None:
    """Keep this process and its children on one CPU, so the kernel is
    timed where the operations run."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sample(times: int) -> list[float]:
    """Run the kernel ``times`` times; return each run's duration."""
    out = []
    for _ in range(times):
        t0 = perf_counter()
        kernel()
        out.append(perf_counter() - t0)
    return out


def factor(samples: list[float]) -> float:
    """Calibrated seconds per measured second, from kernel durations taken
    just before and just after the timed work (fastest and slowest tenth
    dropped)."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return NOMINAL_S / statistics.fmean(xs[cut : len(xs) - cut])
