"""CPU-speed calibration for the end-to-end latency metrics.

On a shared 2-core sandbox the speed of the CPU itself swings: identical
solves measured 82-157 ms in thread CPU time within one minute, so raw run
medians spread by 10-40% between runs.  A fixed kernel that uses no lagsob
code is timed before and after every op, and each op's latency is scaled by
the kernel's reference time over the rolling median of those kernel times,
giving milliseconds at a fixed reference speed.  A faster lagsob lowers the
scaled latency exactly as it lowers the raw one, because the kernel does not
change.  Raw figures stay in the run record.

A kernel only cancels the swings of work that slows down the way it does, so
there are two.  ``small-array`` runs a three-term recurrence over 256-point
arrays, the shape of the solver's moment loop; over one minute of swings its
ratio to ``solve`` time stayed within 1.2% (interquartile), against 8-9% for
the others.  ``composite`` adds interpreter arithmetic and a streaming
recurrence over a large array, which tracks large-grid evaluation and whole
CLI processes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SMALL = np.linspace(0.0, 100.0, 256)
_LARGE = np.linspace(0.0, 100.0, 40_000)


def _recurrence(x, steps: int) -> float:
    a, b = np.ones_like(x), np.ones_like(x)
    for n in range(1, steps):
        a, b = ((2 * n + 1 - x) * a - n * b) / (n + 1), a
    return float(a[0])


def _small_array() -> float:
    return _recurrence(_SMALL, 150)


def _composite() -> float:
    total = 0
    for i in range(3_000):
        total += i * i
    return total + _recurrence(_SMALL, 40) + _recurrence(_LARGE, 4)


# Kernel and its time (ms) at the reference speed.  Part of the benchmark's
# definition: changing either rescales every latency metric that uses it.
KERNELS = {"small-array": (_small_array, 0.5), "composite": (_composite, 1.0)}


def kernel_ms(kind: str, reps: int = 3) -> float:
    """Best of ``reps`` timings of the kernel, in ms."""
    kernel = KERNELS[kind][0]
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def speed_factor(kind: str, kernel_ms: float) -> float:
    """Reference kernel time over a measured one: > 1 when the CPU runs fast."""
    return KERNELS[kind][1] / kernel_ms


def speed_factors(kind: str, kernel_times: list[float], window: int = 5) -> list[float]:
    """Speed factor of each op, from the rolling median of the kernel times around it."""
    half = window // 2
    return [speed_factor(kind, statistics.median(kernel_times[max(0, i - half): i + half + 1]))
            for i in range(len(kernel_times))]
