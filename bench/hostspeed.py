"""Task times corrected for the speed of a shared host.

The benchmark runs on hosts shared with other tenants.  On the reference
host (below) the same code runs in a fast state or in one about half as
fast, and a state can last from milliseconds to whole runs, so raw wall
times of two identical runs can differ by a factor of two.  ``HostSpeed``
samples the host's current speed with a fixed kernel that shares no code
with qma, and scales each task's time to the speed at which the kernel
takes ``REFERENCE_KERNEL_S``: the reported times are what the task takes
on the reference host in its fast state.

A SIGALRM interval timer runs the kernel every ``PERIOD_S`` of wall time,
also in the middle of a task.  The kernel runs twice and only the second,
warm run is timed, so that the timing does not depend on which caches
the task left cold.  A task's time is its wall time minus the kernel runs
inside it, multiplied by the mean of REFERENCE_KERNEL_S / kernel time over
those samples (the most recent sample for a task too short to hold one).

The correction is partial: on the reference host, scaled throughput of
the numpy-heavy measure workload reads about 5% lower in the slow state
than in the fast one, against a factor of up to two unscaled.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# Warm kernel time on the reference host in its fast state: Intel Xeon
# 2.1 GHz, 2 vCPUs, Python 3.11.7, numpy 2.4.6.
REFERENCE_KERNEL_S = 160e-6
PERIOD_S = 0.02


def _kernel() -> float:
    """Fixed interpreter-level float work plus small numpy operations."""
    acc = 0.0
    for i in range(400):
        x = 1.0 + i * 0.01
        acc += math.log(x) * x - math.exp(-x) + math.lgamma(x)
    arr = np.linspace(0.0, 1.0, 64)
    for _ in range(30):
        arr = np.sqrt(arr * 1.0001 + 1.0)
    return acc + float(arr[0])


def kernel_seconds() -> float:
    """Time of one warm kernel run."""
    _kernel()
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def to_reference(raw: float, kernel_times) -> float:
    """Scale a raw time by the mean of REFERENCE_KERNEL_S / kernel time."""
    return raw * statistics.fmean(REFERENCE_KERNEL_S / k for k in kernel_times)


class HostSpeed:
    """Context manager that samples the host's speed while tasks run."""

    def __init__(self) -> None:
        self._samples: list[tuple[float, float, float]] = []  # (start, wall spent, kernel time)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        kernel = kernel_seconds()
        self._samples.append((start, perf_counter() - start, kernel))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Call fn(); return its result, raw seconds and seconds at reference speed."""
        first = len(self._samples)
        start = perf_counter()
        result = fn()
        end = perf_counter()
        inside = [s for s in self._samples[first:] if start <= s[0] < end]
        raw = end - start - math.fsum(spent for _, spent, _ in inside)
        kernels = [k for _, _, k in inside] or [self._samples[first - 1][2]]
        return result, raw, to_reference(raw, kernels)
