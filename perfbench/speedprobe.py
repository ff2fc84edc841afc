"""Machine-speed probe: a fixed reference kernel timed between the calls
of a workload and, on a wall-clock timer, during them, so each call's time
can be stated at one machine speed.

On a shared machine the same call runs up to ~40% slower for seconds or
minutes at a time, and a whole run can land in a slow spell. The kernel
slows with it but runs no otfusion code, so a call's time divided by the
kernel's mean time around and during it keeps every change to the
program and drops most of the machine's drift. Sampling during the call
matters for calls of seconds, over which the speed changes.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0025      # kernel time the scaled figures assume
SAMPLE_EVERY_S = 0.2    # kernel samples during a call, about 1.5% of it
_A = np.linspace(-1.0, 1.0, 12 * 32).reshape(12, 32)


class _Cell:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents


def reference_kernel() -> float:
    """Fixed interpreter and tiny-matrix work shaped like diffcore's graph
    building: small objects linked to their inputs, 12x32 products, exp."""
    cell = _Cell(_A)
    for _ in range(300):
        prod = _Cell(cell.value @ _A.T, (cell,))
        act = _Cell(np.exp(-np.abs(prod.value) * 0.1), (prod,))
        cell = _Cell(act.value @ _A / 12.0, (act,))
    return float(cell.value.sum())


def kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def machine_seconds(runs: int = 5) -> float:
    """Median kernel time over a few runs: the machine's speed right now."""
    return statistics.median(kernel_seconds() for _ in range(runs))


def at_nominal(seconds: float, kernels: list[float]) -> float:
    """``seconds`` scaled to a machine where the kernel takes ``NOMINAL_S``,
    judging the machine's speed by the mean of ``kernels``, kernel times
    taken around and during those seconds."""
    return seconds * NOMINAL_S / statistics.fmean(kernels)


class DuringCall:
    """Within the block, time the kernel every ``SAMPLE_EVERY_S`` of wall
    time from a SIGALRM handler (main thread only). ``kernels`` holds the
    samples and ``spent`` the wall time they took, which the caller takes
    off the call's time. A handler runs between Python bytecodes, so a
    long call into C is sampled when it returns."""

    def __init__(self):
        self.kernels: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernels.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
