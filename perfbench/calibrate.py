"""Speed calibration for a host whose CPU speed drifts.

On a shared virtual machine the same pure-Python work can take 30-60%
longer for seconds or minutes at a time, so raw times from two runs are not
comparable.  While a job runs, a timer signal interrupts it every
``INTERVAL_S`` to time one fixed slice of interpreter work (small tuples,
frozensets, a dict and list arithmetic, like the package's own code);
more slices are taken between jobs.  A job's time, minus the slices taken
inside it, is scaled by ``REFERENCE_S / mean slice``: the time the job
would take at the reference speed.  The mean, not the median, because the
host also takes the CPU away for whole milliseconds; the slices that catch
such a gap are the ones that measure what the job lost to it.  Slices run with the garbage collector
off and touch no program state, so the program's heap cannot slow them.

This module imports only ``gc``, ``signal``, ``statistics`` and ``time``,
so loading it before the timed ``import signedpaths.cli`` does not pre-load
modules the package needs.
"""

import gc
import signal
import statistics
import time

# Typical slice time on the machine the baseline was taken on (2 vCPUs,
# Python 3.11.7); it only fixes the scale of the reported seconds.
REFERENCE_S = 0.0008

INTERVAL_S = 0.02
BRACKET_SLICES = 5


def calibration_s() -> float:
    """Seconds one fixed slice of interpreter work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(500):  # object work: tuples, frozensets, a dict
            key = (i % 7, i % 11, i % 13)
            table[key] = table.get(key, 0) + 1
            acc += sum(key) * (i & 3)
            if len(frozenset(key)) == 3:
                acc ^= i & 255
        counts = [0] * 16
        for i in range(800):  # list arithmetic, as in the counting kernels
            k = i & 15
            counts[k] += counts[(k + 1) & 15] + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Collects slice times; ``with meter:`` also samples while a job runs."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def bracket(self) -> None:
        """Take slices between jobs, with the timer off."""
        self.slices.extend(calibration_s() for _ in range(BRACKET_SLICES))

    def _sample(self, signum, frame) -> None:
        self.slices.append(calibration_s())

    def __enter__(self) -> "SpeedMeter":
        # the handler stays installed, so a signal still pending after the
        # timer stops is sampled instead of ending the process
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def scale(seconds: float, slices: list[float]) -> float:
    """``seconds`` at the reference speed, given the slices taken around it."""
    return seconds * REFERENCE_S / statistics.fmean(slices)
