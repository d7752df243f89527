"""Machine-speed calibration for the benchmark's time metrics.

The host's effective CPU speed drifts by up to a factor of 1.7 in phases of
tens of seconds, longer than a run, so medians of raw pass times differ
between runs of the same code by more than any useful bound.  A fixed
calibration unit, code of the benchmark's own that never touches sltlab, is
timed right after every timed operation, for a fixed share of that
operation's time.  Each operation's seconds are then scaled to the reference
speed: seconds measured, times REFERENCE_S over the mean calibration unit
time measured right after it (wall time for wall seconds, CPU time for CPU
seconds).  A change to sltlab moves the measured seconds and not the
calibration, so it shows in full; a slow phase of the host moves both and
cancels.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds of one calibration unit at the reference speed: about its median
# time right after an operation, on a 2-core Intel Xeon at 2.1 GHz with
# Python 3.11 and numpy 2.4, so that the scaled figures read like seconds on
# that host.
REFERENCE_S = 0.014

_SMALL = np.linspace(0.0, 1.0, 64)
_X = np.random.default_rng(0).random(1000)
_Y = np.random.default_rng(1).random(1000) < 0.5


def unit() -> float:
    """One calibration unit, in the mix the program runs: an interpreter
    loop, numpy calls on 64-element arrays, threshold errors over 1000 points
    (what erm does per member) and random draws of 1000 points.  Returns a
    value so that nothing is skipped."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    for i in range(1_200):
        total += int(np.count_nonzero(_SMALL > _SMALL[i % 64]))
    err = 0.0
    for k in range(400):
        err += float(np.mean((_X >= _X[k]) != _Y))
    rng = np.random.default_rng(2)
    for _ in range(150):
        err += float(rng.random(1000).sum())
    return total + err


def calibrate(at_least: float) -> tuple[float, float, int]:
    """(wall seconds, CPU seconds, units) of calibration units run back to
    back until they take `at_least` wall seconds; at least one unit."""
    wall = cpu = 0.0
    units = 0
    while units == 0 or wall < at_least:
        t0, c0 = time.perf_counter(), time.process_time()
        unit()
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        units += 1
    return wall, cpu, units
