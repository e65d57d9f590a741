"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark's host is a shared VM whose speed drifts by up to 2x over
tens of seconds; CPU time drifts with wall time, so it does not help.
Every unit of work times this loop just before and just after its timed
part, in the same process, and the end-to-end times are scaled by
REFERENCE_S / (the loop's time): they read as the seconds the unit would
take on the machine running at the speed where the loop takes
REFERENCE_S. The loop does not touch cemkit, so a change to the program
cannot move it.

Its shape follows the online engines' per-sample loop: a Python loop of
small numpy draws, comparisons and reductions, plus some dict and
integer work.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# The loop's time, in seconds, at the speed the scaled times refer to: a
# round figure near its time on the machine the baseline was taken on
# (shared 2-core VM, Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4),
# where it took 0.05-0.10 s.
REFERENCE_S = 0.1

ITERATIONS = 10_000


def calibrate() -> float:
    """Seconds the reference loop takes now.

    The garbage collector is off while it runs, so the size of the heap
    the program left behind does not change its time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rng = np.random.default_rng(0)
        p = np.full(50, 0.5)
        seen = {}
        acc = 0.0
        t0 = perf_counter()
        for i in range(ITERATIONS):
            x = rng.random(50) < p
            acc += float(x.sum())
            p = 0.9 * p + 0.1 * x
            seen[i & 255] = i * i % 7
        elapsed = perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if not acc > 0:
        raise RuntimeError("reference loop computed nothing")
    return elapsed


def scaled(seconds: float, calibration_s: float) -> float:
    """`seconds` measured while the loop took `calibration_s`, at reference speed."""
    return seconds * REFERENCE_S / calibration_s
