"""A fixed kernel that never touches annlogic, timed next to the program's
work so that a shared machine's changing speed can be divided out.

A time t measured while the kernel takes r seconds reads t * NOMINAL_S / r
normalized: a machine-wide slowdown stretches t and r alike, while a
change to the program moves t alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.004  # the kernel's time on a quiet 2-core x86-64 VM
_A = np.linspace(0.0, 1.0, 4096)


def kernel():
    """Seconds of interpreter arithmetic and 4,096-wide numpy operations,
    the program's mix of work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(600):
        b = _A * 0.5 + i
        s += float(b[i])
        for j in range(25):
            s += j * i
    return time.perf_counter() - t0


def median(repeats):
    return statistics.median(kernel() for _ in range(repeats))


def normalize(seconds, ref):
    return seconds * NOMINAL_S / ref
