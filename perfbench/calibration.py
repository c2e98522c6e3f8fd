"""Host-speed calibration: a fixed task of the benchmark's own, timed between rounds.

The benchmark was built on a shared 2-core x86-64 VM whose speed drifts by
10 to 25% over minutes, for any code alike: identical work took 1.3 to
2.1 s within one minute, and a pure-Python loop drifted the same way.  Each
worker therefore times this task before every round, and ``run.py`` scales
the run's timings by ``NOMINAL_S`` over the task's mean time in the same run
(its time in the same process for ``setup_s``).  On that box, over eight
seeds, this cut the spread (IQR/median) of fuzz ``instances_per_s`` from
0.13 to 0.03 and of threshold-3sat's from 0.14 to 0.05.

The task mixes the three kinds of work ``satcover`` does: interpreted Python
loops, bitmask sweeps over 2**16 int64 assignments (as ``brute_sat`` does)
and whole copies of a dense 700 x 700 int64 matrix (as the procedures'
snapshots do).  It uses nothing from ``satcover``, so a change to the
package cannot change it.
"""
from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

# mean task time on the box the benchmark was built on, at its usual speed;
# scaled timings are in seconds of that box
NOMINAL_S = 0.070

_ASSIGNMENTS = np.arange(1 << 16, dtype=np.int64)
_MATRIX = np.random.default_rng(0).integers(0, 2, size=(700, 700)).astype(np.int64)


def task_s() -> float:
    """Wall time of one run of the calibration task."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    alive = np.ones(_ASSIGNMENTS.size, dtype=bool)
    for j in range(200):
        alive &= ((_ASSIGNMENTS & j) != 0) | ((~_ASSIGNMENTS & (3 * j)) != 0)
    for _ in range(15):
        _MATRIX.copy().sum(axis=0)
    return time.perf_counter() - start


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than nominal the host ran: mean task time / ``NOMINAL_S``.
    A timing divided by this is in seconds of the nominal box."""
    return statistics.fmean(samples) / NOMINAL_S
