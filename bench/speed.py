"""Machine-speed references for scaling measured times.

On a shared machine the speed available to one process changes by up to
2x over seconds to minutes (other tenants on the same cores), which
moves every wall time by far more than the changes this benchmark has
to resolve.  A fixed reference task runs between operations, and each
operation's time is multiplied by nominal / (median of the last few
reference times).  Scaled times read as wall times on a machine where
the reference task takes its nominal time, which is about its time on an
idle core of a shared 2-core x86-64 virtual machine.  The raw times are reported too.

Two references: `reference_task`, Python arithmetic and small numpy
linear algebra like the library's own work, for operations run in this
process; and a fresh `python -c "import numpy"` process for operations
that are processes themselves (interpreter start and imports), which the
in-process task does not track.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
from collections import deque
from time import perf_counter

import numpy as np

NOMINAL_S = 0.9e-3
PROCESS_NOMINAL_S = 0.2
EVERY_S = 0.05     # at most this much measured time between two samples
RECENT = 5         # samples in the rolling median

_MAT = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4) / 16.0
_MAT = _MAT + _MAT.T


def reference_task() -> float:
    acc = 0.0
    for i in range(900):
        acc += math.sin(i * 1e-3) * math.cos(i)
    for _ in range(60):
        acc += float(np.linalg.det(_MAT[:3, :3]))
        acc += float(np.linalg.eigvalsh(_MAT)[0])
    return acc


class SpeedClock:
    """Rolling machine-speed factor from interleaved reference tasks."""

    def __init__(self, task=reference_task, nominal_s: float = NOMINAL_S,
                 every_s: float = EVERY_S) -> None:
        self.task, self.nominal_s, self.every_s = task, nominal_s, every_s
        self.samples: list[float] = []
        self._recent: deque = deque(maxlen=RECENT)
        self._since = math.inf

    def sample(self) -> None:
        t0 = perf_counter()
        self.task()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self._recent.append(dt)
        self._since = 0.0

    def after(self, measured_s: float) -> float:
        """Account measured_s of work; sample when due; return the
        factor that scales that work to the nominal speed."""
        self._since += measured_s
        if self._since >= self.every_s:
            self.sample()
        return self.nominal_s / statistics.median(self._recent)

    def median_s(self) -> float:
        return statistics.median(self.samples)


@contextlib.contextmanager
def one_cpu():
    """Pin the calling thread, and the threads it starts, to the lowest
    CPU it may run on; restore the affinity on exit.

    The library's work holds the GIL, so one core is all it can use.
    Unpinned, the level-scan pool hands the GIL between cores, which on
    a shared 2-core machine made scan throughput spread 13% between runs
    against 5% pinned (and pinned scans run about 1.5x faster).
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def process_clock(run_reference) -> SpeedClock:
    """A clock sampled after every process; `run_reference()` runs one
    fresh `python -c "import numpy"` to completion."""
    return SpeedClock(run_reference, PROCESS_NOMINAL_S, 0.0)
