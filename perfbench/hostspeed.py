"""Host speed, sampled with a fixed calibration kernel during a run.

On the reference host the same instruction stream runs up to about 1.5x
faster or slower from one stretch of seconds to the next, on the CPU clock
too: the core is shared with other tenants.  Over 45 s runs that moved
adhoc's joins per CPU second by a quartile spread of 0.23 across seeds.
The benchmark therefore reports times at a fixed reference speed: while a
pass runs, :class:`HostSpeed` runs :func:`kernel` between operations (never
during one), and an operation that took ``t`` CPU seconds at a moment when
the kernel took ``k`` is reported as ``t * REFERENCE_KERNEL_S / k``.  With
the same six seeds this brought that spread to 0.07.

The kernel is benchmark code and calls nothing in the program, so a change
to the program cannot move it.  It is timed on the thread's CPU clock, and
each sample keeps the fastest of :attr:`HostSpeed.RUNS` back-to-back runs,
so what the previous operation left in the caches does not count as a
slower host.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List

import numpy as np

__all__ = ["REFERENCE_KERNEL_S", "HostSpeed", "kernel"]

#: Thread CPU seconds of one :func:`kernel` sample at the host speed the
#: reported times refer to: the median sample of adhoc runs on the
#: reference host (2-vCPU shared VM, Python 3.11.7, NumPy 2.4.6).
REFERENCE_KERNEL_S = 0.88e-3

#: Small enough to stay in a core's private caches.
_RAMP = (np.arange(4096, dtype=np.float64) * 0.6180339887) % 1.0


def kernel() -> float:
    """A fixed mix of interpreted arithmetic and small NumPy calls."""
    n = 0
    for i in range(8000):
        n += i * i % 7
    ordered = np.sort(_RAMP)
    bins = np.zeros(64)
    np.add.at(bins, (ordered * 64).astype(np.intp), 1.0)
    return n + bins[0]


class HostSpeed:
    """Kernel samples taken at most every :attr:`EVERY_S` seconds.

    :meth:`scale` converts a CPU time measured around ``perf_counter`` time
    ``t`` to reference-speed time, from the samples within :attr:`WINDOW_S`
    of ``t``.
    """

    RUNS = 3
    EVERY_S = 0.25
    WINDOW_S = 1.0

    def __init__(self) -> None:
        self.times: List[float] = []
        self.kernel_s: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(self.RUNS):
            cpu = time.thread_time()
            kernel()
            best = min(best, time.thread_time() - cpu)
        self.times.append(start)
        self.kernel_s.append(best)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S

    def scale(self, t: float) -> float:
        lo = bisect_left(self.times, t - self.WINDOW_S)
        hi = bisect_right(self.times, t + self.WINDOW_S)
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi] or self.kernel_s)

    def median_scale(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s)
