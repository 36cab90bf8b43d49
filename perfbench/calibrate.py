"""Host-speed calibration: a fixed kernel outside the program under test.

On a shared host the speed this process gets swings by 30-40% between
minutes while CPU time tracks wall time and steal stays near zero: the
slowdown comes from co-tenants sharing caches and cores, and it lasts
longer than one run.  The kernel -- a pure-Python loop, numpy array work
and one HiGHS LP through scipy, the three kinds of work the program
spends its time on -- is timed in the gaps between the benchmark's
operations.  Dividing an operation's latency by the kernel's latency,
both taken at their 10th percentile over the run, cancels most of that
swing; the kernel never calls into ``repro``, so a change to the program
moves the ratio in full.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize

from layers import p10


class Calibration:
    """Times the kernel on demand; ``p10()`` summarizes the samples."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._array = rng.random(100_000)
        self._a = rng.random((120, 240))
        self._b = self._a.sum(axis=1)
        self._c = -rng.random(240)
        self.samples = []

    def _kernel(self) -> float:
        total, table = 0, {}
        for i in range(100_000):
            total += i * 7 % 13
            table[i & 511] = total
        for _ in range(4):
            ordered = np.sort(self._array)
            total += int(np.diff(np.cumsum(ordered)).argmax())
        lp = optimize.linprog(self._c, A_ub=self._a, b_ub=self._b,
                              bounds=(0, 1), method="highs")
        return total + lp.fun

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def p10(self) -> float:
        return p10(self.samples)
