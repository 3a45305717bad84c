"""Calibration kernel: a fixed piece of work that measures the speed of the
machine at the moment, independently of the program.

On a shared machine the speed of the process drifts with the load of other
tenants, over seconds to minutes, and wall and CPU time stretch alike.
``run.py`` divides the time of each experiment by a kernel time taken right
next to it, so the drift cancels, and multiplies by ``REFERENCE_S`` to report
seconds at one fixed speed.  The kernel mixes the two kinds of work the
program does: a pure-Python float loop and steps on small numpy arrays, as
in a right-hand side.  It uses neither ``onecentre`` nor scipy, so a change
of the program never changes it, and it warms up nothing the cold pass of
the program would otherwise pay for.
"""

from __future__ import annotations

import time

import numpy as np

#: about the fastest kernel time on the machine the benchmark was tuned on (Intel
#: Xeon, 2 vCPUs; Python 3.11.7, numpy 2.4.6, scipy 1.17.1); it only sets
#: the scale of the reported times
REFERENCE_S = 0.004


def kernel_s(runs: int = 1) -> float:
    """Fastest wall time of `runs` runs of the calibration kernel."""
    if runs > 1:
        return min(kernel_s() for _ in range(runs))
    t0 = time.perf_counter()
    s = 0.0
    for i in range(25000):
        s += (i % 7) * 0.5 / (1.0 + i)
    y = np.array([1.0, 0.0, 0.0, 1.0])
    for _ in range(700):
        r = np.hypot(y[0], y[1])
        y = y + 1e-3 * np.array([y[2], y[3], -y[0] / r, -y[1] / r])
    return time.perf_counter() - t0
