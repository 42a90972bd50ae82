"""Core-speed calibration for timings taken on shared hosts.

Other tenants of a shared host slow the CPU in bursts lasting from seconds
to minutes; CPU time rises with wall time, so the slowdown is contention
for the core, not descheduling.  A fixed pure-Python kernel is timed before
and after every measured step of a core-bound workload, and the step's time
is scaled by ``REFERENCE_S / kernel time``: the time the step would take
with the core running the kernel at its reference speed.  Steps bound by
memory traffic slow less than the kernel does, so they are left unscaled
(``Workload.core_bound``).

The kernel is an interpreter loop over a small dict: it allocates nothing
the program's heap could affect, its working set stays in L1, and it uses
no roundmoments or numpy code, so a faster program reads faster while a
slower core does not.  On a 2-vCPU Xeon host, over ten 20-second windows of
``sweep`` whose raw time varied by a factor of 1.7, the scaled time varied
by 1.11 and its quartile spread was 0.031 of the median (0.458 raw).
"""

from __future__ import annotations

import time

REFERENCE_S = 0.003  # a fixed reference, close to the kernel's time on that host
_ITERATIONS = 20_000


def measure() -> float:
    """Wall seconds of the calibration kernel, now."""
    t0 = time.perf_counter()
    acc: dict = {}
    for j in range(_ITERATIONS):
        acc[j % 17] = acc.get(j % 17, 0.0) + j * 0.5
    return time.perf_counter() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at the kernel's reference speed."""
    return seconds * REFERENCE_S / kernel_s
