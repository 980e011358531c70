"""Host-speed calibration: scales measured times to a reference speed.

The VM's CPU speed drifts by up to 2x over minutes with load from outside
it (README, "Noise"), and no statistic inside a 25 s run removes a drift
that lasts the whole run.  So the benchmark times a fixed pure-Python
kernel next to every op and every interpreter start-up, and scales each
measured time by REFERENCE_S / kernel time: the result is the time the
op would take on a host where the kernel takes REFERENCE_S.  The kernel
is the benchmark's own code, so a change to capdom never moves it.
"""
from __future__ import annotations

import statistics
import time

# Kernel time on the quiet 2-vCPU VM the benchmark was tuned on (Python
# 3.11.7); under load from outside the VM it took up to 1.8 times as long.
REFERENCE_S = 0.0006
REPEATS = 5


def _kernel():
    """Dict, set, tuple and sort work, the operations capdom's layers use."""
    table = {}
    for i in range(1600):
        key = (i % 31, i % 37)
        table[key] = table.get(key, 0) + i
    return len(set(table.values())), sorted(table)[0]


def kernel_seconds() -> float:
    """Median time of REPEATS runs of the kernel."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(elapsed: float, kernel_before: float, kernel_after: float) -> float:
    """`elapsed` at the reference speed, by the kernel timed around it."""
    return elapsed * 2 * REFERENCE_S / (kernel_before + kernel_after)
