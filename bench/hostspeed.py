"""Host speed gauge: a fixed kernel that shows how fast the machine runs right now.

On a host whose cores are shared with other tenants, everything, this kernel
included, can run up to half as fast in phases of seconds to minutes, and a
whole run can fall into one. The benchmark therefore runs this probe between
its operations and reports every time scaled to the reference host:

    reported time = typical time × REFERENCE_S / typical probe of the process

A typical time is a mean over a whole run, so a long operation and the
short probe average over the same phases, and the scaled time of either
hardly moves with the host's speed. The probe never calls ``opquery``, so a
change to the program moves the scaled times exactly as much as the
measured ones. On a quiet reference host the two are about the same.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

# Z_256 addition table. The kernel walks it one scalar lookup at a time: the
# same kind of work as the program's Python table fills, but none of its code.
_TABLE = (np.arange(256)[:, None] + np.arange(256)[None, :]) % 256
STEPS = 20_000
# typical probe on the reference host: 2-core shared virtual machine, Intel
# Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6
REFERENCE_S = 0.0036
# during a measured run, one probe at most this often
INTERVAL_S = 0.1
# share of the slowest times that ``typical`` drops: single hiccups such as a
# descheduled process or a cold first pass
TRIM = 0.2


def typical(times: Sequence[float]) -> float:
    """Mean of the times after the slowest TRIM share is dropped."""
    kept = sorted(times)[: len(times) - int(len(times) * TRIM)]
    return statistics.fmean(kept)


def probe() -> float:
    """Time one run of the fixed kernel, in seconds."""
    table = _TABLE
    acc = 0
    t0 = time.perf_counter()
    for i in range(STEPS):
        acc = int(table[acc, i & 255])
    return time.perf_counter() - t0


class Gauge:
    """Probe times of one process."""

    def __init__(self):
        self.times: list[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.times.append(probe())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Probe if INTERVAL_S has passed since the last probe."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a typical time measured here into reference-host time."""
        return REFERENCE_S / typical(self.times)
