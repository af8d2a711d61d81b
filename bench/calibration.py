"""Calibration loop: a fixed piece of interpreted work timed next to each pass.

The speed of a shared host drifts by tens of percent over minutes, as
other tenants load the host, and a pass and this loop slow down together.
Their ratio therefore stays steady where raw host time does not. Timed
end-to-end metrics are reported as *calibrated seconds*: host seconds
scaled by ``REFERENCE_S / loop_seconds``, i.e. the time the work would take
on a host where this loop takes exactly ``REFERENCE_S``.

``REFERENCE_S`` and ``ITERATIONS`` fix the scale of every timed metric:
changing either makes earlier results incomparable.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.017
ITERATIONS = 40_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


def _step(cell: _Cell, x: float, i: int) -> float:
    cell.value = cell.value * 0.5 + x
    return cell.value + (i & 7)


def _work() -> float:
    """Float math, calls, attribute, dict and list traffic, as in caplora."""
    table: dict[int, float] = {}
    trail: list[float] = []
    cell = _Cell(0.0)
    acc = 0.0
    for i in range(ITERATIONS):
        x = math.exp(-(i % 100) * 0.01)
        table[i & 255] = x
        acc += _step(cell, x, i)
        if i % 16 == 0:
            trail.append(acc)
    return acc + len(trail) + len(table)


def loop_seconds() -> float:
    """Host seconds the calibration work takes right now: the median of
    three runs, so one preempted run does not skew the pass it scales."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
