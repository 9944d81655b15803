"""Correct wall times for the host's momentary speed.

On a shared machine the same pure-Python work runs up to a third slower
while neighbours are busy, in phases of ten to sixty seconds.  CPU time
slows with wall time, so neither clock alone separates the program from
its host.  A short fixed probe of exact-fraction arithmetic, run after
every timed operation, measures the host's speed at that moment; an
operation's time is scaled by the reference probe time over the mean of
the probes on either side of it.  The probe is the benchmark's own code
and never changes with the program, so a change to liptriv moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The probe's duration on an uncontended core of the reference machine
# (Intel Xeon, Python 3.11.7), so scaled times read as seconds there.
REFERENCE_PROBE_S = 1.7e-3


def probe() -> float:
    """Seconds taken by a fixed burst of Fraction arithmetic and dict updates.

    The collector is off while it runs: a collection started by the
    probe's allocations would scan the objects liptriv keeps alive, and
    that cost would be divided out as host slowness.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc: dict = {}
        for i in range(1, 300):
            key = (i % 5, i % 3)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Hands out the factor that turns the last operation's time into reference seconds."""

    def __init__(self) -> None:
        self._last = probe()

    def factor(self) -> float:
        """Probe now; the factor for the operation since the previous probe."""
        now = probe()
        speed = (self._last + now) / 2
        self._last = now
        return REFERENCE_PROBE_S / speed
