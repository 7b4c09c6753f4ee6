"""Machine-speed correction for a shared, throttled host.

The hosts this benchmark runs on change speed by up to 2x in phases that
last seconds, which swamps differences between commits.  A fixed probe of
pure-Python ``Fraction`` arithmetic (the library's own kind of work, but
none of its code) is timed between measurements; every measured time is
scaled by ``REFERENCE_S / probe``, using the mean of the probes just before
and just after it.  Reported times are therefore "seconds on a machine where
the probe takes ``REFERENCE_S``".
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005
PROBE_EVERY_S = 1.0


def _chunk() -> None:
    total = Fraction(0)
    seen = {}
    for i in range(1, 600):
        a = Fraction(i % 97, 1 + i % 13)
        total += a * Fraction(3, 7)
        seen[i % 31] = a < total


def probe() -> float:
    """Median of five timings of the fixed chunk, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Scaler:
    """Scales batches of times by the probes that bracket them."""

    def __init__(self) -> None:
        self.last = probe()
        self.last_at = time.perf_counter()
        self.probes = [self.last]

    def due(self) -> bool:
        return time.perf_counter() - self.last_at >= PROBE_EVERY_S

    def factor(self) -> float:
        """Probe now; the factor for everything measured since the last probe."""
        now = probe()
        self.probes.append(now)
        scale = REFERENCE_S / ((self.last + now) / 2)
        self.last, self.last_at = now, time.perf_counter()
        return scale
