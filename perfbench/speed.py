"""Machine-speed scaling for timed measurements.

On a shared host the speed at which this process runs Python drifts by
tens of percent over seconds to minutes, as neighbours load the same
cores.  A fixed stdlib-only probe, taken right before each measured
operation, tracks that drift; dividing it out reports every time at one
reference speed, so runs made minutes apart stay comparable.  The probe
never touches the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

# The probe's time at the reference speed: its typical time on a
# 2-vCPU, 2.1 GHz shared VM.  Scaled times are reported at this speed.
PROBE_REF_S = 2.5e-4
WINDOW = 8


def probe() -> float:
    """Seconds for a fixed workload of Fraction and dict operations."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for j in range(1, 80):
        acc += Fraction(1, j)
        seen[j] = acc
    return time.perf_counter() - t0


class SpeedScale:
    """Factor from measured to reference time, from the mean of the last
    WINDOW probes."""

    def __init__(self):
        self._probes: deque[float] = deque(maxlen=WINDOW)
        for _ in range(WINDOW):
            self.probe()

    def probe(self) -> None:
        self._probes.append(probe())

    def factor(self) -> float:
        return PROBE_REF_S * len(self._probes) / sum(self._probes)
