"""Samples the machine's speed while a pass runs.

On a shared machine the speed of a core drifts by 15-20 % over tens of
seconds, with CPU time drifting as much as wall time.  An interval
timer interrupts the pass every ``INTERVAL_S`` of wall time and runs a
fixed reference computation (exact rational arithmetic on small sparse
polynomials, the kind of work ``ahmass`` does, using none of its code).
A pass's time divided by the mean reference time sampled during it
measures the work in units that the drift cancels out of.  The kernel
shares the core's caches with the pass, so a change in the program's
memory traffic can move the reference time a little as well.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.25
_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}


def reference_kernel() -> int:
    prod: dict = {}
    for _ in range(3):
        for e1, c1 in _TERMS.items():
            for e2, c2 in _TERMS.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                prod[e] = prod.get(e, 0) + c1 * c2
    return len(prod)


class SpeedProbe:
    """Context manager running the reference kernel on a SIGALRM timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.total_s = 0.0  # time taken by the probe itself
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.total_s += dt

    def __enter__(self):
        self._sample(None, None)  # at least one sample, however short the pass
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)
