"""Machine-speed calibration for a shared, drifting host.

On a shared 2-core machine the same work runs up to 40% slower or faster
from one stretch of a few hundred milliseconds to the next, for every
program alike (CPU time moves with wall time, so this is the core's speed,
not descheduling).  The benchmark therefore runs a fixed piece of work that
does not touch the package right before and right after every timed
operation, and every SAMPLE_EVERY_S during it, and reports the operation's
time scaled by REFERENCE_S / the median of those samples.  A change to the
package cannot move the calibration, so it moves the scaled times exactly
as it moves the raw ones, while the drift of the machine cancels.  The work
mixes a scalar Python loop with numpy array calls, the two kinds of work
the package does.

Samples during a call come from a SIGALRM handler, so they run on the
call's own thread between its bytecodes.  Operations time themselves with
``clock``, which leaves those pauses out.  While the process runs more than
one thread (the MC workers) no sample is taken: it would compete with the
program's own threads and measure them rather than the machine.  Without
the samples during a call, a call of seconds was scaled by two snapshots of
a speed that changes under it, which made its spread worse than unscaled
(coefficient of variation 0.14-0.17 against 0.07-0.12 over 14 refine-128
meshes; 0.04-0.075 with samples every 0.2 s).
"""

from __future__ import annotations

import math
import signal
import statistics
import threading
import time

import numpy as np

# Median calibration time on the reference machine (2-core x86-64 VM,
# Python 3.11, numpy 2.4).  Only the ratio to it matters: scaled times are
# seconds at this reference speed.
REFERENCE_S = 0.0105
SAMPLE_EVERY_S = 0.2

_paused = 0.0


def clock() -> float:
    """``time.perf_counter`` less the time spent in samples during calls."""
    return time.perf_counter() - _paused


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.random((30_000, 3))
        self._keys = rng.integers(0, 1 << 40, 20_000)
        self._during: list[float] = []
        self.last = self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, 25_000):
            acc += math.sqrt(i) * math.sin(i)
        cross = np.cross(self._points, self._points[::-1])
        np.unique(self._keys ^ int((cross[:, 0] > 0.0).sum()))
        return time.perf_counter() - start

    def _interrupt(self, signum, frame):
        global _paused
        if threading.active_count() > 1:
            return
        start = time.perf_counter()
        self._during.append(self.sample())
        _paused += time.perf_counter() - start

    def timed(self, fn):
        """Run ``fn`` with samples before, during and after it; return its
        result and the factor that turns its raw time into seconds at
        reference speed."""
        samples = self._during = [self.last]
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.last = self.sample()
        samples.append(self.last)
        return result, REFERENCE_S / statistics.median(samples)
