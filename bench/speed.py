"""Machine-speed sampling, to take the shared host's drift out of a timing.

A shared host can run two or more times slower for seconds to minutes
at a time, and process CPU time moves with wall time, so neither reads
steady from run to run.  A `Meter` runs a tiny fixed reference kernel
every INTERVAL seconds of a timed region, from a SIGALRM handler in the
timed process itself, and rescales the region's own time (the kernel's
time taken out) piece by piece:

    reference seconds = sum over pieces of  piece wall * REFERENCE_S / kernel time

where each piece of the region is paired with the kernel sample that
ends it.  A region that runs at the speed where the kernel takes
REFERENCE_S reads its wall time; the same region on a host running at
half speed reads about the same (code that slows more than the kernel
still reads somewhat slower).  A change to chronolab's code moves the
region's time and not the kernel's, so it shows in full.

The handler runs between Python bytecodes, so a long call into compiled
code defers the next sample; the piece before it is then rescaled by the
speed measured at its end.  One thread only, as in `chronolab run --jobs 1`.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL = 0.05  # seconds between kernel samples
REFERENCE_S = 1.0e-3  # kernel time that defines one reference second

_FLOATS = [float(i) for i in range(40000)]


def kernel() -> float:
    """Fixed interpreter work on boxed floats (about 1.3 MB of objects),
    the kind of work that dominates chronolab's per-sample Python code."""
    s = 0.0
    for v in _FLOATS:
        s += v * 0.5
    return s


class Meter:
    """Context manager: `wall` and `reference` seconds of the region inside."""

    def __init__(self):
        self.wall = 0.0
        self.reference = 0.0
        self._mark = 0.0  # end of the last sample (or start of the region)

    def _sample(self, *_):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.wall += t0 - self._mark
        self.reference += (t0 - self._mark) * REFERENCE_S / (t1 - t0)
        self._mark = perf_counter()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()  # the last piece is rescaled by the speed at its end
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def factor(self) -> float:
        """Reference seconds per wall second over the region."""
        return self.reference / self.wall if self.wall > 0 else 1.0
