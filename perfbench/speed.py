"""Speed-calibrated timing of a block of code.

On a shared host the same code runs at changing speeds: on a 2-vCPU KVM
guest, one vCPU switched between two speeds about 2x apart, in episodes of
one to tens of seconds, while the guest saw no steal time.  So the wall
time of a call says as much about the host as about the program.

`Calibrated` times a block and, every INTERVAL_S of wall time (plus once on
entry and once on exit), runs a fixed unit of interpreter work in the same
thread from a SIGALRM handler and times it.  Samples are even in wall time,
so the mean of REF_UNIT_S / unit time over them is the block's mean speed
relative to a reference CPU on which one unit takes REF_UNIT_S.  `seconds`
is the block's own wall time, without the samples inside it, times that
speed: the time the block would take on the reference CPU.

Only the standard library is used, so a fresh process can start timing
before it imports numpy.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.05
# One unit takes about this long on a 2.0 GHz Xeon vCPU at its fast speed,
# interleaved with the program's own work.
REF_UNIT_S = 3e-4


def unit() -> float:
    """A fixed piece of interpreter work: float math and dict stores."""
    x, d = 0.0, {}
    for i in range(1500):
        x += math.sin(i * 0.001) * 1.0001
        d[i & 63] = x
    return x


class Calibrated:
    """Context manager: `with Calibrated() as c: ...` then `c.wall`,
    `c.units` and `c.seconds`.  Main thread only."""

    def __enter__(self):
        self.units = []
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._t0
        self._sample()
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def _sample(self, *_):
        t0 = time.perf_counter()
        unit()
        self.units.append(time.perf_counter() - t0)

    @property
    def speed(self) -> float:
        """Mean speed over the block, relative to the reference CPU."""
        return statistics.fmean(REF_UNIT_S / u for u in self.units)

    @property
    def seconds(self) -> float:
        """Wall time of the block without the samples inside it, at the
        reference speed."""
        return (self.wall - math.fsum(self.units[1:-1])) * self.speed
