"""Host-speed probe, run inside each timed child process.

On a shared host the speed of one vCPU can swing by up to 2x for tens of
seconds at a time, presumably with the load of other tenants on the same
physical core, and no run length averages that away.  So the child samples its own speed while it works: a
SIGALRM timer runs a fixed snippet of interpreter work (dict inserts,
function calls, a sort) every PERIOD_S seconds on the main thread, the
thread that runs the program, and records how long the snippet took.

`Probe.scale(a, b)` is the time-weighted mean of REF_S / snippet time over
the samples taken between clock readings a and b.  A wall interval
multiplied by it is that interval in reference-host seconds: what it would
have taken with the snippet running at REF_S.  The snippet costs about 1%
of the child's time.
"""

from __future__ import annotations

import signal
import time

# The snippet's time on an uncontended 2-vCPU Xeon host (Python 3.11).
REF_S = 0.2e-3
PERIOD_S = 0.025


def _step(k: int) -> int:
    return k + 1 if k & 1 else k // 2


def _snippet() -> None:
    d = {}
    for k in range(400):
        d[(k, k & 7)] = _step(k)
    sorted(d.items(), key=lambda kv: -kv[1])


class Probe:
    def __init__(self):
        self.samples = []      # (clock at start, seconds taken)

    def tick(self, *_args) -> None:
        t0 = time.perf_counter()
        _snippet()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, a: float, b: float) -> float:
        """Time-weighted mean speed over [a, b], linear between samples: a
        long C call (a BLAS product, an SVD) delays the next sample, and the
        gap takes the mean of the samples on either side of it.  The caller
        ticks just before reading b, so [a, b] holds a sample."""
        pts = [(t, REF_S / dt) for t, dt in self.samples if a <= t <= b]
        area = (pts[0][0] - a) * pts[0][1] + (b - pts[-1][0]) * pts[-1][1]
        for (t0, s0), (t1, s1) in zip(pts, pts[1:]):
            area += (t1 - t0) * (s0 + s1) / 2
        return area / (b - a)
