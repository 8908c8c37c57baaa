"""Machine-speed calibration for the untraced run.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds: on the 2-vCPU machine of the seed figures, 20-second
medians of one fixed loop had an interquartile range of 0.19-0.3 of their
median.  A fixed snippet that does the same kind of work as schurkit's hot
loops (products of Fraction coefficients keyed by exponent tuples) is timed
just before and just after every op, and every PERIOD_S during the op from
a SIGALRM handler.  An op's latency is scaled by REF_S / mean(samples): the
op's time integrates the slowdown over its duration, and the mean of
samples spread evenly over that duration estimates the same average (the
median does not: it ignores how slow the slow phases were).  For short ops
the samples of the previous few ops are pooled in as well.  The reported
figures are thus seconds at the speed where the snippet takes REF_S.  The
snippet uses only the standard library, so a change to schurkit cannot
move it.  Handler time is subtracted from the op's latency by the caller.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

#: snippet duration that defines the reference speed (its median on the
#: machine of the seed figures)
REF_S = 2.0e-3
#: sampling period during an op
PERIOD_S = 0.2
#: samples kept from the ops before the current one
HISTORY = 4

_LEFT = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
_RIGHT = {(j, i, (i + j) % 2): Fraction(j - 3, i + 4) for i in range(5) for j in range(4)}


def _snippet():
    out = {}
    for ea, x in _LEFT.items():
        for eb, y in _RIGHT.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc = out.get(key)
            out[key] = x * y if acc is None else acc + x * y
    return out


class Calibration:
    def __init__(self):
        self.samples: list[float] = []
        self.history: deque[float] = deque(maxlen=HISTORY)
        self.handler_s = 0.0
        self.factor = 1.0
        self._previous = None

    def sample(self) -> float:
        """Time the snippet once, with the collector off so that it never
        pays for a collection of the op's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _snippet()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.sample())
        self.handler_s += time.perf_counter() - start

    def begin(self):
        """Sample once, then every PERIOD_S until `end`."""
        self.samples = [self.sample()]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def end(self) -> float:
        """Stop sampling, sample once more and set `factor`; returns the
        clock reading taken when the timer stopped, for the caller's
        elapsed time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        stopped = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self.sample())
        self.factor = REF_S / statistics.fmean([*self.history, *self.samples])
        self.history.extend((self.samples[0], self.samples[-1]))
        return stopped
