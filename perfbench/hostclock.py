"""Time measured at the speed of a reference host.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.9x within seconds and for minutes at a time, so raw wall time
measures the neighbours as much as chaoslab.  A HostClock corrects for
that: every PERIOD_S seconds a SIGALRM handler times a short fixed
reference kernel (exact Fraction and float arithmetic, the mix chaoslab's
hot paths run).  The stretch between two ticks is taken to run at the mean
speed of the two ticks and is rescaled to the speed at which the kernel
takes REF_NOMINAL_S; time spent in the handler is dropped.  A second of
reference-host time is therefore a fixed amount of interpreter work, and a
change to chaoslab moves it as it moves wall time on a quiet host.

    with HostClock() as clock:
        start = perf_counter(); work(); end = perf_counter()
    clock.seconds(start, end)   # reference-host seconds

Stamps are converted after the block ends, because a stretch needs the
tick that closes it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
REPEATS = 3
REF_NOMINAL_S = 0.001


def reference_kernel():
    x = 0.0
    for i in range(1, 30):
        s = Fraction(0)
        for j in range(1, 9):
            s += Fraction(i, j * j + i)
        x = x * 0.5 + float(s)
    return x


def reference_time():
    """Median seconds of REPEATS runs of the reference kernel."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def rescale(seconds, ref_before, ref_after):
    """Seconds measured between two reference timings, at reference speed."""
    return seconds * 2 * REF_NOMINAL_S / (ref_before + ref_after)


class HostClock:
    """Piecewise-linear map from perf_counter stamps to reference-host seconds."""

    def __init__(self):
        self._marks = []  # (handler start, handler end, reference seconds)
        self._knots = None
        self._values = None

    def __enter__(self):
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        self._build()

    def _tick(self, *_signal):
        start = perf_counter()
        ref = reference_time()
        self._marks.append((start, perf_counter(), ref))

    def _build(self):
        knots, values = [self._marks[0][1]], [0.0]
        for (_, end, ref), (start_next, end_next, ref_next) in zip(self._marks, self._marks[1:]):
            values.append(values[-1] + rescale(start_next - end, ref, ref_next))
            knots.append(start_next)
            values.append(values[-1])
            knots.append(end_next)
        self._knots, self._values = knots, values

    def _at(self, t):
        knots, values = self._knots, self._values
        i = bisect.bisect_right(knots, t)
        if i == 0:
            return values[0]
        if i == len(knots):
            return values[-1]
        t0, t1 = knots[i - 1], knots[i]
        if t1 == t0:
            return values[i]
        return values[i - 1] + (values[i] - values[i - 1]) * (t - t0) / (t1 - t0)

    def seconds(self, start, end):
        return self._at(end) - self._at(start)

    def ticks(self):
        return len(self._marks)

    def reference_s(self):
        return [ref for _, _, ref in self._marks]
