"""The speed of the machine, sampled while a measurement runs.

On a shared host the speed of a core drifts by tens of percent over
minutes and by about 20 % within a second, alike for the interpreter and
for numpy.  A fixed pure-Python kernel, which shares no code with the
program, is timed 50 times a second from a SIGALRM handler during the
measurement.  Multiplying a measured duration by ``factor()``, the
reference kernel time over the mean sampled one, expresses it in
reference seconds: seconds on a machine where the kernel takes
``REFERENCE_S``.  A unit call's latency is scaled by the speed sampled
within ``LOCAL_S`` of it, which also takes out the faster fluctuation.
Measured on the 2-core host the benchmark was built on,
this held a run's throughput within about 5 % while its raw throughput
moved by 50 %.  The handler's own time is subtracted by ``clock()``.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

REFERENCE_S = 250e-6  # typical kernel time on the 2-core 2.1 GHz build host
INTERVAL_S = 0.02
LOCAL_S = 0.25  # margin around a unit call for its own speed estimate


class _Dual:
    """A first-order dual number: small-object arithmetic like the
    program's jets, without using them."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)


def kernel():
    j, k = _Dual(1.0, 0.5), _Dual(0.999, 0.1)
    for _ in range(300):
        j = j * k + k
    return j


class SpeedSampler:
    def __init__(self):
        self.samples = []
        self.times = []  # clock() at each sample
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0 - self.stolen)
        self.samples.append(t1 - t0)
        self.stolen += t1 - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def bracket(self, seconds):
        """Sample back to back for ``seconds``, outside any measurement."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    def clock(self):
        """perf_counter without the time spent sampling."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def factor(self, since=0):
        """Reference seconds per measured second, from the samples taken
        after the first ``since``."""
        return REFERENCE_S / statistics.fmean(self.samples[since:])

    def local_factors(self, starts, durations, since=0):
        """The factor for each interval (start, duration) of the clock,
        from the samples taken within ``LOCAL_S`` of it."""
        times = self.times[since:]
        total = [0.0, *itertools.accumulate(self.samples[since:])]
        out = []
        for start, duration in zip(starts, durations):
            lo = bisect.bisect_left(times, start - LOCAL_S)
            hi = bisect.bisect_right(times, start + duration + LOCAL_S)
            out.append(REFERENCE_S * (hi - lo) / (total[hi] - total[lo])
                       if hi > lo else self.factor(since))
        return out
