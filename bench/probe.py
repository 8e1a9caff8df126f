"""Host speed probe: scales the end-to-end times to a fixed host speed.

The host's CPU speed drifts.  One process can see the same pass of
verdicts take 1.6 s or 2.8 s within a minute, and whole runs a few
minutes apart are fast or slow together; CPU time tracks wall time, so
the process is not waiting, the CPU is slower.  No estimator inside one
run (median pass, fastest pass, fastest repetition) removes that.

A `Probe` runs a fixed kernel of Fraction and numpy arithmetic, written
apart from rnlie, from a SIGALRM handler every INTERVAL_S of wall time,
so that it samples the host's speed while the verdicts run, long ones
included.  `clock()` is perf_counter without the time spent in the
handler, so timing with it leaves the probe out.  `factor(since, until)`
is the mean kernel time in that window over REFERENCE_S: a time divided
by it is the time the work would take on a host where the kernel takes
REFERENCE_S.  `scale` divides a verdict's time by the factor of the
samples within WINDOW_S of it.
"""

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
WINDOW_S = 1.0
# a kernel time in the middle of its range on a 2.0 GHz Xeon VM (2.8 ms
# when the host is calm, 5.5 ms when it is busy), Python 3.11
REFERENCE_S = 0.004

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((6, 6))
_G = _rng.standard_normal((5, 5))
_C = _rng.standard_normal((5, 5, 5))


def kernel():
    """Fixed work like the three kinds rnlie does: a Fraction sum whose
    denominators grow, a chain of small matrix products, and the dense
    four-operand einsum of a change of basis of a 5-dimensional bracket."""
    x = Fraction(0)
    for i in range(1, 300):
        x += Fraction(i % 97 + 1, (i * 7) % 101 + 1) * Fraction(3, i % 13 + 1)
    b = _A
    for _ in range(120):
        b = np.tanh(b @ _A)
    for _ in range(7):
        c = np.einsum("pi,qj,kr,pqr->ijk", _G, _G, _G, _C)
    return x, b, c


class Probe:
    def __init__(self):
        self.ends = []      # perf_counter at the end of each sample
        self.samples = []   # the kernel's seconds in each sample
        self.spent = 0.0    # seconds spent in the handler so far

    def _tick(self, signum=None, frame=None):
        # no collection inside the kernel: its garbage is the program's
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def start(self):
        self._tick()  # so that every window has a sample to fall back on
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        return perf_counter() - self.spent

    def factor(self, since=float("-inf"), until=float("inf")):
        """Mean kernel time of the samples taken in [since, until] (of all
        samples, if none fell in it), over REFERENCE_S."""
        lo = bisect.bisect_left(self.ends, since)
        hi = bisect.bisect_right(self.ends, until)
        return statistics.fmean(self.samples[lo:hi] or self.samples) / REFERENCE_S

    def scale(self, seconds, start, end):
        """`seconds` of work done between `start` and `end` (perf_counter
        times), at the reference host speed."""
        return seconds / self.factor(start - WINDOW_S, end + WINDOW_S)
