"""Speed-normalised timing on a machine whose CPU speed changes under load
from other tenants.

On a shared 2-core VM the same batch ran 1.7 times slower in some seconds
than in others, with the slow and fast phases switching every few seconds,
so raw wall times of identical work spread by more than any useful bound.
A probe kernel with the workloads' mix of small numpy solves and Python
bytecode slows down by the same factor.  It is timed from a SIGALRM handler
every PERIOD_S while a batch runs, and the batch's elapsed time is scaled to
the probe's reference speed:

    reference seconds = elapsed * mean(REF_PROBE_S / probe time)

The probe costs under 1 % of the run.  Reference seconds are comparable
with each other, not with wall seconds: inside a batch the probe runs slower
than on an idle core, so they read lower than the wall time.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.05
# probe time on an uncontended core of the reference machine (2.1 GHz Xeon VM)
REF_PROBE_S = 150e-6

_A = np.array([[2.0, 0.3, 0.1], [0.2, 1.5, 0.4], [0.1, 0.3, 1.8]])
_B = np.ones(3)


def probe():
    """Seconds one fixed mix of 3x3 solves and a Python loop takes now."""
    start = time.perf_counter()
    for _ in range(12):
        np.linalg.det(_A)
        np.linalg.solve(_A, _B)
    sum(i * i for i in range(600))
    return time.perf_counter() - start


def speed_factor(samples):
    """Mean of REF_PROBE_S / probe time: the machine's speed over the
    sampled interval, relative to the reference."""
    return float(np.mean(REF_PROBE_S / np.asarray(samples)))


class SpeedSampler:
    """Times the probe every PERIOD_S while active (a context manager)."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one period
            self.samples.append(probe())
        return False

    def reference_seconds(self, elapsed):
        return elapsed * speed_factor(self.samples)
