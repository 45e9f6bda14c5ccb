"""Machine-speed samples, so that timings hold still on a shared host.

On the two-core development host (Intel Xeon at 2.1 GHz, shared with
other tenants) the same `residuate` call on a 60-element table took from
0.69 s to 1.48 s within two minutes, with no CPU steal and with CPU time
equal to wall time: the cores themselves run slower while neighbours load
them.  A fixed reference kernel, timed every PERIOD_S seconds on SIGALRM
while commands run, samples that speed at the same moments.  A command's
time is then reported at the reference speed,

    (wall time - kernel time inside it) * REFERENCE_S / mean kernel time,

the mean taken over the samples from WINDOW_S before the command starts
to WINDOW_S after it ends.  On that host this cut the run-to-run spread
of one command from 0.19-0.29 to 0.06-0.07 of its median (quartile
distance), for law scans and for SVD-bound batteries alike.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

REFERENCE_S = 0.0035  # the kernel's median time on the development host
PERIOD_S = 0.1
WINDOW_S = 0.5

_TABLE = np.minimum.outer(np.arange(16), np.arange(16))
_MATRIX = np.random.default_rng(0).standard_normal((24, 48))


def kernel() -> int:
    """Interpreter-bound index arithmetic like the law scans, plus a few
    small SVDs like the subspace engine's."""
    t, hits = _TABLE, 0
    for x in range(16):
        for y in range(16):
            for z in range(8):
                hits += t[x, t[y, z]] == t[t[x, y], z]
    for _ in range(5):
        np.linalg.svd(_MATRIX, full_matrices=False)
    return int(hits)


class SpeedSampler:
    """Kernel timings as (start, duration) pairs in perf_counter time,
    taken on demand and, inside `with sampler:`, every PERIOD_S seconds."""

    def __init__(self):
        self.starts, self.durations = [], []
        self._previous = None
        self._busy = False

    def sample(self):
        if self._busy:  # an alarm during a sample: keep the starts in order
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, a, b):
        return self.durations[bisect.bisect_left(self.starts, a):bisect.bisect_left(self.starts, b)]

    def scaled(self, start, end) -> float:
        """Seconds from start to end, kernel samples inside excluded, at
        the reference speed."""
        near = self._between(start - WINDOW_S, end + WINDOW_S)
        if not near:
            raise RuntimeError("no speed sample near a timed interval")
        return (end - start - sum(self._between(start, end))) * REFERENCE_S * len(near) / sum(near)
