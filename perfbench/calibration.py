"""Host-speed calibration for the benchmark.

The benchmark shares its host with other processes, which change the speed
of every kind of work by up to half within a second.  Fixed reference kernels
that use no spacefill code are timed before every operation, after the last
one of a pass, and every INTERVAL_S while an operation runs (from a SIGALRM
handler whose time is taken out of the operation's).  An operation's time is
then scaled by ``REFERENCE_S / mean kernel time`` of the samples taken while
it ran, or of the two around it if it was too short for one, so it reads as
seconds at the host speed the reference was taken at.  A change to the
library cannot move the kernels, so the scaled times still show it.  Raw
times and the factors are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.spatial.distance import cdist

# Mean time of one ``Calibration.sample`` on the 2-core Intel Xeon host the
# benchmark was defined on, when it was quiet (Python 3.11, NumPy 2.4,
# SciPy 1.17).
REFERENCE_S = 0.0114
# Seconds between the samples taken while an operation runs.
INTERVAL_S = 0.2


class Calibration:
    """Each kernel mirrors one kind of work the workloads do: a per-point
    Python callable, scalar RNG draws, a full n x n distance matrix,
    chunked candidate-to-selection distances, and 17-digit CSV formatting
    and parsing."""

    def __init__(self):
        rs = np.random.default_rng(12345)
        self.pts2 = rs.random((300, 2))
        self.pts10 = rs.random((700, 10))
        self.cands = rs.random((256, 4))
        self.sel = rs.random((600, 4))
        self.rows = rs.random((300, 4))
        self.gen = np.random.Generator(np.random.PCG64(1))
        # Preallocated, and the text is made a row at a time: a sample taken
        # inside an operation must not leave C heap blocks between the
        # operation's own, which raised its peak memory by up to 15 MB.
        self.square = np.empty((700, 700))
        self.block = np.empty((256, 600))
        self.nearest = np.empty(256)

    def sample(self) -> float:
        """Seconds one run of every kernel takes."""
        t0 = perf_counter()
        acc = 0.0
        for p in self.pts2:
            acc += bool(p[1] >= 3.0 * (p[0] - 0.5) ** 2)
            acc += float(np.exp(-20.0 * float(((p - 0.5) ** 2).sum())))
        for _ in range(600):
            acc += self.gen.random(2)[0]
        acc += cdist(self.pts10, self.pts10, "sqeuclidean", out=self.square).min()
        for _ in range(6):
            cdist(self.cands, self.sel, "sqeuclidean", out=self.block)
            acc += np.min(self.block, axis=1, out=self.nearest).sum()
        for row in self.rows:
            line = ",".join(f"{v:.17g}" for v in row)
            acc += sum(float(c) for c in line.split(","))
        return perf_counter() - t0

    @contextmanager
    def during(self):
        """Sample every INTERVAL_S while the block runs, from a SIGALRM
        handler; yields the list of (sample seconds, handler seconds) that
        the handler fills, so the caller can take the handler's time out of
        the block's."""
        taken = []

        def on_alarm(signum, frame):
            t0 = perf_counter()
            sample = self.sample()
            taken.append((sample, perf_counter() - t0))

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def factor(self, samples) -> float:
        """Scale from raw seconds to seconds at the reference host speed."""
        return REFERENCE_S * len(samples) / sum(samples)
