"""Machine-speed calibration for a shared host.

On a host shared with other tenants the speed of one core drifts by 20-30%
in spells that last seconds to minutes.  A fixed kernel that does not use
funcusum (small matrix products in a Python loop, a symmetric
eigendecomposition, float formatting through the csv module, and plain
integer arithmetic, the same mix of work as the pipeline) is timed between
the benchmark's operations.  Its mean time near an operation, divided by
REFERENCE_MS, is the host's slowness at that moment; the benchmark divides
each operation's time by it, which puts all runs on the scale of a host
where the kernel takes REFERENCE_MS.  The kernel runs only between
operations, never inside a timed one, so a faster or slower funcusum
cannot change it.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

# A round figure near the kernel's median time on the shared 2-core x86-64
# host the benchmark was defined on (OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_MS = 10.0
LOCAL_WINDOW_S = 2.0


class Calibration:
    """Times the fixed kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20141407)
        self._step = 0.05 * rng.normal(size=(25, 25))
        self._shocks = rng.normal(size=(800, 25))
        self._rows = rng.normal(size=(30, 96))
        self.samples_ms: list[float] = []
        self.times: list[float] = []

    def _kernel(self) -> None:
        state = np.zeros(25)
        for shock in self._shocks:
            state = self._step @ state + shock
        np.linalg.eigh(self._shocks.T @ self._shocks)
        writer = csv.writer(io.StringIO())
        for row in self._rows:
            writer.writerow([repr(v) for v in row.tolist()])
        acc = 0
        for i in range(50_000):
            acc += i * i

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples_ms.append(1e3 * (time.perf_counter() - start))
        self.times.append(start)

    def clear(self) -> None:
        self.samples_ms.clear()
        self.times.clear()

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms)

    def slowness(self) -> float:
        """This run's host speed relative to the reference (>1 is slower).

        The mean, not the median: the host flips between a fast and a slow
        state many times a second, so a short kernel's median lands on one
        state, while its mean follows the time-averaged speed that the
        operations see."""
        return self.mean_ms() / REFERENCE_MS

    def local_slowness(self, at: float) -> float:
        """Slowness from the samples within LOCAL_WINDOW_S of time `at`.

        Each operation's time is scaled by this, not by the run-wide
        factor: slow spells last seconds, so a run-wide factor corrects the
        mean but not the tail they add to the latency percentiles."""
        near = [ms for t, ms in zip(self.times, self.samples_ms)
                if abs(t - at) <= LOCAL_WINDOW_S]
        if not near:
            return self.slowness()
        return statistics.fmean(near) / REFERENCE_MS
