"""How fast the host runs right now, from a fixed reference kernel.

The benchmark runs on shared virtual machines whose speed drifts by 30%
and more over seconds to minutes (a fixed loop of pure Python varies as
much), so two runs of the same code can differ more than any useful
bound.  ``HostSpeed`` times a small kernel that does not touch
``ppscontext`` but has the pipeline's instruction mix (small complex
matrix products, a Hermitian eigensolve, dict and tuple work), every
INTERVAL_S seconds, and gives the factor that scales a time measured now
to the time it would take when the kernel runs in NOMINAL_S.  Measured
on the baseline host, op time divided by kernel time varied by 3% over a
minute-and-a-half window where the raw op time varied by 12-16%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Reference-kernel time on the baseline host (2-core Xeon VM, Python
#: 3.11, numpy 2.4, one BLAS thread) at its usual speed.
NOMINAL_S = 4.0e-3
#: Seconds between two measurements of the kernel.
INTERVAL_S = 0.5
#: Kernel timings per measurement; their median is used.
REPEATS = 3
_ROUNDS = 150


class HostSpeed:
    """Scale factor NOMINAL_S / (current kernel time), re-measured every
    INTERVAL_S seconds of wall time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        self._h = self._a + self._a.conj().T
        self._measured_at = float("-inf")
        self._scale = 1.0

    def _kernel(self) -> dict:
        table = {}
        for i in range(_ROUNDS):
            b = self._a @ self._a
            skew = float(np.max(np.abs(b - b.conj().T)))
            w = np.linalg.eigvalsh(self._h)
            table[(i, round(skew, 6))] = float(w[0])
        return table

    def kernel_s(self) -> float:
        """Median time of REPEATS runs of the kernel."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def scale(self) -> float:
        if perf_counter() - self._measured_at >= INTERVAL_S:
            self._scale = NOMINAL_S / self.kernel_s()
            self._measured_at = perf_counter()
        return self._scale
