"""Machine-speed probe: a fixed kernel timed between operations.

The box the benchmark was written on is shared, and its speed drifts by
about +-20% over tens of seconds (a fixed pure-Python loop measured 17 to
25 ms in successive 3-second windows).  One run of a workload then lands in
a fast or a slow phase, and its timings spread far wider than any useful
regression bound.

So every operation is bracketed by two probes of a fixed kernel (small
numpy calls in a Python loop, pure interpreter work, and one array pass,
like the package's own mix), and its time is reported at reference speed:
``raw * REFERENCE_S / mean(probe before, probe after)``.  On that box this
took the spread of 10-second medians of one campaign operation from 0.28
to 0.05 (quartile distance over median).  Raw times are printed as well.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time that defines reference speed; about the kernel's median time
# on the 2-core box above, so scaled and raw times stay close there.
REFERENCE_S = 0.0042
PROBE_REPEATS = 5


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._vectors = rng.standard_normal((24, 16)) + 1j * rng.standard_normal((24, 16))
        self._block = rng.standard_normal((64, 64, 64)) + 1j * rng.standard_normal((64, 64, 64))
        # Written in place: a fresh 4 MB temporary would be mapped anew each
        # time, and its page faults cost more right after a memory-heavy
        # operation, which made the probe time bimodal.
        self._product = np.empty_like(self._block)

    def _kernel(self):
        basis = []
        for row in self._vectors:
            v = row.copy()
            for _ in range(2):
                for q in basis:
                    v -= np.vdot(q, v) * q
            basis.append(v / np.linalg.norm(v))
        acc = 0
        for i in range(30000):
            acc += i % 7
        np.multiply(self._block, self._block[::-1], out=self._product)
        self._product.sum(axis=-1)
        return acc

    def measure(self) -> float:
        """Median time of a few kernel runs, in seconds."""
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def at_reference_speed(raw_s: float, probe_before: float, probe_after: float) -> float:
    return raw_s * REFERENCE_S * 2.0 / (probe_before + probe_after)
