"""A fixed reference computation that measures how fast the machine is now.

On a small shared machine the same replay can take twice as long a few
minutes later, because other tenants compete for the cores, caches and
memory. The benchmark therefore times this reference next to every replay
and reports times scaled to a fixed machine speed:

    scaled = wall time * REFERENCE_S / reference time measured alongside

The reference is benchmark-owned code and never changes with the program,
so a change to fedridge moves the scaled time exactly as it moves the wall
time at constant machine speed. Its four parts mirror the kinds of work a
replay does: interpreted Python, small numpy operations in a Python loop
(the hand-written kernels), row gathers with a tall-skinny Gram (the
oracle and client statistics), and dense BLAS (aggregation at d=256).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fixed scale, close to one `SpeedReference.measure()` on the reference
# machine (2-core Xeon VM, one BLAS thread), where it took 0.16-0.27 s.
REFERENCE_S = 0.2


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((96, 64))
        self.spd = a.T @ a + np.eye(64)
        self.features = rng.standard_normal((5000, 64)).astype(np.float32)
        self.rows = np.sort(rng.choice(5000, 4000, replace=False))
        self.dense = rng.standard_normal((256, 256))

    def _interpreter(self) -> float:
        total = 0.0
        for i in range(600_000):
            total += (i % 7) * 0.5
        return total

    def _small_ops(self) -> None:
        for _ in range(100):
            L = np.tril(self.spd)
            for j in range(64):
                L[j, j] = np.sqrt(L[j, j] - L[j, :j] @ L[j, :j])
                L[j + 1 :, j] = (L[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]

    def _memory(self) -> None:
        for _ in range(50):
            f = self.features[self.rows].astype(np.float64)
            f.T @ f

    def _blas(self) -> None:
        for _ in range(80):
            self.dense @ self.dense + self.dense

    def measure(self) -> float:
        """Seconds the reference takes right now."""
        start = perf_counter()
        self._interpreter()
        self._small_ops()
        self._memory()
        self._blas()
        return perf_counter() - start
