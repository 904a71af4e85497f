"""Speed calibration: every reported time is in reference seconds.

On shared machines the CPU's speed changes for seconds to minutes at a
time, as other tenants load the host. A fixed numpy kernel of small
symmetric eigenproblems, one SVD and a pure-Python loop was seen to take
0.011 s in the fast state and 0.016 s in the slow one, and whole 30 s
runs of the workloads fell in one state or the other, so no median over
a run's own rounds removes it.

The kernel does not touch lsicert. It runs before the first op of a
round and after every op. An op's measured time is multiplied by
REF_S / k, where k is the mean of the kernel times just before and just
after it. Over ten seeds per workload on a two-core VM this cut the
spread (interquartile range over median) of wall_s from 0.15-0.42 to
0.05-0.08.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time in the fast state of the machine the benchmark was defined
# on (Intel Xeon, 2 vCPUs, OpenBLAS 0.3.31 on one thread).
REF_S = 0.011


class Kernel:
    """A fixed workload whose duration measures the machine's speed now."""

    ref_s = REF_S

    def __init__(self):
        rng = np.random.default_rng(12345)
        sym = rng.standard_normal((64, 64))
        self._sym = sym + sym.T
        self._rect = rng.standard_normal((160, 160))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.eigvalsh(self._sym)
        np.linalg.svd(self._rect, compute_uv=False)
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - t0

    def factor(self, repeats: int = 3) -> float:
        """REF_S over the median of a few kernel times."""
        times = sorted(self() for _ in range(repeats))
        return self.ref_s / times[len(times) // 2]
