"""Reference kernels that track the machine's speed while the benchmark runs.

On the shared 2-core VM this benchmark was written on, the same
interpreter-bound loop takes anywhere from 1x to 2.3x its best time, in
phases lasting from seconds to over a minute, while a large LAPACK call
slows by far less.  Neither kernel below touches ncfield: one is
interpreter-bound exact arithmetic, the other one dense complex SVD.  Timed
around every op, the kernel that matches a workload's dominant code turns
the op's latency into reference-speed time:

    latency * NOMINAL_S / (kernel time measured around the op)

On a quiet machine the kernel time is constant, so this is the raw latency
times a fixed factor.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Kernel times at this machine's fast phase (2.0 GHz Xeon, 2 vCPUs,
# OpenBLAS with 2 threads); they only fix the unit of the scaled times.
NOMINAL_S = {"python": 0.6e-3, "blas": 0.35e-3}

_SVD_INPUT = np.random.default_rng(20261017).standard_normal((64, 64)) * (1 + 1j)


def _python_kernel() -> None:
    x = Fraction(1)
    for i in range(1, 120):
        x = (x * Fraction(i + 1, i) + Fraction(1, i)) % 7


def _blas_kernel() -> None:
    np.linalg.svd(_SVD_INPUT, compute_uv=False)


_KERNELS = {"python": _python_kernel, "blas": _blas_kernel}


def measure(kernel: str) -> float:
    """Best of two runs of the named kernel, in seconds."""
    run = _KERNELS[kernel]
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best
