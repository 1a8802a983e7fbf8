"""Reference kernel: converts wall time into reference seconds.

On the shared 2-vCPU Xeon virtual machine this benchmark was defined on,
speed changes by 10-20% over tens of seconds, for reasons outside the
process (CPU time moves with wall time, so it is not preemption).  A fixed
numpy kernel timed right after each task slows down with it, so the ratio
task / kernel is steady where the raw wall time is not.  The kernel has
three parts, so that it slows down the way the workloads do: n=5 numpy
calls bound by call overhead, like paper-small and the solver's
iterations; n=48 LAPACK calls with a Python loop, like the CLI and solver
workloads; and n=256 dense factorisations, like analyze-dense.  Reported
times are that ratio times ``NOMINAL_S``, the kernel's typical wall time on
that machine (OpenBLAS on 1 thread), so they read as seconds there.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.045


class Kernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.tiny = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        self.tiny_hermitian = self.tiny + self.tiny.conj().T + 10.0 * np.eye(5)
        self.small = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.hermitian = self.small + self.small.conj().T + 100.0 * np.eye(48)
        self.wide = rng.standard_normal((256, 768))
        self.square = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def __call__(self) -> float:
        """Wall time of one kernel run, in seconds."""
        t0 = time.perf_counter()
        for _ in range(150):
            np.linalg.solve(self.tiny_hermitian, self.tiny)
            np.linalg.eigvalsh(self.tiny_hermitian)
            np.linalg.svd(self.tiny, compute_uv=False)
        for _ in range(20):
            np.linalg.solve(self.hermitian, self.small)
            np.linalg.eigvalsh(self.hermitian)
            np.linalg.svd(self.small, compute_uv=False)
            total = 0
            for i in range(2000):
                total += i
        np.linalg.svd(self.wide, compute_uv=False)
        np.linalg.inv(self.square)
        return time.perf_counter() - t0
