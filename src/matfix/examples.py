"""Bundled benchmark instances.

All four benchmarks share the 5x5 tridiagonal seed matrix with 2 on the
diagonal and 1 off it; coefficients are scaled copies of it.  Benchmark 4
ships with its right-hand side exactly as published, which is *not*
symmetric; solving it verbatim requires the raw (non-Hermitian) mode.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .perturbation import PerturbationSpec
from .solver import EquationInstance

Array = np.ndarray


def tridiagonal_seed(n: int = 5) -> Array:
    """The shared seed matrix: tridiagonal with 2 on and 1 off the diagonal."""
    return (
        2.0 * np.eye(n)
        + np.diag(np.ones(n - 1), 1)
        + np.diag(np.ones(n - 1), -1)
    )


def _scaled_seed(coefficient: float) -> Array:
    A = tridiagonal_seed()
    return (coefficient / linalg.spectral_norm(A)) * A


#: right-hand side of benchmark 4, exactly as published (not symmetric)
BENCHMARK4_Q = np.array(
    [
        [2.0, 1.0, 0.0, 9.0, 0.0],
        [1.0, 2.0, 1.0, 0.0, 8.0],
        [5.0, 1.0, 2.0, 1.0, 6.0],
        [9.0, 0.0, 1.0, 2.0, 1.0],
        [0.0, 2.0, 3.0, 1.0, 2.0],
    ]
)


def benchmark_instance(example: int, k: int = 1) -> EquationInstance:
    """Build benchmark instance 1..4; ``k`` only applies to benchmark 4."""
    if example == 1:
        return EquationInstance(
            A=[_scaled_seed(1.0 / 3.0 + 2e-2), _scaled_seed(1.0 / 4.0 + 2e-2)],
            Q=np.eye(5),
        )
    if example == 2:
        return EquationInstance(
            A=[_scaled_seed(1.0 / 3.0 + 2e-2), _scaled_seed(1.0 / 6.0 + 3e-2)],
            Q=np.eye(5),
        )
    if example == 3:
        return EquationInstance(
            A=[_scaled_seed(1.0 / 3.0 + 2e-2), _scaled_seed(1.0 / 6.0 + 3e-2)],
            Q=tridiagonal_seed(),
        )
    if example == 4:
        return EquationInstance(
            A=[
                _scaled_seed(1.0 / 3.0 + 2.0 * 10.0 ** (-k)),
                _scaled_seed(1.0 / 4.0 + 2.0 * 10.0 ** (-k)),
            ],
            Q=BENCHMARK4_Q,
        )
    raise ValueError(f"example must be 1..4, got {example}")


def benchmark4_symmetrized(k: int = 1) -> EquationInstance:
    """Benchmark 4 with the symmetric part of its right-hand side (fallback mode)."""
    raw = benchmark_instance(4, k)
    return EquationInstance(A=raw.A, Q=linalg.hermitian_part(raw.Q).real)


def benchmark2_delta_norms(j: int) -> tuple[float, float]:
    """Exact perturbation norms for benchmark 2 at decade j."""
    return 10.0 ** (-j), 3.0 * 10.0 ** (-j - 1)


def benchmark2_random_directions(rng: np.random.Generator, count: int) -> Array:
    """``count`` directions C^T + C of unit spectral norm for benchmark 2, shape
    (count, 5, 5): the Gaussian C that ``count`` single draws from ``rng`` make."""
    C = rng.standard_normal((count, 5, 5))
    S = C.swapaxes(-1, -2) + C
    return S / linalg.spectral_norm(S)[:, None, None]


def benchmark2_random_deltas(j: int, rng: np.random.Generator) -> PerturbationSpec:
    """One random perturbation draw for benchmark 2.

    The symmetrized Gaussian direction is rescaled so the two perturbation
    norms are exactly 10^-j and 3*10^-(j+1); every draw therefore produces
    identical norm-driven bounds, only the true error varies.
    """
    S = benchmark2_random_directions(rng, 1)[0]
    d1, d2 = benchmark2_delta_norms(j)
    return PerturbationSpec(dA=[d1 * S, d2 * S], dQ=np.zeros((5, 5)))


def benchmark2_deterministic_deltas(j: int) -> PerturbationSpec:
    """Fixed-direction perturbations with the exact benchmark-2 norms.

    The identity direction has unit spectral norm, so the norms (and hence
    all norm-driven bounds and feasibility values) match the random recipe
    exactly while staying seed-free.
    """
    d1, d2 = benchmark2_delta_norms(j)
    eye = np.eye(5)
    return PerturbationSpec(dA=[d1 * eye, d2 * eye], dQ=np.zeros((5, 5)))
