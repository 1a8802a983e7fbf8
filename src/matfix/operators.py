"""Sensitivity operators at a solved instance.

With B_i = X^-1 A_i, the linear operator L maps W to W + sum(B_i* W B_i);
its n^2 x n^2 matrix representation under column-major vec is

    L_rep = I + sum(kron(B_i^T, B_i*)).

The operators P_i map Z to L^-1(B_i* Z + Z* B_i); their representations are

    P_i_rep = L_rep^-1 (kron(I, B_i*) + kron(B_i^T, I) Pi),

with Pi the vec-permutation.  Neither Kronecker factor is formed as a
matrix: kron(I, B_i*) is block diagonal and kron(B_i^T, I) Pi only
rearranges entries, so both products with L_rep^-1 are batched n x n
products on L_rep^-1 reshaped to (n^2, n, n), O(n^5) instead of the O(n^6)
of dense n^2 x n^2 matmuls (see :func:`_structured_products`, shared with
the condition numbers).  The bundle keeps L_rep^-1, which
:func:`build_bundle` needs anyway, next to L_rep, so the condition numbers
and the first-order change invert nothing again.  The scalar surrogates
bundled here are the ingredients of the operator-based perturbation bound
and the condition numbers, all spectral norms computed by
:func:`matfix.linalg.spectral_norm`:

* ``l``        reciprocal of the spectral norm of L_rep.  This lower-bounds
               the true inverse-operator norm surrogate ||L^-1||^-1 in any
               submultiplicative norm (||L|| * ||L^-1|| >= 1), so using it
               keeps the downstream bound valid, and it reproduces the
               reference feasibility values.  The smallest singular value of
               L_rep would not: it can overshoot the Hermitian-restricted
               operator norm.
* ``n_ops[i]`` largest singular value of P_i_rep.
* ``theta_is`` spectral norms of the B_i; ``theta`` is the sum of squares.
* ``zeta``     spectral norm of X^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import SingularMatrix, SingularOperator
from .solver import EquationInstance

Array = np.ndarray


@dataclass(frozen=True)
class OperatorBundle:
    B: tuple[Array, ...]
    L_rep: Array
    L_inv: Array
    Pi_reps: tuple[Array, ...]
    l: float
    n_ops: tuple[float, ...]
    theta_is: tuple[float, ...]
    theta: float
    zeta: float
    norm_kind: str = field(
        default="dense-exact: reciprocal spectral(L), spectral(P_i) via scaled Gram eigenvalue"
    )

    @property
    def m(self) -> int:
        return len(self.B)

    @property
    def n(self) -> int:
        return self.B[0].shape[0] if self.B else int(np.sqrt(self.L_rep.shape[0]))


def l_representation(B: tuple[Array, ...], n: int) -> Array:
    """I + sum(kron(B_i^T, B_i*)); acts on vec(W) as vec(W + sum B_i* W B_i)."""
    L = np.eye(n * n, dtype=complex)
    for Bi in B:
        L = L + linalg.kron(Bi.T, Bi.conj().T)
    return L


def _structured_products(L_inv: Array, B: Array) -> tuple[Array, Array]:
    """L_inv @ kron(I, B*) and L_inv @ kron(B^T, I) @ Pi without forming either factor.

    Row s of L_inv, read as the n x n matrix R_s with entry (j, p) at column
    j*n + p, maps to R_s B* under the block-diagonal kron(I, B*) and to
    R_s^T B^T under kron(B^T, I) Pi, both read back the same way.
    """
    N, n = L_inv.shape[0], B.shape[0]
    return (
        (L_inv.reshape(N * n, n) @ B.conj().T).reshape(N, N),
        (L_inv.reshape(N, n, n).transpose(0, 2, 1) @ B.T).reshape(N, N),
    )


def build_bundle(instance: EquationInstance, X: Array) -> OperatorBundle:
    """Assemble operator representations and scalar surrogates at the solution X.

    X is expected to be the (near-)converged positive definite solution; a
    singular L representation signals that it is not, and raises
    :class:`SingularOperator`.
    """
    X = np.asarray(X, dtype=complex)
    n = X.shape[0]
    Xinv = linalg.inverse(X)
    B = tuple(Xinv @ Ai for Ai in instance.A)

    L_rep = l_representation(B, n)
    s_max = linalg.spectral_norm(L_rep)
    try:
        L_inv = linalg.inverse(L_rep)
        s_min = 1.0 / linalg.spectral_norm(L_inv)
    except SingularMatrix:  # the inverse failed or is not finite
        s_min = 0.0
    if s_min <= n * n * np.finfo(float).eps * s_max:
        raise SingularOperator(
            f"L representation singular to working precision (s_min={s_min:.3e}); "
            "X does not look like a valid solution"
        )
    # trace(L_rep) >= n^2 forces ||L_rep|| >= 1, so l <= 1 <= 1 + theta.
    l = 1.0 / s_max

    Pi_reps = tuple(np.add(*_structured_products(L_inv, Bi)) for Bi in B)
    n_ops = tuple(linalg.spectral_norm(Pi) for Pi in Pi_reps)
    theta_is = tuple(linalg.spectral_norm(Bi) for Bi in B)
    theta = float(sum(t * t for t in theta_is))
    zeta = linalg.spectral_norm(Xinv)
    return OperatorBundle(
        B=B,
        L_rep=L_rep,
        L_inv=L_inv,
        Pi_reps=Pi_reps,
        l=l,
        n_ops=n_ops,
        theta_is=theta_is,
        theta=theta,
        zeta=zeta,
    )


def apply_l(bundle: OperatorBundle, W: Array) -> Array:
    """L acting directly on a matrix: W + sum(B_i* W B_i)."""
    return linalg.apply_l(bundle.B, W)


def solve_l(bundle: OperatorBundle, RHS: Array) -> Array:
    """Solve L(V) = RHS through the vec representation."""
    n = RHS.shape[0]
    v = bundle.L_inv @ linalg.vec(RHS)
    return linalg.unvec(v, n)
