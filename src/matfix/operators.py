"""Sensitivity operators at a solved instance.

With B_i = X^-1 A_i, the linear operator L maps W to W + sum(B_i* W B_i);
its n^2 x n^2 matrix representation under column-major vec is

    L_rep = I + sum(kron(B_i^T, B_i*)).

The operators P_i map Z to L^-1(B_i* Z + Z* B_i); their representations are

    P_i_rep = L_rep^-1 (kron(I, B_i*) + kron(B_i^T, I) Pi),

with Pi the vec-permutation.  Neither Kronecker factor is formed as a
matrix: both products with L_rep^-1 are batched n x n products on L_rep^-1
reshaped to (n^2, n, n), O(n^5) instead of the O(n^6) of dense matmuls
(see :func:`_structured_products`, shared with the condition numbers).
L_rep and the P_i_rep are locals of :func:`build_bundle`, each dropped as
soon as it is used; the bundle keeps B and L_rep^-1, its one dense array,
which the condition numbers and the first-order change reuse.

The dense work runs in real arithmetic.  L commutes with W -> W*, so its
real form R = T L_rep T* (:func:`matfix.linalg.real_form`) is a real matrix
with the singular values of L_rep.  R is inverted as a float64 matrix, the
extreme singular values are taken from R and R^-1, and L_rep^-1 = T* R^-1 T
(:func:`matfix.linalg.complex_form`) commutes with W -> W* exactly.  With
K_i the map Z -> B_i* Z + Z^T B_i, K_i K_i* maps W to B_i* B_i W +
B_i* conj(B_i) W^T + W^T B_i^T B_i + W B_i* B_i, which commutes with
W -> W*; so do L^-1 and L^-*, hence P_i P_i* does, and (T P_i)(T P_i)* =
T P_i P_i* T* is real.  ||P_i|| is therefore the norm of the real
n^2 x 2n^2 block [Re T P_i, Im T P_i] (:func:`matfix.linalg.real_block`),
whose Gram matrix is a real symmetric eigenproblem.  On real data (every
B_i real) L_rep and the P_i are float64 already and are normed as they are.
The dense arrays alive at the peak are counted against
:data:`DENSE_BUDGET_BYTES` before anything is allocated.  The scalar
surrogates, all spectral norms from :func:`matfix.linalg.spectral_norm`:

* ``l``        reciprocal of the spectral norm of L_rep.  It reproduces the
               published feasibility values.  It is not a lower bound on
               ||L^-1||^-1, the smallest singular value of L: at n=16, m=2,
               Q=I, ||A_i||=3 (Gaussian, seed 3) l = 0.3527 while that
               singular value is 0.3303.  Whether xi3 and con5/con6 built on
               it are conservative is open (ROADMAP item 1).
* ``n_ops[i]`` largest singular value of P_i_rep.
* ``theta_is`` spectral norms of the B_i; ``theta`` is the sum of squares.
* ``zeta``     spectral norm of X^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import OperatorTooLarge, SingularMatrix, SingularOperator
from .solver import EquationInstance

Array = np.ndarray

DENSE_BUDGET_BYTES = 2**30  # dense n^2 x n^2 arrays one call may hold


@dataclass(frozen=True)
class OperatorBundle:
    B: tuple[Array, ...]
    L_inv: Array
    l: float
    n_ops: tuple[float, ...]
    theta_is: tuple[float, ...]
    theta: float
    zeta: float
    norm_kind: str

    @property
    def m(self) -> int:
        return len(self.B)

    @property
    def n(self) -> int:
        return int(np.sqrt(self.L_inv.shape[0]))


def require_dense_budget(n: int, m: int, arrays: int, dtype) -> None:
    """Raise OperatorTooLarge if ``arrays`` n^2 x n^2 ``dtype`` arrays exceed the budget."""
    nbytes = arrays * n**4 * np.dtype(dtype).itemsize
    if nbytes > DENSE_BUDGET_BYTES:
        raise OperatorTooLarge(
            f"dense sensitivity operators at n={n}, m={m} need {nbytes} B, "
            f"above the budget of {DENSE_BUDGET_BYTES} B"
        )


def l_representation(B: tuple[Array, ...], n: int) -> Array:
    """I + sum(kron(B_i^T, B_i*)), in B's dtype; acts on vec(W) as vec(W + sum B_i* W B_i)."""
    L = np.eye(n * n, dtype=np.result_type(float, *B))
    for Bi in B:
        L += np.kron(Bi.T, Bi.conj().T)
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
    real = not any(Bi.imag.any() for Bi in B)
    B = tuple(Bi.real.copy() if real else Bi for Bi in B)
    # float64 n^2 x n^2 arrays alive at the peak, the norm of one P_i: L_inv,
    # the real block of P_i, and the scaled copy, Gram matrix and eigensolver
    # copy of spectral_norm; complex data 2+2+2+1+1, real data 1+1+1+1+1.
    # Every other step holds fewer, as each array is dropped once used.
    require_dense_budget(n, len(B), 5 if real else 8, float)

    R = linalg.real_form(l_representation(B, n), n)  # a complex L_rep is dropped here
    s_max = linalg.spectral_norm(R)
    try:
        R_inv = linalg.inverse(R)
        del R
        s_min = 1.0 / linalg.spectral_norm(R_inv)
    except SingularMatrix:  # the inverse failed or is not finite
        s_min = 0.0
    if s_min <= n * n * np.finfo(float).eps * s_max:
        raise SingularOperator(
            f"L representation singular to working precision (s_min={s_min:.3e}); "
            "X does not look like a valid solution"
        )
    # trace(L_rep) >= n^2 forces ||L_rep|| >= 1, so l <= 1 <= 1 + theta.
    l = 1.0 / s_max
    L_inv = R_inv if real else linalg.complex_form(R_inv, n)
    del R_inv

    n_ops = []
    for Bi in B:
        P, M2 = _structured_products(L_inv, Bi)
        P += M2  # P_i_rep
        del M2
        if not real:
            P = linalg.real_block(P, n)  # P_i P_i* commutes with W -> W*
        n_ops.append(linalg.spectral_norm(P))
        del P
    theta_is = tuple(linalg.spectral_norm(Bi) for Bi in B)
    theta = float(sum(t * t for t in theta_is))
    zeta = linalg.spectral_norm(Xinv)
    return OperatorBundle(
        B=B,
        L_inv=L_inv,
        l=l,
        n_ops=tuple(n_ops),
        theta_is=theta_is,
        theta=theta,
        zeta=zeta,
        norm_kind="dense-exact: reciprocal spectral(real form of L), "
        "spectral(P_i) via scaled Gram eigenvalue"
        + (", float64 (real data)" if real else " of [Re T P_i, Im T P_i] (P_i P_i* commutes with W -> W*)"),
    )

