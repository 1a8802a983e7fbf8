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

The dense work runs in real arithmetic.  On complex data, L commutes with
W -> W*, so its real form R = T L_rep T* (:func:`matfix.linalg.real_form`)
is a real matrix with the singular values of L_rep.  R is inverted as a
float64 matrix, the extreme singular values are taken from R and R^-1, and
L_rep^-1 = T* R^-1 T (:func:`matfix.linalg.complex_form`) commutes with
W -> W* exactly.  With K_i the map Z -> B_i* Z + Z^T B_i, K_i K_i* maps W to
B_i* B_i W + B_i* conj(B_i) W^T + W^T B_i^T B_i + W B_i* B_i, which commutes
with W -> W*; so do L^-1 and L^-*, hence P_i P_i* does, and (T P_i)(T P_i)*
= T P_i P_i* T* is real.  ||P_i|| is therefore the norm of the real
n^2 x 2n^2 block [Re T P_i, Im T P_i] (:func:`matfix.linalg.real_block`),
whose Gram matrix is a real symmetric eigenproblem.

On real data (every B_i real) the work runs on blocks of half the order.
(B^T W B)^T = B^T W^T B, so L maps symmetric W to symmetric and
antisymmetric W to antisymmetric matrices.  Let U_s (N x s) and U_a (N x a)
hold orthonormal bases of both as vec columns: vec(E_pp) and
vec(E_pq + E_qp)/sqrt(2), and vec(E_pq - E_qp)/sqrt(2), p < q, with
s = n(n+1)/2 and a = n(n-1)/2 (the duplication-matrix basis of Magnus and
Neudecker; U_s^T kron(B, B) U_s is the symmetric Kronecker product of
Alizadeh, Haeberly and Overton).  U = [U_s, U_a] is orthogonal and

    U^T L_rep U = diag(Ls, La),   Ls = U_s^T L_rep U_s,   La = U_a^T L_rep U_a,

so ||L_rep|| = max(||Ls||, ||La||), L_rep^-1 = U diag(Ls^-1, La^-1) U^T
and ||L_rep^-1|| = max(||Ls^-1||, ||La^-1||).  Both blocks are O(N^2)
gathers of L_rep (:func:`matfix.linalg.sym_anti_blocks`); they are
inverted and normed at orders s and a, about N/2, and L_rep^-1 is
assembled from their inverses by an O(N^2) scatter
(:func:`matfix.linalg.from_sym_anti_blocks`).  K_i(Z) = B_i^T Z + Z^T B_i is
symmetric for every real Z, so U_a^T P_i = La^-1 U_a^T K_i = 0 and
||P_i|| = ||U_s^T P_i||, the norm of the s x N rows (U_s^T L^-1) K_i, formed
by the structured products on U_s^T L^-1 = Ls^-1 U_s^T
(:func:`matfix.linalg.sym_anti_rows`), with an s x s Gram matrix.

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


def require_dense_budget(n: int, m: int, entries: int) -> None:
    """Raise OperatorTooLarge if ``entries`` float64 entries of dense operator arrays exceed the budget."""
    nbytes = entries * np.dtype(float).itemsize
    if nbytes > DENSE_BUDGET_BYTES:
        raise OperatorTooLarge(
            f"dense sensitivity operators at n={n}, m={m} need {nbytes} B, "
            f"above the budget of {DENSE_BUDGET_BYTES} B"
        )


def split_orders(n: int) -> tuple[int, int, int]:
    """(s, a, N): the orders n(n+1)/2 and n(n-1)/2 of the Sym and Anti blocks, and N = n^2."""
    return n * (n + 1) // 2, n * (n - 1) // 2, n * n


def block_inverse_peak(n: int) -> int:
    """float64 entries alive at the peak of forming and inverting Ls and La on real data.

    L_rep and one Kronecker term; L_rep, Ls, La and two gathers of order a;
    Ls, La, and a norm's scaled copy, Gram matrix and eigensolver copy of
    Ls, or the inverse of Ls and the copy, right-hand side and result of
    inverting La (LAPACK's copies included).
    """
    s, a, N = split_orders(n)
    return max(2 * N * N, N * N + s * s + 3 * a * a, 4 * s * s + a * a, 2 * s * s + 4 * a * a)


def l_representation(B: tuple[Array, ...], n: int) -> Array:
    """I + sum(kron(B_i^T, B_i*)), in B's dtype; acts on vec(W) as vec(W + sum B_i* W B_i).

    Each Kronecker term is one outer product added in place through a 4-D
    view of the result, so the peak is the result plus one term.
    """
    L = np.eye(n * n, dtype=np.result_type(float, *B))
    L4 = L.reshape(n, n, n, n)  # kron(A, C)[i*n + k, j*n + l] = A[i, j] C[k, l]
    for Bi in B:
        L4 += Bi.T[:, None, :, None] * Bi.conj().T[None, :, None, :]
    return L


def _structured_products(L_inv: Array, B: Array) -> tuple[Array, Array]:
    """L_inv @ kron(I, B*) and L_inv @ kron(B^T, I) @ Pi without forming either factor.

    Row s of L_inv (any number of rows of length n^2), read as the n x n
    matrix R_s with entry (j, p) at column j*n + p, maps to R_s B* under the
    block-diagonal kron(I, B*) and to R_s^T B^T under kron(B^T, I) Pi, both
    read back the same way.
    """
    n = B.shape[0]
    return (
        (L_inv.reshape(-1, n) @ B.conj().T).reshape(L_inv.shape),
        (L_inv.reshape(-1, n, n).transpose(0, 2, 1) @ B.T).reshape(L_inv.shape),
    )


def _real_bundle_peak(n: int) -> int:
    """float64 entries alive at the peak of :func:`build_bundle` on real data.

    Forming and inverting the blocks (:func:`block_inverse_peak`); the norms
    of the inverses; for one P_i: Ls^-1, La^-1, the rows U_s^T L^-1, the two
    structured products, then the sum's scaled copy, Gram matrix and
    eigensolver copy; assembling L^-1: the blocks, L^-1, and the sum and
    difference of La^-1 and the off-diagonal part of Ls^-1.
    """
    s, a, N = split_orders(n)
    return max(block_inverse_peak(n), 3 * s * s + a * a + 3 * s * N, N * N + s * s + 3 * a * a)


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
    # complex data: float64 n^2 x n^2 arrays alive at the peak, the norm of
    # one P_i: L_inv, the real block of P_i, and the scaled copy, Gram
    # matrix and eigensolver copy of spectral_norm, 2+2+2+1+1; every other
    # step holds fewer, as each array is dropped once used
    require_dense_budget(n, len(B), _real_bundle_peak(n) if real else 8 * n**4)

    if real:  # L_rep = U diag(Ls, La) U^T
        blocks = linalg.sym_anti_blocks(l_representation(B, n), n)
    else:  # a complex L_rep is dropped here
        blocks = (linalg.real_form(l_representation(B, n), n),)
    s_max = max(linalg.spectral_norm(M) for M in blocks)
    try:
        inverses = tuple(linalg.inverse(M) for M in blocks)
        del blocks
        s_min = 1.0 / max(linalg.spectral_norm(M) for M in inverses)
    except SingularMatrix:  # an inverse failed or is not finite
        s_min = 0.0
    if s_min <= n * n * np.finfo(float).eps * s_max:
        raise SingularOperator(
            f"L representation singular to working precision (s_min={s_min:.3e}); "
            "X does not look like a valid solution"
        )
    # trace(L_rep) >= n^2 forces ||L_rep|| >= 1, so l <= 1 <= 1 + theta.
    l = 1.0 / s_max
    if real:  # P_i's image is symmetric: its rows U_s^T P_i = (U_s^T L^-1) K_i carry its norm
        rows = linalg.sym_anti_rows(inverses[0], n)
    else:
        L_inv = rows = linalg.complex_form(inverses[0], n)
        del inverses

    n_ops = []
    for Bi in B:
        P, M2 = _structured_products(rows, Bi)
        P += M2  # P_i_rep, or its rows U_s^T P_i
        del M2
        if not real:
            P = linalg.real_block(P, n)  # P_i P_i* commutes with W -> W*
        n_ops.append(linalg.spectral_norm(P))
        del P
    del rows
    if real:
        L_inv = linalg.from_sym_anti_blocks(*inverses, n)
        del inverses
    theta_is = tuple(float(t) for t in linalg.spectral_norm(np.stack(B)))  # lone-call values
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
        + (", float64 Sym/Anti blocks (real data)" if real else " of [Re T P_i, Im T P_i] (P_i P_i* commutes with W -> W*)"),
    )
