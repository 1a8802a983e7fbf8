"""Sensitivity operators at a solved instance.

With B_i = X^-1 A_i, the linear operator L maps W to W + sum(B_i* W B_i);
its n^2 x n^2 matrix representation under column-major vec is

    L_rep = I + sum(kron(B_i^T, B_i*)).

The operators P_i map Z to L^-1(B_i* Z + Z* B_i); their representations are

    P_i_rep = L_rep^-1 (kron(I, B_i*) + kron(B_i^T, I) Pi),

with Pi the vec-permutation.  Neither Kronecker factor is formed as a
matrix: both products with L_rep^-1 are batched n x n products on rows of
L_rep^-1 reshaped to (rows, n, n), O(n^5) instead of the O(n^6) of dense
matmuls (:func:`_structured_products`).

The dense work runs in real arithmetic, on the blocks of
:func:`real_form_blocks`.  On complex data L commutes with W -> W*, so its
real form R = T L_rep T* (:func:`matfix.linalg.real_form`) is a real matrix
with the singular values of L_rep; L_rep^-1 = T* R^-1 T
(:func:`matfix.linalg.complex_form`) commutes with W -> W* exactly.  On real
data (every B_i real) L maps symmetric W to symmetric and antisymmetric W
to antisymmetric matrices.  With U_s (N x s) and U_a (N x a) the
orthonormal vec bases vec(E_pp), vec(E_pq + E_qp)/sqrt(2) and
vec(E_pq - E_qp)/sqrt(2), p < q, s = n(n+1)/2 and a = n(n-1)/2 (the
duplication-matrix basis of Magnus and Neudecker; U_s^T kron(B, B) U_s is
the symmetric Kronecker product of Alizadeh, Haeberly and Overton),
U = [U_s, U_a] is orthogonal and

    U^T L_rep U = diag(Ls, La),   Ls = U_s^T L_rep U_s,   La = U_a^T L_rep U_a,

so the norms of L_rep and L_rep^-1 are the larger of the blocks' and of
their inverses'.

:func:`gram_parts` forms each block of the condition row once, from one
pair of structured products per B_i and part, and keeps its scaled Gram
matrix; :mod:`matfix.conditioning` derives the blocks, why their Gram
matrices give both condition numbers, and why n_i is the norm of the
S-block.  The dense arrays alive at the peak are counted against
:data:`DENSE_BUDGET_BYTES` before anything is allocated.
:class:`OperatorBundle` holds ``B`` (float64 on real data), ``grams`` (per
part, the (G, c) of :func:`gram_parts`), ``norm_kind`` (the path behind the
norms) and the scalar surrogates, all spectral norms from scaled Gram
matrices (:func:`matfix.linalg.scaled_gram`):

* ``l``        reciprocal of the spectral norm of L_rep.  It reproduces the
               published feasibility values.  It is not a lower bound on
               ||L^-1||^-1, the smallest singular value of L: at n=16, m=2,
               Q=I, ||A_i||=3 (Gaussian, seed 3) l = 0.3527 while that
               singular value is 0.3303.  Whether xi3 and con5/con6 built on
               it are conservative is open (ROADMAP item 1).
* ``n_ops[i]`` largest singular value of P_i_rep, from the Gram matrix
               G_S,i of the S-block of B_i.
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
    grams: tuple[tuple[Array, Array], ...]  # per part, (G, c) of gram_parts
    l: float
    n_ops: tuple[float, ...]
    theta_is: tuple[float, ...]
    theta: float
    zeta: float
    norm_kind: str

    @property
    def n(self) -> int:
        return self.B[0].shape[0]


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


def real_form_blocks(B: tuple[Array, ...], n: int) -> tuple[Array, ...]:
    """The float64 blocks of L_rep: (R,), its real form, for complex B; (Ls, La) for real B."""
    L = l_representation(B, n)
    if L.dtype == np.float64:  # L_rep = U diag(Ls, La) U^T
        return linalg.sym_anti_blocks(L, n)
    return (linalg.real_form(L, n),)


def gram_parts(
    inverses: tuple[Array, ...], B: tuple[Array, ...], n: int, bundle: bool = True
) -> tuple[tuple[Array, Array], ...]:
    """Per part, the stack G of scaled Gram matrices of the condition row's blocks and their scales c.

    ``inverses`` are those of :func:`real_form_blocks`.  A stack holds G_Q,
    then G_S,1..m and G_D,1..m of the blocks that map into the part (module
    docstring of :mod:`matfix.conditioning`): all three on complex data; on
    real data G_Q and the G_S,i in Sym, G_Q and, for a ``bundle``, the G_D,i
    in Anti (the real case's own Grams keep the Anti part's G_Q alone).  The
    rows of L^-1 are dropped part by part: the first-order change uses the
    L-solve (:func:`matfix.perturbation.first_order_delta`: tolerance 1e-14,
    at most 1000 products of L, else :class:`SingularOperator`).
    """
    real, m = len(inverses) == 2, len(B)
    parts = []
    for inv, anti in zip(inverses, (False, True)):
        # runs of m blocks: S' and D' on complex data; S in Sym, and D in Anti for a bundle
        runs = 2 if not real else int(not anti or bundle)
        k, K = inv.shape[0], 1 + runs * m
        G, c = np.empty((K, k, k)), np.empty(K)
        c[0] = linalg.scaled_gram(inv, out=G[0])[1]
        parts.append((G, c))
        if K == 1:
            continue
        rows = linalg.sym_anti_rows(inv, n, anti) if real else linalg.complex_form(inv, n)
        for i, Bi in enumerate(B):
            M1, M2 = _structured_products(rows, Bi)
            if real:  # U_s^T (M1 + M2) on the Sym rows, U_a^T (M1 - M2) on the Anti rows
                blocks = ((np.subtract if anti else np.add)(M1, M2, out=M1),)
            else:  # S' = u + v and D' = u - v, u = Re M1 + Im M2 and v = Im M1 + Re M2
                re, im = M1.real, M1.imag
                re += M2.imag
                im += M2.real
                np.add(re, im, out=M2.real)
                np.subtract(re, im, out=M2.imag)
                blocks = (M2.real, M2.imag)
                del re, im
            del M1, M2
            c[1 + i :: m] = [linalg.scaled_gram(M, out=G[j])[1] for j, M in zip(range(1 + i, K, m), blocks)]
            del blocks
        del rows
    return tuple(parts)


def gram_parts_peak(n: int, m: int, real: bool, bundle: bool = True) -> int:
    """float64 entries alive at the peak of forming the blocks of L_rep,
    inverting them and :func:`gram_parts`: the dense work of :func:`build_bundle`.

    Complex data, in n^4 units: L_rep and one complex term (4); R^-1, the
    2m+1 Grams, the complex rows (2) and one B_i's two complex products
    (4), more than R's norm or inverse.  Real data: L_rep and one term;
    L_rep, Ls, La and two gathers of order a; Ls, La and a norm's scaled
    copy, Gram and eigensolver copy of Ls, or Ls^-1 and LAPACK's copies,
    right-hand side and result for La; Ls^-1, La^-1, the Grams so far and,
    for one B_i, the lifted rows and two products.  No L^-1 is assembled:
    the first-order change uses the L-solve (:func:`gram_parts`).
    """
    if not real:
        return (2 * m + 8) * n**4
    s, a, N = split_orders(n)
    sym, anti, inv = (1 + m) * s * s, (1 + m * bundle) * a * a, s * s + a * a
    blocks = max(2 * N * N, N * N + s * s + 3 * a * a, 4 * s * s + a * a, 2 * s * s + 4 * a * a)
    grams = max(inv + sym + 3 * s * N, inv + sym + anti + (3 * a * N if bundle else a * a))
    return max(blocks, grams)


def build_bundle(instance: EquationInstance, X: Array) -> OperatorBundle:
    """Form the condition row's Gram matrices and the scalar surrogates at X.

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
    require_dense_budget(n, len(B), gram_parts_peak(n, len(B), real))

    blocks = real_form_blocks(B, n)
    s_max = max(linalg.spectral_norm(M) for M in blocks)
    s_min = 0.0
    try:
        inverses = tuple(linalg.inverse(M) for M in blocks)
    except SingularMatrix:  # an inverse failed or is not finite
        pass
    else:
        del blocks
        parts = gram_parts(inverses, B, n)
        del inverses
        s_min = 1.0 / max(linalg.gram_norm(G[0], c[0]) for G, c in parts)
    if s_min <= n * n * np.finfo(float).eps * s_max:
        raise SingularOperator(
            f"L representation singular to working precision (s_min={s_min:.3e}); "
            "X does not look like a valid solution"
        )
    # trace(L_rep) >= n^2 forces ||L_rep|| >= 1, so l <= 1 <= 1 + theta.
    l = 1.0 / s_max
    G, c = parts[0]  # n_i = ||S-block of B_i||
    n_ops = tuple(float(linalg.gram_norm(G[1 + i], c[1 + i])) for i in range(len(B)))
    theta_is = tuple(float(t) for t in linalg.spectral_norm(np.stack(B)))  # lone-call values
    theta = float(sum(t * t for t in theta_is))
    zeta = linalg.spectral_norm(Xinv)
    return OperatorBundle(
        B=B,
        grams=parts,
        l=l,
        n_ops=n_ops,
        theta_is=theta_is,
        theta=theta,
        zeta=zeta,
        norm_kind="dense-exact: reciprocal spectral(real form of L), "
        "spectral(P_i) from the scaled Gram of its S-block"
        + (", float64 Sym/Anti blocks (real data)" if real else " Re S + Im S (T P_i is real)"),
    )
