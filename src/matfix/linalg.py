"""Dense complex matrix primitives: norms, eigen extremes, PSD certificates,
triangular solves, real forms and Sym/Anti blocks, the L-solve.

Conventions fixed project-wide:

* vec(E) stacks the columns of E (column-major), so
  vec(A E B) = (B^T kron A) vec(E).
* The spectral norm is the largest singular value, computed without an SVD:
  the matrix is scaled by its largest entry modulus, and the square root of
  the top eigenvalue of the Gram matrix of its shorter side (S S* or S* S)
  is multiplied back by that scale.  The top eigenvalue of a positive
  semidefinite matrix is accurate to a few eps relative, and the scaling
  keeps the squares clear of overflow and underflow at any data scale.
  The Frobenius norm is the entrywise 2-norm.
* Hermitian matrices are kept exactly conjugate-symmetric by mirroring the
  lower triangle (see :func:`hermitian_part`), never by trusting rounding.
* A yes/no positive definiteness verdict on a computed matrix, such as an
  interval membership, is a Cholesky certificate with a rounding margin
  (:func:`certify_psd`), never an eigenvalue estimate.  Only entry tests of
  data (:func:`is_positive_definite`, the backward error's Xt) read
  eigenvalues: their threshold, :func:`definiteness_floor`, is relative to lambda_max.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .errors import EigenSolverError, SingularMatrix

Array = np.ndarray

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def as_matrix(a, *, name: str) -> Array:
    """Coerce input to a 2-D complex128 array and reject non-finite entries."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def spectral_norm(M: Array):
    """Largest singular value of M, from the scaled Gram matrix of its shorter side.

    A stack of shape (..., p, q) gives an array of shape (...): each matrix
    is scaled and normed on its own, with the arithmetic of a lone call.
    Returns 0 for an empty or all-zero M; raises :class:`EigenSolverError`
    if M has non-finite entries.
    """
    norms = gram_norm(*scaled_gram(M))
    return norms if np.ndim(M) > 2 else float(norms)


def scaled_gram(M: Array, out: Array | None = None):
    """(G, scale): the Gram matrix of the shorter side of M / scale, scale = max |M_jk|.

    G is S S* if M has no more rows than columns, else S* S, for S = M /
    scale; a zero M has scale 0 and is divided by 1.  On real input the
    scale is max(max M, -min M), the largest entry modulus exactly, without
    an |M| copy.  A stack (..., p, q) is scaled matrix by matrix, with the
    arithmetic of a lone call.  ``out`` receives G.  Raises
    :class:`EigenSolverError` if M has non-finite entries.
    """
    M = np.asarray(M)
    axes = (-2, -1)
    if np.iscomplexobj(M):
        scale = np.maximum.reduce(np.abs(M), axis=axes, initial=0.0)
    else:
        scale = np.maximum(np.maximum.reduce(M, axis=axes, initial=0.0),
                           -np.minimum.reduce(M, axis=axes, initial=0.0))
    if not np.maximum.reduce(scale, axis=None) < np.inf:  # also false for NaN
        raise EigenSolverError(
            f"spectral norm of a {M.shape[-2:]} matrix with non-finite entries"
        )
    S = M / (scale + (scale == 0.0))[..., None, None]  # a zero M is divided by 1
    St = S.conj().swapaxes(-1, -2)
    G = np.matmul(S, St, out=out) if S.shape[-2] <= S.shape[-1] else np.matmul(St, S, out=out)
    return G, scale


def gram_norm(G: Array, scale):
    """scale * sqrt(lambda_max(G)): the spectral norm of M from the (G, scale) of
    :func:`scaled_gram`.  Stacks work as in :func:`eig_extremes`; an empty G gives 0."""
    top = eig_extremes(G)[1] if G.shape[-1] else 0.0
    return np.sqrt(np.maximum(top, 0.0)) * scale


def _sum_of_squares(v: Array):
    """Sum of squared moduli of v (..., 1, k) over its last axis: a dot product of
    the real and of the imaginary parts, as ``np.linalg.norm`` forms it."""
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return sum((u @ u.swapaxes(-1, -2))[..., 0, 0] for u in parts)


def frobenius_norm(M: Array):
    """Square root of the sum of squared entry moduli; a stack (..., p, q) gives
    an array (...), each norm a lone call's.

    A sum that overflows, or that falls below the normal range (its squares
    lost digits to gradual underflow, or vanished), is recomputed on the
    entries divided by their largest modulus.  Every other sum is kept bit
    for bit: its rounding error is that of any sum of squares.
    """
    M = np.asarray(M)
    v = M.reshape(*M.shape[:-2], 1, math.prod(M.shape[-2:]))
    with np.errstate(over="ignore"):
        sq = _sum_of_squares(v)
    norms = np.sqrt(sq)
    redo = ~((sq >= _TINY) & (sq < np.inf))
    if redo.any():
        redo &= v.any(axis=(-2, -1))  # an all-zero matrix sums to 0 exactly
    if redo.any():  # an inf or NaN entry keeps its plain result: scale 1
        scale = np.abs(v).max(axis=(-2, -1), initial=0.0)
        scale = np.where(redo & (scale > 0.0) & (scale < np.inf), scale, 1.0)
        norms = np.where(redo, np.sqrt(_sum_of_squares(v / scale[..., None, None])) * scale, norms)
    return norms if M.ndim > 2 else float(norms)


def eig_extremes(H: Array):
    """Smallest and largest eigenvalue of a Hermitian matrix.

    A stack of shape (..., n, n) gives two arrays of shape (...).  Raises
    :class:`EigenSolverError` if the dense symmetric eigensolver does not
    converge (rare; surfaced as a diagnostic rather than a crash).
    """
    try:
        w = np.linalg.eigvalsh(np.asarray(H))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failed: {exc}") from exc
    if w.ndim > 1:
        return w[..., 0], w[..., -1]
    return float(w[0]), float(w[-1])


def definiteness_floor(n: int, lam_max):
    """n eps max(lambda_max, 0): lambda_min of a positive definite order-n H is above it."""
    return n * _EPS * np.maximum(lam_max, 0.0)


def is_positive_definite(H: Array):
    """True iff lambda_min(H) > :func:`definiteness_floor`; for a stack
    (..., n, n), a bool array (...).

    Both extremes come from one eigenvalue call.  This is the entry test for
    data (Q, x0, a candidate solution); solver iterates are guarded by their
    Cholesky factorization instead.
    """
    H = np.asarray(H)
    if H.size == 0:
        return np.ones(H.shape[:-2], dtype=bool) if H.ndim > 2 else True
    lam_min, lam_max = eig_extremes(H)
    verdict = lam_min > definiteness_floor(H.shape[-1], lam_max)
    return verdict if H.ndim > 2 else bool(verdict)


def certify_psd(H: Array, shift: float) -> bool:
    """True only if H + shift I is positive definite, that is lambda_min(H) > -shift.

    H is Hermitian (only its lower triangle and the real part of its
    diagonal are read); the verdict is a certificate, not an estimate: it
    is True only if a floating-point Cholesky factorization of
    H + (shift - delta) I runs to completion, with the margin

        delta = gamma_{2(n+2)} tr(H + shift I),   gamma_k = k eps / (1 - k eps),

    after the rule of S. M. Rump ("Verification of positive definiteness",
    BIT 46, 2006).  H and ``shift`` are first multiplied by the power of two
    2^-e that puts the largest diagonal entry of K = H + shift I in
    [1/2, 1), exactly, so the verdict does not depend on the data scale.
    A diagonal entry of K that is not positive gives False at once.

    Why a completed factorization certifies K, with u = eps/2 the unit
    roundoff and tau = tr(K): the factored matrix is M with diagonal
    m_ii = fl(k_ii - delta), so M = K - delta I + E with |E_ii| <=
    2u k_ii + u delta + O(u^2).  A Cholesky factorization that completes
    gives R with R* R = M + F, and Demmel's bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 10.1) gives |F_ij| <=
    g sqrt(m_ii m_jj), so ||F||_2 <= g tr(M) <= g (1 + u)^2 tau, where
    g = gamma^u_{n+1} / (1 - gamma^u_{n+1}) in real arithmetic; doubling
    the index, gamma^u_{2(n+1)}, leaves room for complex products (each at
    most sqrt(2) gamma^u_2 off).  The bound holds for any order of the
    inner products, so for blocked and recursive factorizations too.  Then
    K = R* R + (delta I - E - F) is positive definite whenever delta > ||E||
    + ||F||, to first order (2n + 4) u tau.  The computed trace carries a
    relative error of at most gamma^u_n, and after the scaling tau >= 1/2,
    so gradual underflow adds at most a few n^2 2^-1074.  delta is written
    with eps = 2u, about (4n + 8) u tau: twice the first-order need, which
    covers the second-order terms and the underflow for n^2 eps < 0.1.

    The Cholesky factor's diagonal is also checked for NaN: numpy's
    factorization completes on a NaN entry, with NaN pivots.  An empty H
    gives True.
    """
    H = np.ascontiguousarray(H, dtype=complex if np.iscomplexobj(H) else float)
    n = H.shape[-1]
    if n == 0:
        return True
    d = H.diagonal().real
    with np.errstate(over="ignore", under="ignore"):
        top = d.max() + shift
        if not (top > 0.0 and top < np.inf):  # also false for NaN
            return False
        e = -math.frexp(top)[1]  # ldexp scales exactly, also past 2^1023
        K = np.ldexp(H.view(float), e).view(H.dtype)
        diagonal = np.ldexp(d, e) + np.ldexp(shift, e)  # the diagonal of K
    if not (diagonal > 0.0).all():
        return False
    k = 2 * (n + 2)
    delta = k * _EPS / (1.0 - k * _EPS) * float(diagonal.sum())  # gamma_k tr(K)
    np.fill_diagonal(K, diagonal - delta)
    try:
        R = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(R.diagonal()).all())


_TRIANGULAR_BLOCK = 64  # order up to which solve_triangular is one LU solve


def solve_triangular(T: Array, B: Array, *, lower: bool) -> Array:
    """T^-1 B for a triangular T (lower if ``lower``, else upper), by recursive halving.

    T (..., n, n) and B (..., n, k) may be stacks.  Up to order
    ``_TRIANGULAR_BLOCK`` (64) this is ``np.linalg.solve(T, B)``, bit for bit.
    Above, T splits into halves and, for lower T,

        G1 = T11^-1 B1,   G2 = T22^-1 (B2 - T21 G1)

    (for upper T the second half first), so the LU factorizations run only
    on the diagonal blocks of order 64 or less and the rest is matrix
    products.  numpy has no triangular solver; LU with partial pivoting on
    a triangular block is backward stable like any LU solve.
    """
    n = T.shape[-1]
    if n <= _TRIANGULAR_BLOCK:
        return np.linalg.solve(T, B)
    h = n // 2
    first, second = (slice(None, h), slice(h, None)) if lower else (slice(h, None), slice(None, h))
    out = np.empty(np.broadcast_shapes(T.shape[:-2], B.shape[:-2]) + B.shape[-2:],
                   dtype=np.result_type(T, B))
    out[..., first, :] = G = solve_triangular(T[..., first, first], B[..., first, :], lower=lower)
    out[..., second, :] = solve_triangular(
        T[..., second, second], B[..., second, :] - T[..., second, first] @ G, lower=lower
    )
    return out


def apply_l(B, W: Array) -> Array:
    """W + sum(Bi* W Bi): the sensitivity operator L at X, with Bi = X^-1 Ai.

    L is also the Jacobian of X - F(X): :func:`solve_l` inverts this one action
    for the solver's Newton steps and for the first-order change alike.
    """
    out = np.array(W, dtype=complex)
    for Bi in B:
        out += Bi.conj().T @ W @ Bi
    return out


_GMRES_RESTART = 20  # Krylov basis size: (r + 1) n^2 float64 entries


def solve_l(B, R: Array, rtol: float, max_matvecs: int) -> tuple[Array, bool]:
    """E with E + sum(Bi* E Bi) = R for Hermitian R, by restarted GMRES on :func:`apply_l`.

    GMRES (Saad & Schultz, SISC 7, 1986) runs in real arithmetic on n^2
    numbers: E travels as M = Re(E) + Im(E), whose symmetric and
    antisymmetric parts are Re(E) and Im(E), a map that keeps the trace inner
    product.  Each product of L is carried as the map of its Hermitian part,
    with exactly symmetric and antisymmetric halves, so every Krylov vector
    keeps the split: E is Hermitian by storage, and real for real B and R.
    Returns E and whether the residual estimate met ``rtol * ||R||`` within
    ``max_matvecs`` products of L (a restart's explicit residual counts as
    one); a zero R gives E = 0, solved, without a product.  A restart whose
    explicit residual is not below half the previous restart's, and is more
    than twice the residual the finished cycle's own estimate promised, ends
    the solve unsolved: GMRES has stagnated at the rounding floor of an
    ill-conditioned L, and more products would not lower the residual.  A
    cycle whose estimate agrees with its explicit residual is slow, not
    stalled, and the solve goes on.
    """

    def hermitian(v: Array) -> Array:
        M = v.reshape(R.shape)
        E = 0.5j * (M - M.T)
        E.real = (M + M.T) / 2
        return E

    def apply(v: Array) -> Array:  # Re + Im of the Hermitian part of L(E)
        W = apply_l(B, hermitian(v))
        return (0.5 * (W.real + W.imag + (W.real - W.imag).T)).ravel()

    b = (R.real + R.imag).ravel()
    if not b.any():
        return np.zeros(R.shape, dtype=complex), True
    r = _GMRES_RESTART
    V = np.empty((r + 1, b.size))
    H = np.empty((r + 1, r))
    cs, sn, g = np.empty(r), np.empty(r), np.empty(r + 1)
    x = np.zeros(b.size)
    target = rtol * np.linalg.norm(b)
    res, matvecs, previous, promised = b, 0, np.inf, np.inf
    while True:
        g[0] = np.linalg.norm(res)
        if not g[0] < 0.5 * previous and g[0] > 2.0 * promised:  # stagnated
            return hermitian(x), False
        previous = g[0]
        V[0] = res / g[0]
        H[:] = 0.0
        for j in range(r):
            w = apply(V[j])
            matvecs += 1
            for _ in range(2):  # classical Gram-Schmidt, applied twice
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                H[: j + 1, j] += h
            h_next = np.linalg.norm(w)
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            d = math.hypot(H[j, j], h_next)
            cs[j], sn[j], H[j, j] = H[j, j] / d, h_next / d, d
            g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
            done = abs(g[j + 1]) <= target
            if done or matvecs >= max_matvecs:
                break
            V[j + 1] = w / h_next
        k = j + 1
        x += np.linalg.solve(H[:k, :k], g[:k]) @ V[:k]
        if done or matvecs >= max_matvecs:
            return hermitian(x), done
        promised = abs(g[k])  # the cycle's residual estimate
        res = b - apply(x)
        matvecs += 1


def real_form(M: Array, n: int) -> Array:
    """Real N x N matrix T M T* with the singular values of M (N = n^2).

    M represents an operator on n x n matrices that commutes with W -> W*,
    as L and L^-1 do: Pi M Pi = conj(M) for the vec-permutation Pi.  The
    unitary T = ((1-i) I + (1+i) Pi)/2 sends Hermitian W to Re W + Im W, and
    T M T* = [M + Pi M Pi + i (Pi M - M Pi)]/2 is then real (its rounding
    residue is dropped).  Pi swaps axis pairs of M.reshape(n, n, n, n): O(N^2)
    strided reads, no matmul.  A real M commutes with Pi and is returned as is.
    """
    M = np.asarray(M)
    if not np.iscomplexobj(M):
        return M
    M4 = M.reshape(n, n, n, n)
    out = M4.real + M4.real.transpose(1, 0, 3, 2)
    out -= M4.imag.transpose(1, 0, 2, 3)
    out += M4.imag.transpose(0, 1, 3, 2)
    out *= 0.5
    return out.reshape(n * n, n * n)


def complex_form(R: Array, n: int) -> Array:
    """Complex N x N matrix T* R T, the inverse of :func:`real_form` (N = n^2).

    For real R, T* R T = [R + Pi R Pi + i (R Pi - Pi R)]/2, formed by the
    axis swaps of :func:`real_form`.  Entries (r, c) and (Pi r, Pi c) come
    from the same two entries of R, so the result commutes with W -> W*
    exactly: Pi C Pi == conj(C) bit for bit, whatever the rounding in R.
    """
    R4 = np.asarray(R, dtype=float).reshape(n, n, n, n)
    C = np.empty((n, n, n, n), dtype=complex)
    np.add(R4, R4.transpose(1, 0, 3, 2), out=C.real)
    np.subtract(R4.transpose(0, 1, 3, 2), R4.transpose(1, 0, 2, 3), out=C.imag)
    halves = C.view(float)
    halves *= 0.5
    return C.reshape(n * n, n * n)


_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=8)
def _sym_anti_index(n: int) -> SimpleNamespace:
    """Index arrays of the bases of :func:`sym_anti_blocks`, O(n^2) each, built once per n.

    The svec coordinates are the n diagonal entries, then the a = n(n-1)/2
    pairs p < q, row by row; the avec coordinates are the same pairs.
    Fields: ``d``, ``up``, ``low``, the vec indices of W[p, p], of W[p, q]
    and of W[q, p] per pair (with column vectors ``d_c`` and ``up_c``, so
    that gathers index by broadcasting); and per vec index of
    W[i, j], ``pair`` and ``apair``, the svec and avec positions of {i, j}
    (avec 0 when i = j), ``asign``, the U_a entry sign(j - i)/sqrt(2), and
    ``weight``, the U_s entry (1 when i = j, else 1/sqrt(2)).
    """
    i, j = np.indices((n, n))
    p, q = np.nonzero(i < j)  # the pairs p < q, row by row
    d, up, low = np.arange(n) * (n + 1), p + n * q, q + n * p
    pair = np.diag(np.arange(n))
    pair[p, q] = pair[q, p] = n + np.arange(p.size)
    apair = np.zeros((n, n), dtype=np.intp)
    apair[p, q] = apair[q, p] = np.arange(p.size)
    asign = np.zeros((n, n))
    asign[p, q], asign[q, p] = 1.0 / _SQRT2, -1.0 / _SQRT2
    weight = np.full((n, n), 1.0 / _SQRT2)
    np.fill_diagonal(weight, 1.0)
    index = SimpleNamespace(
        d=d, d_c=d[:, None], up=up, up_c=up[:, None], low=low,
        pair=pair.ravel(order="F"), apair=apair.ravel(order="F"),
        asign=asign.ravel(order="F"), weight=weight.ravel(order="F"),
    )
    for arr in vars(index).values():
        arr.flags.writeable = False
    return index


def sym_anti_blocks(M: Array, n: int) -> tuple[Array, Array]:
    """Diagonal blocks (U_s^T M U_s, U_a^T M U_a) of a real N x N matrix M (N = n^2).

    The columns of U_s are vec(E_pp), then vec(E_pq + E_qp)/sqrt(2), those of
    U_a vec(E_pq - E_qp)/sqrt(2), for the pairs p < q of
    :func:`_sym_anti_index`: orthonormal bases of the symmetric and the
    antisymmetric matrices.  M must represent an operator that commutes with
    W -> W^T, as L and L^-1 do on real data: M[Pi r, Pi c] = M[r, c].  So,
    writing pq for the vec index of W[p, q]:

        Ls = [[M[pp, kk],          sqrt(2) M[pp, kl]          ],
              [sqrt(2) M[pq, kk],  M[pq, kl] + M[pq, lk]      ]],
        La = M[pq, kl] - M[pq, lk],

    O(N^2) gathers, no matmul.
    """
    ix = _sym_anti_index(n)
    same, cross = M[ix.up_c, ix.up], M[ix.up_c, ix.low]
    A = same - cross
    S = np.empty((n + A.shape[0],) * 2)
    S[:n, :n] = M[ix.d_c, ix.d]
    np.multiply(M[ix.d_c, ix.up], _SQRT2, out=S[:n, n:])
    np.multiply(M[ix.up_c, ix.d], _SQRT2, out=S[n:, :n])
    np.add(same, cross, out=S[n:, n:])
    return S, A


def sym_anti_rows(M: Array, n: int, anti: bool = False) -> Array:
    """M U_s^T, or M U_a^T if ``anti``: rows over svec (avec) coordinates, read over vec.

    For M = Ls^-1 (La^-1) these are the rows U_s^T L_rep^-1 (U_a^T L_rep^-1),
    since L_rep^-1 = U_s Ls^-1 U_s^T + U_a La^-1 U_a^T on real data: the
    weights and signs of U_s^T (U_a^T) applied by one column gather, no matmul.
    """
    if not M.size:
        return np.zeros((0, n * n))
    ix = _sym_anti_index(n)
    rows = M[:, ix.apair if anti else ix.pair]
    rows *= ix.asign if anti else ix.weight
    return rows


def hermitian_part(M: Array) -> Array:
    """(M + M*)/2 with exact conjugate symmetry, for a matrix or a stack (..., n, n).

    Entries (i, j) and (j, i) of the average come from the same two operands
    by sign-symmetric IEEE operations, so they are exact conjugates and the
    diagonal is exactly real: the result is Hermitian by storage, not merely
    up to rounding.  Adding 0.0 turns negative zeros positive, so the result
    equals the lower triangle mirrored into the upper one, bit for bit.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError("hermitian_part requires a square matrix")
    H = M + M.conj().swapaxes(-1, -2)
    H /= 2.0
    H += 0.0
    return H


def is_exactly_hermitian(M: Array) -> bool:
    """Exact entrywise check M == M* (no tolerance)."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    return bool(np.array_equal(M, M.conj().T))


def inverse(M: Array) -> Array:
    """Matrix inverse with a singularity diagnostic.

    Real input is inverted in real arithmetic, complex input in complex.
    Raises :class:`SingularMatrix` carrying a 1-norm condition estimate when
    M is singular to working precision.
    """
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    n = M.shape[0]
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix of order {n} is exactly singular") from exc
    # cheap 1-norm condition estimate; SVD would be overkill per call
    cond1 = float(np.abs(M).sum(axis=0).max(initial=0.0)
                  * np.abs(Minv).sum(axis=0).max(initial=0.0))
    if not np.isfinite(Minv).all() or cond1 > 0.1 / _EPS:
        raise SingularMatrix(
            f"matrix of order {n} is singular to working precision "
            f"(cond_1 ~ {cond1:.3e})",
            condition_estimate=cond1,
        )
    return Minv
