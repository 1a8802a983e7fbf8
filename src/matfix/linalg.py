"""Dense complex matrix primitives: norms, eigen extremes, vec machinery.

Conventions fixed project-wide:

* ``vec`` stacks columns (column-major), so vec(A E B) = (B^T kron A) vec(E).
* The spectral norm is the largest singular value, computed without an SVD:
  the matrix is scaled by its largest entry modulus, and the square root of
  the top eigenvalue of the Gram matrix of its shorter side (S S* or S* S)
  is multiplied back by that scale.  The top eigenvalue of a positive
  semidefinite matrix is accurate to a few eps relative, and the scaling
  keeps the squares clear of overflow and underflow at any data scale.
  The Frobenius norm is the entrywise 2-norm.
* Hermitian matrices are kept exactly conjugate-symmetric by mirroring the
  lower triangle (see :func:`hermitian_part`), never by trusting rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenSolverError, SingularMatrix

Array = np.ndarray

_EPS = float(np.finfo(float).eps)


def as_matrix(a, *, name: str = "matrix") -> Array:
    """Coerce input to a 2-D complex128 array and reject non-finite entries."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def spectral_norm(M: Array) -> float:
    """Largest singular value of M, from the scaled Gram matrix of its shorter side.

    Returns 0 for an empty or all-zero M; raises :class:`EigenSolverError`
    if M has non-finite entries.
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    scale = float(np.abs(M).max())
    if not np.isfinite(scale):
        raise EigenSolverError(f"spectral norm of a {M.shape} matrix with non-finite entries")
    if scale == 0.0:
        return 0.0
    S = M / scale
    G = S @ S.conj().T if S.shape[0] <= S.shape[1] else S.conj().T @ S
    return float(np.sqrt(max(eig_extremes(G)[1], 0.0))) * scale


def frobenius_norm(M: Array) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(M), "fro"))


def eig_extremes(H: Array) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Raises :class:`EigenSolverError` if the dense symmetric eigensolver does
    not converge (rare; surfaced as a diagnostic rather than a crash).
    """
    try:
        w = np.linalg.eigvalsh(np.asarray(H))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failed: {exc}") from exc
    return float(w[0]), float(w[-1])


def is_positive_definite(H: Array, tol: float | None = None) -> bool:
    """True iff lambda_min(H) > tol.

    ``tol`` defaults to n*eps*lambda_max(H) (floored at 0); both extremes
    come from one eigenvalue call.  This is the entry test for data (Q, x0,
    a candidate solution); solver iterates are guarded by their Cholesky
    factorization instead.
    """
    H = np.asarray(H)
    if H.size == 0:
        return True
    lam_min, lam_max = eig_extremes(H)
    if tol is None:
        tol = H.shape[0] * _EPS * max(lam_max, 0.0)
    return lam_min > tol


def apply_l(B, W: Array) -> Array:
    """W + sum(Bi* W Bi): the sensitivity operator L at X, with Bi = X^-1 Ai.

    L is also the Jacobian of X - F(X), so this one routine is the matrix-free
    action behind the solver's Newton steps.
    """
    out = np.array(W, dtype=complex)
    for Bi in B:
        out += Bi.conj().T @ W @ Bi
    return out


def vec(M: Array) -> Array:
    """Stack the columns of M into one vector (column-major)."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v: Array, n: int) -> Array:
    """Inverse of :func:`vec` for an n x n matrix."""
    return np.asarray(v).reshape((n, n), order="F")


def vec_permutation(n: int) -> Array:
    """The n^2 x n^2 permutation P with vec(E^T) = P vec(E) for every n x n E.

    P is real, orthogonal, symmetric, and an involution.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    return np.eye(n * n)[np.arange(n * n).reshape(n, n).T.reshape(-1)]


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


def hermitian_part(M: Array) -> Array:
    """(M + M*)/2 with exact conjugate symmetry enforced structurally.

    The lower triangle of the average is mirrored into the upper one and the
    diagonal imaginary part is zeroed, so the result is Hermitian by storage,
    not merely up to rounding.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("hermitian_part requires a square matrix")
    H = (M + M.conj().T) / 2.0
    low = np.tril(H, -1)
    out = low + low.conj().T + np.diag(H.diagonal().real)
    return out


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
    cond1 = float(np.linalg.norm(M, 1) * np.linalg.norm(Minv, 1))
    if not np.isfinite(Minv).all() or cond1 > 0.1 / _EPS:
        raise SingularMatrix(
            f"matrix of order {n} is singular to working precision "
            f"(cond_1 ~ {cond1:.3e})",
            condition_estimate=cond1,
        )
    return Minv
