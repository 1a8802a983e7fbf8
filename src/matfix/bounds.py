"""A priori enclosures for the positive definite solution.

Three nested containment statements are computed:

* the coarse matrix interval [Q, Q + sum(Ai* Q^-1 Ai)],
* the scalar interval [beta*I, alpha*I] from a coupled scalar fixed point,
* a refined matrix interval [Q + (1/alpha) sum(Ai* Ai), Q + (1/beta) sum(Ai* Ai)]
  that always sits inside the scalar one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .solver import EquationInstance

Array = np.ndarray


@dataclass(frozen=True)
class ScalarBounds:
    """Fixed-point scalars with lambda_min(Q) <= beta <= alpha."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class MatrixInterval:
    """Loewner interval: every admissible X satisfies lower <= X <= upper."""

    lower: Array
    upper: Array


def _singular_value_extremes(A: Array) -> tuple[float, float]:
    """(smallest, largest) singular value; these square to the eigenvalue
    extremes of A*A without forming the square."""
    s = np.linalg.svd(np.asarray(A), compute_uv=False)
    if s.size == 0:
        return 0.0, 0.0
    return float(s[-1]), float(s[0])


def scalar_bounds(instance: EquationInstance) -> ScalarBounds:
    """The fixed point (alpha, beta) of the coupled scalar recurrences

    beta_0 = lambda_min(Q),
    alpha_k = lambda_max(Q) + sum(lambda_max(Ai*Ai)) / beta_k,
    beta_{k+1} = lambda_min(Q) + sum(lambda_min(Ai*Ai)) / alpha_k,

    in closed form.  The alpha sequence is non-increasing, beta
    non-decreasing, and both meet where beta is the positive root of a
    quadratic.  In units of q2 = lambda_max(Q), with u = lambda_min(Q)/q2,
    a = sum(s_min(Ai/q2)^2), b = sum(s_max(Ai/q2)^2), p = u + a - b, the
    root is t = (p + sqrt(p^2 + 4ub))/2, evaluated as 2ub/(sqrt(.) - p) when
    p < 0 so that nothing cancels; beta = q2 t and alpha = q2 (1 + b/t).
    Working in units of q2 squares no data-scale quantity, so the result is
    scale covariant: scalar_bounds(sA, sQ) = s scalar_bounds(A, Q).
    """
    q1, q2 = linalg.eig_extremes(linalg.hermitian_part(instance.Q))
    u = q1 / q2
    a = b = 0.0
    for Ai in instance.A:
        lo, hi = _singular_value_extremes(Ai / q2)
        a += lo * lo
        b += hi * hi
    p = u + a - b
    r = math.sqrt(p * p + 4.0 * u * b)
    t = (p + r) / 2.0 if p >= 0.0 else 2.0 * u * b / (r - p)
    return ScalarBounds(alpha=q2 * (1.0 + b / t), beta=q2 * t)


def coarse_interval(instance: EquationInstance) -> MatrixInterval:
    """[Q, Q + sum(Ai* Q^-1 Ai)]: every positive definite solution lies here."""
    Q = linalg.hermitian_part(instance.Q)
    Qinv = linalg.inverse(Q)
    upper = Q.astype(complex).copy()
    for Ai in instance.A:
        upper = upper + Ai.conj().T @ Qinv @ Ai
    return MatrixInterval(lower=Q, upper=linalg.hermitian_part(upper))


def refined_interval(instance: EquationInstance, sb: ScalarBounds) -> MatrixInterval:
    """[Q + (1/alpha) sum(Ai*Ai), Q + (1/beta) sum(Ai*Ai)], inside [beta I, alpha I]."""
    Q = linalg.hermitian_part(instance.Q)
    gram = np.zeros_like(Q)
    for Ai in instance.A:
        gram = gram + Ai.conj().T @ Ai
    lower = linalg.hermitian_part(Q + gram / sb.alpha)
    upper = linalg.hermitian_part(Q + gram / sb.beta)
    return MatrixInterval(lower=lower, upper=upper)


def scalar_interval(instance: EquationInstance, sb: ScalarBounds) -> MatrixInterval:
    """[beta I, alpha I] as a MatrixInterval for uniform membership checks."""
    n = instance.n
    return MatrixInterval(lower=sb.beta * np.eye(n), upper=sb.alpha * np.eye(n))


def default_membership_tolerance(interval: MatrixInterval) -> float:
    """n eps ||upper||_2: a :func:`membership` slack for exact-arithmetic checks."""
    n = np.asarray(interval.upper).shape[0]
    return n * float(np.finfo(float).eps) * linalg.spectral_norm(interval.upper)


def membership(X: Array, interval: MatrixInterval, tol: float) -> bool:
    """True only if lambda_min(X - lower) > -tol and lambda_min(upper - X) > -tol.

    Each half is a Cholesky certificate (:func:`linalg.certify_psd` on the
    Hermitian part of the difference, shifted by tol), not an eigenvalue
    estimate: True proves the strict inequalities up to the certificate's
    rounding margin, and costs two Cholesky factorizations and no
    eigensolve.  Exact-arithmetic checks can pass
    :func:`default_membership_tolerance`; callers holding an iteratively
    computed X should pass a slack tied to the solve residual.
    """
    X = np.asarray(X)
    if X.shape != np.asarray(interval.lower).shape:
        raise ValueError("dimension mismatch between X and interval")
    return (linalg.certify_psd(linalg.hermitian_part(X - interval.lower), tol)
            and linalg.certify_psd(linalg.hermitian_part(interval.upper - X), tol))
