"""Fixed-point solver for X - sum(Ai* X^-1 Ai) = Q.

The map F(Y) = Q + sum(Ai* Y^-1 Ai) has a unique positive definite fixed
point for any positive definite Q, and the iteration X_k = F(X_{k-1})
converges from every positive definite start.  Convergence here is declared
on the Hermitian-part residual ||herm(F(X_k)) - X_k|| in the spectral norm,
which is the quantity the returned report carries per iteration.

Each Hermitian iterate is factored once, X = L L*.  The factorization is the
positive definiteness guard, and with Gi = L^-1 Ai it gives
F(X) = Q + sum(Gi* Gi), so every iterate is Q plus a positive semidefinite
term.  Q itself is certified at entry by the eigenvalue test of
:func:`linalg.is_positive_definite`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
    SingularIterate,
    ValidationError,
)

Array = np.ndarray


@dataclass(frozen=True)
class EquationInstance:
    """Coefficient matrices A_1..A_m and right-hand side Q.

    Construction only coerces to complex arrays; structural invariants are
    checked by :func:`validate` so that invalid data can still be represented
    (and reported on).
    """

    A: tuple[Array, ...]
    Q: Array

    def __init__(self, A, Q):
        object.__setattr__(
            self,
            "A",
            tuple(linalg.as_matrix(Ai, name=f"A[{i}]") for i, Ai in enumerate(A)),
        )
        object.__setattr__(self, "Q", linalg.as_matrix(Q, name="Q"))

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class SolveSettings:
    """Iteration controls.

    ``x0`` selects the starting matrix: ``None`` starts from Q, a scalar c
    starts from c*I, and an explicit matrix is used as given.
    """

    x0: float | Array | None = None
    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    X: Array
    iterations: int
    residual_norm: float
    converged: bool
    history: tuple[float, ...] = field(default_factory=tuple)

    @property
    def rate(self) -> float | None:
        """Observed contraction rate: the median ratio of consecutive
        ``history`` entries, or ``None`` with fewer than 3 entries."""
        if len(self.history) < 3:
            return None
        h = np.asarray(self.history)
        # np.median would import numpy.ma (about 2 MB resident) on first use
        ratios = np.sort(h[1:] / h[:-1])
        mid = len(ratios) // 2
        return float((ratios[mid] + ratios[~mid]) / 2)


def validate(instance: EquationInstance) -> None:
    """Check all structural invariants, reporting every violation at once.

    Raises the specific error when exactly one invariant fails, or a
    :class:`ValidationError` whose ``violations`` lists all failures.
    """
    violations: list[ValidationError] = []
    n = instance.Q.shape[0]
    if instance.Q.shape[0] != instance.Q.shape[1]:
        violations.append(DimensionMismatch(f"Q must be square, got {instance.Q.shape}"))
    if instance.m < 1:
        violations.append(DimensionMismatch("need at least one coefficient matrix"))
    for i, Ai in enumerate(instance.A):
        if Ai.shape != (n, n):
            violations.append(
                DimensionMismatch(f"A[{i}] has shape {Ai.shape}, expected ({n}, {n})")
            )
    if instance.Q.shape[0] == instance.Q.shape[1]:
        if not linalg.is_exactly_hermitian(instance.Q):
            violations.append(NotHermitian("Q is not Hermitian"))
        elif not linalg.is_positive_definite(instance.Q):
            violations.append(NotPositiveDefinite("Q is not positive definite"))
    if not violations:
        return
    if len(violations) == 1:
        raise violations[0]
    raise ValidationError(
        "; ".join(str(v) for v in violations), violations=tuple(violations)
    )


def _initial_iterate(instance: EquationInstance, settings: SolveSettings) -> Array:
    if settings.x0 is None:
        return instance.Q.copy()
    if np.isscalar(settings.x0):
        return complex(settings.x0).real * np.eye(instance.n, dtype=complex)
    X0 = linalg.as_matrix(settings.x0, name="x0")
    if X0.shape != (instance.n, instance.n):
        raise DimensionMismatch(f"x0 has shape {X0.shape}, expected ({instance.n}, {instance.n})")
    return X0


def _apply_map(instance: EquationInstance, X: Array) -> Array:
    """F(X) = Q + sum(Ai* X^-1 Ai) for any nonsingular X (LU solves)."""
    out = instance.Q.astype(complex).copy()
    for Ai in instance.A:
        out = out + Ai.conj().T @ np.linalg.solve(X, Ai)
    return out


def _hermitian_map(instance: EquationInstance, X: Array) -> Array:
    """herm(F(X)) for Hermitian X from one Cholesky factor X = L L*.

    With Gi = L^-1 Ai, solved for all i at once, the map is Q + sum(Gi* Gi);
    stacking the Gi vertically turns the sum into one product.  Raises
    ``np.linalg.LinAlgError`` when X is not numerically positive definite.
    """
    n, m = instance.n, instance.m
    L = np.linalg.cholesky(X)
    G = np.linalg.solve(L, np.hstack(instance.A))
    G = G.reshape(n, m, n).transpose(1, 0, 2).reshape(m * n, n)
    return linalg.hermitian_part(instance.Q + G.conj().T @ G)


def _hermitian_norm(H: Array) -> float:
    """Spectral norm of an exactly Hermitian matrix from its eigenvalue extremes."""
    if H.size == 0:
        return 0.0
    lam_min, lam_max = linalg.eig_extremes(H)
    return max(-lam_min, lam_max)


def solve(
    instance: EquationInstance,
    settings: SolveSettings | None = None,
    *,
    allow_nonhermitian: bool = False,
) -> SolveReport:
    """Run the fixed-point iteration until the equation residual drops below tol.

    Each Hermitian iterate is factored once by Cholesky; the factor is the
    positive definiteness guard and serves all m solves of the map, and the
    iterate X_k = herm(F(X_{k-1})) is Hermitian by storage.  The residual is
    the Hermitian-part residual ||herm(F(X_k)) - X_k||, whose spectral norm
    comes from the eigenvalue extremes of that Hermitian difference.  With
    ``allow_nonhermitian`` the validation, re-symmetrization and positive
    definiteness guards are all skipped and the raw iteration (LU solves,
    singular-value residual norm) is applied to the matrices exactly as given.

    Returns a report with ``converged=False`` (rather than raising) when the
    iteration cap is hit; raises :class:`SingularIterate` if an iterate stops
    being positive definite, which for valid input signals numerical
    breakdown rather than a property of the equation.
    """
    if settings is None:
        settings = SolveSettings()
    if not allow_nonhermitian:
        validate(instance)

    X = _initial_iterate(instance, settings)
    if allow_nonhermitian:
        apply_map, norm, breakdown = _apply_map, linalg.spectral_norm, "is singular"
    else:
        X = linalg.hermitian_part(X)
        if not linalg.is_positive_definite(X):
            raise NotPositiveDefinite("starting matrix X0 must be positive definite")
        apply_map, norm = _hermitian_map, _hermitian_norm
        breakdown = "lost positive definiteness"

    def step(X: Array, k: int) -> Array:
        try:
            return apply_map(instance, X)
        except np.linalg.LinAlgError as exc:
            what = "starting matrix" if k == 0 else f"iterate {k}"
            raise SingularIterate(f"{what} {breakdown}") from exc

    FX = step(X, 0)
    history: list[float] = []
    for k in range(1, settings.max_iter + 1):
        X = FX
        FX = step(X, k)
        res = norm(FX - X)
        history.append(res)
        if res < settings.tol:
            return SolveReport(
                X=X,
                iterations=k,
                residual_norm=res,
                converged=True,
                history=tuple(history),
            )
    return SolveReport(
        X=X,
        iterations=settings.max_iter,
        residual_norm=history[-1],
        converged=False,
        history=tuple(history),
    )


def residual(instance: EquationInstance, X: Array) -> tuple[Array, float]:
    """Hermitian-part residual R(X) = herm(F(X)) - X and its spectral norm.

    R is Hermitian by storage, computed through the same Cholesky map as
    :func:`solve`, so ``residual(instance, report.X)[1]`` measures what
    ``report.residual_norm`` does.  X must be positive definite.
    """
    X = linalg.as_matrix(X, name="X")
    H = linalg.hermitian_part(X)
    if not linalg.is_positive_definite(H):
        raise NotPositiveDefinite("residual requires a positive definite X")
    try:
        FH = _hermitian_map(instance, H)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"residual requires a positive definite X: {exc}") from exc
    R = FH - H
    return R, _hermitian_norm(R)


def residual_raw(instance: EquationInstance, X: Array) -> tuple[Array, float]:
    """Residual without Hermitian/positive-definite guards (raw-mode runs)."""
    X = np.asarray(X, dtype=complex)
    R = _apply_map(instance, X) - X
    return R, linalg.spectral_norm(R)


def scalar_solution(a: list[complex] | tuple[complex, ...], q: float) -> float:
    """Closed-form 1x1 solution x = (q + sqrt(q^2 + 4*sum|a_i|^2))/2."""
    s = sum(abs(ai) ** 2 for ai in a)
    return (q + np.sqrt(q * q + 4.0 * s)) / 2.0
