"""Fixed-point solver with a Newton-GMRES finish for X - sum(Ai* X^-1 Ai) = Q.

The map F(Y) = Q + sum(Ai* Y^-1 Ai) has a unique positive definite fixed
point for any positive definite Q, and the iteration X_k = F(X_{k-1})
converges from every positive definite start, but only linearly: with large
Ai its rate approaches 1.  Convergence here is declared on the
Hermitian-part residual ||herm(F(X_k)) - X_k|| in the spectral norm, which
is the quantity the returned report carries per iteration.

Each Hermitian iterate is factored once, X = L L*.  The factorization is the
positive definiteness guard, and with Gi = L^-1 Ai it gives
F(X) = Q + sum(Gi* Gi), so every iterate is Q plus a positive semidefinite
term.  Q itself is certified at entry by the eigenvalue test of
:func:`linalg.is_positive_definite`.

When the observed residual ratio shows slow contraction, :func:`solve`
switches to inexact Newton steps.  The Jacobian of X - F(X) is the
sensitivity operator L(E) = E + sum(Bi* E Bi), Bi = X^-1 Ai, applied
matrix-free by :func:`linalg.apply_l` inside a restarted GMRES written in
numpy.  Newton iterates pass the same Cholesky guard and must lower the
residual; the monotone-Newton argument of Guo & Lancaster does not carry
over to this minus equation, so Newton starts only inside its basin.
"""

from __future__ import annotations

import math
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
    newton_steps: int = 0

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


def _hermitian_map(instance: EquationInstance, X: Array) -> tuple[Array, Array, Array]:
    """herm(F(X)) for Hermitian X from one Cholesky factor X = L L*.

    With Gi = L^-1 Ai, solved for all i at once, the map is Q + sum(Gi* Gi);
    stacking the Gi vertically turns the sum into one product.  Returns the
    map together with L and G = [G1 ... Gm], which give Bi = X^-1 Ai = L^-* Gi
    for a Newton step.  Raises ``np.linalg.LinAlgError`` when X is not
    numerically positive definite.
    """
    n, m = instance.n, instance.m
    L = np.linalg.cholesky(X)
    G = np.linalg.solve(L, np.hstack(instance.A))
    Gs = G.reshape(n, m, n).transpose(1, 0, 2).reshape(m * n, n)
    return linalg.hermitian_part(instance.Q + Gs.conj().T @ Gs), L, G


def _hermitian_norm(H: Array) -> float:
    """Spectral norm of an exactly Hermitian matrix from its eigenvalue extremes."""
    if H.size == 0:
        return 0.0
    lam_min, lam_max = linalg.eig_extremes(H)
    return max(-lam_min, lam_max)


_GMRES_RESTART = 20  # Krylov basis size: (r + 1) n^2 float64 entries


def _gmres(apply, b: Array, rtol: float, max_matvecs: int) -> tuple[Array, bool]:
    """Restarted GMRES for apply(x) = b on real arrays of any shape.

    The basis is preallocated once and filled in place.  Stops when the
    residual estimate is below ``rtol * ||b||`` or after ``max_matvecs``
    products (a restart's explicit residual counts as one); returns the
    iterate and whether the tolerance was met.
    """
    r = _GMRES_RESTART
    V = np.empty((r + 1, b.size))
    H = np.empty((r + 1, r))
    cs, sn, g = np.empty(r), np.empty(r), np.empty(r + 1)
    x = np.zeros(b.size)
    target = rtol * np.linalg.norm(b)
    res, matvecs = b.ravel(), 0
    while True:
        g[:] = 0.0
        g[0] = np.linalg.norm(res)
        V[0] = res / g[0]
        H[:] = 0.0
        for j in range(r):
            w = apply(V[j].reshape(b.shape)).ravel()
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
            return x.reshape(b.shape), done
        res = b.ravel() - apply(x.reshape(b.shape)).ravel()
        matvecs += 1


def _solve_l_hermitian(B, R: Array, rtol: float, max_matvecs: int) -> tuple[Array, bool]:
    """GMRES for E + sum(Bi* E Bi) = R with R and E Hermitian.

    A Hermitian E travels as the real matrix M = Re(E) + Im(E): the
    symmetric part of M is Re(E) and its antisymmetric part is Im(E), and
    the map keeps the trace inner product, so GMRES runs in real arithmetic
    on n^2 numbers, and the E it returns is Hermitian by storage.
    """

    def hermitian(M: Array) -> Array:
        return (M + M.T) / 2 + 0.5j * (M - M.T)

    def apply(M: Array) -> Array:
        W = linalg.apply_l(B, hermitian(M))
        return W.real + W.imag

    M, solved = _gmres(apply, R.real + R.imag, rtol, max_matvecs)
    return hermitian(M), solved


def _newton_step(
    X: Array, FX: Array, L: Array, G: Array, res: float, rate: float, tol: float
) -> tuple[Array, bool]:
    """Inexact Newton iterate X + E with E + sum(Bi* E Bi) = F(X) - X.

    Bi = X^-1 Ai = L^-* Gi comes from the iterate's Cholesky factor.  GMRES
    runs to the forcing term min(1e-2, res), kept above 0.5 tol/res so the
    last step does not overshoot tol (Eisenstat & Walker, SISC 17, 1996),
    and is capped at the fixed-point steps the step is expected to save,
    log(max(eta res, tol) / res) / log(rate), and at n^2.  Returns the
    iterate and whether GMRES met its tolerance within the cap.
    """
    n = X.shape[0]
    B = np.linalg.solve(L.conj().T, G)
    eta = min(1e-2, max(res, 0.5 * tol / res))
    cap = n * n
    if rate < 1.0:
        cap = min(cap, math.ceil(math.log(max(eta * res, tol) / res) / math.log(rate)))
    Bs = tuple(B[:, i : i + n] for i in range(0, B.shape[1], n))
    E, solved = _solve_l_hermitian(Bs, FX - X, eta, cap)
    return X + E, solved


def _geometric_mean(L: Array, FX: Array) -> Array:
    """X # F(X) = L (L^-1 F(X) L^-*)^(1/2) L* for X = L L*.

    F reverses the Loewner order, so X and F(X) lie on opposite sides of the
    solution when the iteration oscillates; for a scalar equation with q -> 0
    their geometric mean is the solution itself.
    """
    C = np.linalg.solve(L, np.linalg.solve(L, FX).conj().T)
    w, U = np.linalg.eigh(C)
    S = L @ (U * np.sqrt(np.sqrt(np.maximum(w, 0.0))))
    return linalg.hermitian_part(S @ S.conj().T)


def solve(
    instance: EquationInstance,
    settings: SolveSettings | None = None,
    *,
    allow_nonhermitian: bool = False,
) -> SolveReport:
    """Solve by the fixed-point iteration, finished by Newton steps when it is slow.

    Each Hermitian iterate is factored once by Cholesky; the factor is the
    positive definiteness guard and serves all m solves of the map, and the
    iterate X_k = herm(F(X_{k-1})) is Hermitian by storage.  The residual is
    the Hermitian-part residual ||herm(F(X_k)) - X_k||, whose spectral norm
    comes from the eigenvalue extremes of that Hermitian difference.

    Once five fixed-point iterates in a row show slow contraction, a rate
    over the last two steps, sqrt(r_k / r_{k-2}), above 0.5, the guarded
    path leaves plain iteration in one of two ways:

    * if r_k < 0.1 max(diag F(X_k)) (a lower bound on 0.1 ||F(X_k)||), it
      takes inexact Newton steps (:func:`_newton_step`) for as long as they
      are accepted and GMRES meets its tolerance within its cap.  A later
      Newton phase starts only once the residual has halved since the last
      one ended, so a residual at its rounding floor does not restart it;
    * if r_k >= max(diag F(X_k)), the iteration is stalled or oscillating
      outside the Newton basin, and it tries the restart X_k # F(X_k)
      (:func:`_geometric_mean`).

    A Newton or restart iterate is accepted only if its Cholesky factor
    exists and its residual is below r_k; otherwise the fixed-point step is
    taken and plain iteration resumes for at least five iterates.
    Contraction rates of at most 0.5, as on the bundled benchmarks, never
    leave plain iteration.  ``iterations`` and ``history`` count every
    residual evaluated, rejected trials included; ``newton_steps`` counts
    the accepted Newton iterates.

    With ``allow_nonhermitian`` the validation, re-symmetrization, positive
    definiteness guards and the Newton phase are all skipped and the raw
    iteration (LU solves, singular-value residual norm) is applied to the
    matrices exactly as given.

    Returns a report with ``converged=False`` (rather than raising) when the
    iteration cap is hit; raises :class:`SingularIterate` if a fixed-point
    iterate stops being positive definite, which for valid input signals
    numerical breakdown rather than a property of the equation.
    """
    if settings is None:
        settings = SolveSettings()
    if not allow_nonhermitian:
        validate(instance)

    X = _initial_iterate(instance, settings)
    if allow_nonhermitian:
        norm, breakdown = linalg.spectral_norm, "is singular"

        def apply_map(instance, X):
            return _apply_map(instance, X), None, None
    else:
        X = linalg.hermitian_part(X)
        if not linalg.is_positive_definite(X):
            raise NotPositiveDefinite("starting matrix X0 must be positive definite")
        apply_map, norm = _hermitian_map, _hermitian_norm
        breakdown = "lost positive definiteness"

    def step(X: Array, k: int) -> tuple[Array, Array, Array]:
        try:
            return apply_map(instance, X)
        except np.linalg.LinAlgError as exc:
            what = "starting matrix" if k == 0 else f"iterate {k}"
            raise SingularIterate(f"{what} {breakdown}") from exc

    FX, L, G = step(X, 0)
    history: list[float] = []
    res, fp_run, newton_steps = 0.0, 0, 0
    newton, newton_exit = False, math.inf  # in a Newton phase; residual when the last one ended
    while len(history) < settings.max_iter:
        trial = "newton" if newton else None
        if fp_run >= 5 and history[-1] > 0.25 * history[-3] and not allow_nonhermitian:
            rate = math.sqrt(history[-1] / history[-3])  # above 0.5
            scale = float(FX.diagonal().real.max())  # a lower bound on ||F(X)||
            if res < 0.1 * scale and res < 0.5 * newton_exit:
                trial = "newton"
            elif res >= scale:
                trial = "restart"
        if trial is None:
            X = FX
            FX, L, G = step(X, len(history) + 1)
            res = norm(FX - X)
            history.append(res)
            fp_run += 1
        else:
            res_y = math.inf
            try:
                if trial == "newton":
                    Y, solved = _newton_step(X, FX, L, G, res, rate, settings.tol)
                else:
                    Y = _geometric_mean(L, FX)
                FY, LY, GY = _hermitian_map(instance, Y)
                if np.isfinite(FY).all():
                    res_y = norm(FY - Y)
                    history.append(res_y)
            except np.linalg.LinAlgError:
                pass
            if not res_y < res:  # rejected: the fixed-point step comes next
                newton, fp_run = False, 0
                newton_exit = res if trial == "newton" else newton_exit
                continue
            if trial == "newton":
                newton_steps += 1
                newton = solved
                newton_exit = newton_exit if solved else res_y
            X, FX, L, G, res, fp_run = Y, FY, LY, GY, res_y, 0
        if res < settings.tol:
            break
    return SolveReport(
        X=X,
        iterations=len(history),
        residual_norm=res,
        converged=res < settings.tol,
        history=tuple(history),
        newton_steps=newton_steps,
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
        FH = _hermitian_map(instance, H)[0]
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
