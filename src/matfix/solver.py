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
term.  Every solve with L or L* is a triangular solve
(:func:`linalg.solve_triangular`), which above order 64 factors only
diagonal blocks.  Q itself is certified at entry by the eigenvalue test of
:func:`linalg.is_positive_definite`.  F is evaluated only by this map,
:func:`_cholesky_map` (the backward error's too), and raw mode's :func:`_lu_map`.

When the observed residual ratio shows slow contraction, :func:`solve`
switches to inexact Newton steps.  The Jacobian of X - F(X) is the
sensitivity operator L(E) = E + sum(Bi* E Bi), Bi = X^-1 Ai, applied
matrix-free by :func:`linalg.solve_l`, a restarted GMRES written in
numpy.  Newton iterates pass the same Cholesky guard and must lower the
residual; the monotone-Newton argument of Guo & Lancaster does not carry
over to this minus equation, so Newton starts only inside its basin.

:func:`solve_stack` runs this one loop over stacked equations that share n
and m, each member's arithmetic that of a lone :func:`solve`; ``solve`` and
:func:`solve_many` stack their instances for it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
    OperatorTooLarge,
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
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
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


def _validate_stack(Q: Array, A: Array, hermitian: bool) -> None:
    """Check the stacks Q (k, n, n) and A (k, m, n, n) as the coercion to an
    :class:`EquationInstance` and (Hermitian mode) :func:`validate` would.

    Each test runs once on the whole stack: finite entries, the shapes, then
    conjugate symmetry and positive definiteness of every Q.  Only the first
    failing member is built as an instance and checked alone; in a stack of
    several its error names it.
    """
    if not (np.isfinite(Q).all() and np.isfinite(A).all()):
        ok = np.isfinite(Q).all(axis=(1, 2)) & np.isfinite(A).all(axis=(1, 2, 3))
    elif not hermitian:
        return
    elif Q.shape[2] != Q.shape[1] or A.shape[1] < 1 or A.shape[2:] != Q.shape[1:]:
        ok = np.zeros(len(Q), dtype=bool)  # the members share their shapes
    else:
        symmetric, ok = Q == Q.conj().swapaxes(1, 2), linalg.is_positive_definite(Q)
        if ok.all() and symmetric.all():
            return
        ok &= symmetric.all(axis=(1, 2))
    for j in np.flatnonzero(~ok)[:1]:
        try:
            instance = EquationInstance(A[j], Q[j])
            if hermitian:
                validate(instance)
        except (ValueError, ValidationError) as exc:
            if len(Q) == 1:
                raise
            extra = {"violations": exc.violations} if isinstance(exc, ValidationError) else {}
            raise type(exc)(f"instance {j}: {exc}", **extra) from exc


def _initial_iterates(Q: Array, settings: SolveSettings, hermitian: bool) -> Array:
    """The starting matrix of every member of the stack Q: Q itself, c*I or x0.

    In Hermitian mode the start is re-symmetrized and must be positive
    definite; a start of Q passed that test in validation.
    """
    n = Q.shape[-1]
    if settings.x0 is None:
        X0 = Q
    elif np.isscalar(settings.x0):
        X0 = complex(settings.x0).real * np.eye(n, dtype=complex)
    else:
        X0 = linalg.as_matrix(settings.x0, name="x0")
        if X0.shape != (n, n):
            raise DimensionMismatch(f"x0 has shape {X0.shape}, expected ({n}, {n})")
    if hermitian:
        X0 = linalg.hermitian_part(X0)
        if settings.x0 is not None and not linalg.is_positive_definite(X0):
            raise NotPositiveDefinite("starting matrix X0 must be positive definite")
    return np.broadcast_to(X0, Q.shape)


def _lu_map(Q: Array, Ah: Array, X: Array) -> Array:
    """F(X) = Q + sum(Ai* X^-1 Ai) for any nonsingular X (LU solves).

    Ah = [A1 ... Am]; every argument may be a stack (..., n, .) of members.
    """
    n = X.shape[-1]
    out = Q.astype(complex)
    for j in range(0, Ah.shape[-1], n):
        Ai = Ah[..., j : j + n]
        out = out + Ai.conj().swapaxes(-1, -2) @ np.linalg.solve(X, Ai)
    return out


def _cholesky_map(Q: Array, Ah: Array, X: Array) -> tuple[Array, Array, Array]:
    """herm(F(X)) for Hermitian X from one Cholesky factor X = L L*.

    With Gi = L^-1 Ai, one triangular solve for all i at once from
    Ah = [A1 ... Am], the map is Q + sum(Gi* Gi); stacking the Gi
    vertically turns the sum into one product.  Returns the map together
    with L and G = [G1 ... Gm], which give Bi = X^-1 Ai = L^-* Gi for a
    Newton step.  Every argument may be a stack (..., n, .) of members.
    Raises ``np.linalg.LinAlgError`` when X (some member of X) is not
    numerically positive definite.
    """
    n = X.shape[-1]
    L = np.linalg.cholesky(X)
    G = linalg.solve_triangular(L, Ah, lower=True)
    lead = G.shape[:-2]
    Gs = G.reshape(*lead, n, -1, n).swapaxes(-3, -2).reshape(*lead, -1, n)
    F = Gs.conj().swapaxes(-1, -2) @ Gs
    F += Q
    return linalg.hermitian_part(F), L, G


def _hermitian_map(instance: EquationInstance, X: Array) -> tuple[Array, Array, Array]:
    """herm(F(X)), L and G of :func:`_cholesky_map` for one instance."""
    Ah = np.hstack([np.empty((instance.n, 0)), *instance.A])  # [A1 ... Am], n x 0 when m = 0
    return _cholesky_map(instance.Q, Ah, X)


def _hermitian_norm(H: Array):
    """Spectral norm of an exactly Hermitian matrix, or of each in a stack,
    from its eigenvalue extremes."""
    if H.shape[-1] == 0:
        return np.zeros(H.shape[:-2]) if H.ndim > 2 else 0.0
    lam_min, lam_max = linalg.eig_extremes(H)
    return np.maximum(-lam_min, lam_max) if H.ndim > 2 else max(-lam_min, lam_max)


def _newton_step(
    X: Array, FX: Array, L: Array, G: Array, res: float, rate: float, tol: float
) -> tuple[Array, bool]:
    """Inexact Newton iterate X + E with E + sum(Bi* E Bi) = F(X) - X.

    Bi = X^-1 Ai = L^-* Gi comes from the iterate's Cholesky factor, by a
    triangular solve with L*.  GMRES runs to the forcing term
    min(1e-2, res), kept above 0.5 tol/res so the last step does not
    overshoot tol (Eisenstat & Walker, SISC 17, 1996), and is capped at the
    fixed-point steps the step is expected to save,
    log(max(eta res, tol) / res) / log(rate), and at n^2.  Returns the
    iterate and whether GMRES met its tolerance within the cap.
    """
    n = X.shape[0]
    B = linalg.solve_triangular(L.conj().T, G, lower=False)
    eta = min(1e-2, max(res, 0.5 * tol / res))
    cap = n * n
    if rate < 1.0:
        cap = min(cap, math.ceil(math.log(max(eta * res, tol) / res) / math.log(rate)))
    Bs = tuple(B[:, i : i + n] for i in range(0, B.shape[1], n))
    E, solved = linalg.solve_l(Bs, FX - X, eta, cap)
    return X + E, solved


def _geometric_mean(L: Array, FX: Array) -> Array:
    """X # F(X) = L (L^-1 F(X) L^-*)^(1/2) L* for X = L L*.

    F reverses the Loewner order, so X and F(X) lie on opposite sides of the
    solution when the iteration oscillates; for a scalar equation with q -> 0
    their geometric mean is the solution itself.
    """
    C = linalg.solve_triangular(L, linalg.solve_triangular(L, FX, lower=True).conj().T, lower=True)
    w, U = np.linalg.eigh(C)
    S = L @ (U * np.sqrt(np.sqrt(np.maximum(w, 0.0))))
    return linalg.hermitian_part(S @ S.conj().T)


@dataclass
class _Member:
    """Newton and restart state of a :func:`solve_stack` member whose switch
    rule has fired; its residuals and counters live in the loop's arrays."""

    newton_steps: int = 0
    newton_exit: float = math.inf  # residual when the last Newton phase ended
    rate: float = 0.0  # two-step rate when the switch rule last fired

    def switch(self, res: float, res_3: float, FX: Array) -> str | None:
        """The switch rule after five fixed-point iterates in a row whose last
        contracts slowly, res > res_3 / 4 for res_3 the residual two iterates
        back: "newton", "restart" or None (a fixed-point step)."""
        self.rate = math.sqrt(res / res_3)  # above 0.5
        scale = float(FX.diagonal().real.max())  # a lower bound on ||F(X)||
        if res < 0.1 * scale and res < 0.5 * self.newton_exit:
            return "newton"
        return "restart" if res >= scale else None

    def try_trial(self, trial: str, res: float, Q, Ah, X, FX, L, G, tol: float):
        """Take a Newton or restart trial from X at residual ``res``; return the
        trial iterate's residual (None if none was evaluated), the accepted
        iterate with its map (F, L, G) or None, and whether Newton goes on."""
        res_y = None
        try:
            if trial == "newton":
                Y, solved = _newton_step(X, FX, L, G, res, self.rate, tol)
            else:
                Y = _geometric_mean(L, FX)
            FY, LY, GY = _cholesky_map(Q, Ah, Y)
            if np.isfinite(FY).all():
                res_y = _hermitian_norm(FY - Y)
        except np.linalg.LinAlgError:
            pass
        if res_y is None or not res_y < res:  # rejected: the fixed-point step comes next
            self.newton_exit = res if trial == "newton" else self.newton_exit
            return res_y, None, False
        if trial == "newton":
            self.newton_steps += 1
            self.newton_exit = self.newton_exit if solved else res_y
        return res_y, (Y, FY, LY, GY), trial == "newton" and solved


BATCH_BUDGET_BYTES = 2**30  # the complex stacks one solve_stack call may hold


def solve(
    instance: EquationInstance,
    settings: SolveSettings | None = None,
    *,
    allow_nonhermitian: bool = False,
) -> SolveReport:
    """Solve by the fixed-point iteration, finished by Newton steps when it is slow.

    A batch of one: see :func:`solve_stack` for the iteration, its Newton and
    restart trials, raw mode and the errors raised.
    """
    return solve_many((instance,), settings, allow_nonhermitian=allow_nonhermitian)[0]


def solve_many(
    instances: Iterable[EquationInstance],
    settings: SolveSettings | None = None,
    *,
    allow_nonhermitian: bool = False,
) -> list[SolveReport]:
    """:func:`solve_stack` on the stacked data of instances that share n and m;
    a member of other shapes raises :class:`DimensionMismatch` naming it."""
    instances = tuple(instances)
    if not instances:
        return []
    shapes = [(inst.Q.shape, [Ai.shape for Ai in inst.A]) for inst in instances]
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise DimensionMismatch(f"instance {i}: shapes {shape} unlike instance 0's {shapes[0]}")
    if len(set(shapes[0][1])) != 1:  # m = 0 or A_i of several shapes: validate names the fault
        validate(instances[0])
    Q, A = np.stack([inst.Q for inst in instances]), np.array([inst.A for inst in instances])
    return solve_stack(Q, A, settings, allow_nonhermitian=allow_nonhermitian)


def solve_stack(
    Q: Array,
    A: Array,
    settings: SolveSettings | None = None,
    *,
    allow_nonhermitian: bool = False,
) -> list[SolveReport]:
    """Solve X - sum(A[j, i]* X^-1 A[j, i]) = Q[j] for the stacks Q (k, n, n), A (k, m, n, n).

    Each member's report equals that of a lone :func:`solve` call, bit for
    bit: one call of each numpy kernel (Cholesky, triangular solves, matmul,
    eigenvalues) serves the stacks of every member still iterating, with the
    arithmetic of a single matrix, and ``settings`` (x0 included) applies to
    all.  A member leaves the stacks once its residual is below ``tol`` or
    its iterations reach ``max_iter``.  Residuals and counters are arrays:
    Python touches a member only when its switch rule can fire, and the
    histories are assembled from the recorded residuals at the end.

    Each Hermitian iterate is factored once by Cholesky; the factor is the
    positive definiteness guard and serves all m solves of the map, and the
    iterate X_k = herm(F(X_{k-1})) is Hermitian by storage.  The residual is
    the Hermitian-part residual ||herm(F(X_k)) - X_k||, whose spectral norm
    comes from the eigenvalue extremes of that Hermitian difference.

    Once five fixed-point iterates in a row show slow contraction, a rate
    over the last two steps, sqrt(r_k / r_{k-2}), above 0.5, the guarded
    path leaves plain iteration in one of two ways (the rule is applied to
    each member on its own history, and its trial is taken alone):

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

    Returns reports with ``converged=False`` when the iteration cap is hit.
    Raises :class:`SingularIterate` if a fixed-point iterate stops being
    positive definite (for valid input, a numerical breakdown), ``ValueError``
    for non-finite entries, :class:`DimensionMismatch` for stacks of other
    ranks, and, before allocating, :class:`OperatorTooLarge` when the stacks
    (Q, A, the iterates, F(X), L and G: (4 + 2m) k n^2 complex entries)
    exceed :data:`BATCH_BUDGET_BYTES`.  In a stack of several, an error
    names the index of the member that raised it.
    """
    Q, A = np.asarray(Q, dtype=complex), np.asarray(A, dtype=complex)
    if Q.ndim != 3 or A.ndim != 4 or len(A) != len(Q):
        raise DimensionMismatch(f"need stacks Q (k, n, n) and A (k, m, n, n), "
                                f"got {Q.shape} and {A.shape}")
    k, m, n = len(A), A.shape[1], Q.shape[-1]
    if (nbytes := (4 + 2 * m) * k * n * n * 16) > BATCH_BUDGET_BYTES:
        raise OperatorTooLarge(f"a batch of k={k} solves at n={n}, m={m} needs {nbytes} B of "
                               f"stacks, above the budget of {BATCH_BUDGET_BYTES} B")
    settings = settings or SolveSettings()
    if not k:
        return []
    hermitian = not allow_nonhermitian
    _validate_stack(Q, A, hermitian)
    if hermitian:
        apply_map, norm, breakdown = _cholesky_map, _hermitian_norm, "lost positive definiteness"
    else:
        apply_map, norm, breakdown = _lu_map, linalg.spectral_norm, "is singular"
    Ah = A.swapaxes(1, 2).reshape(k, A.shape[2], m * A.shape[3])  # [A1 ... Am] per member
    X = _initial_iterates(Q, settings, hermitian)

    named = k > 1  # errors name the member
    rounds = 0  # rounds taken: each member still in the stacks took part in all
    alive = np.arange(k)  # the batch index of each stack row, ascending
    # residuals now (r0) and one and two fixed-point iterates back; a round
    # without trials only renames them, so other rounds edit copies
    r0 = r1 = r2 = np.zeros(k)
    # rounds - last_trial fixed-point steps since a member's last trial; from round calm on, >= 5
    last_trial, calm = np.zeros(k, dtype=int), 5
    unrecorded = np.zeros(k, dtype=int)  # trials that evaluated no residual
    newton: set[int] = set()  # members in a Newton phase
    phases: dict[int, _Member] = {}  # members whose switch rule has fired
    entries: list[tuple[Array, Array]] = []  # (batch indices, residuals) in evaluation order
    finished: list[tuple[Array, float, int]] = [None] * k  # X, residual, iterations

    def step(Q: Array, Ah: Array, X: Array, rows, start: bool = False):
        """F(X), L and G of the stacked members at ``rows`` (L, G None in raw mode)."""
        try:
            out = apply_map(Q, Ah, X)
        except np.linalg.LinAlgError as exc:
            failure, culprit = exc, rows[0]
            for j in range(len(rows)) if len(rows) > 1 else ():
                try:  # one member at a time, to name the one that broke down
                    apply_map(Q[j], Ah[j], X[j])
                except np.linalg.LinAlgError as exc_j:
                    failure, culprit = exc_j, rows[j]
                    break
            what = "starting matrix" if start else f"iterate {rounds - unrecorded[culprit] + 1}"
            who = f"instance {alive[culprit]}: " if named else ""
            raise SingularIterate(f"{who}{what} {breakdown}") from failure
        return out if hermitian else (out, None, None)

    FX, L, G = step(Q, Ah, X, range(k), start=True)
    while True:
        trials = {int(np.searchsorted(alive, i)): "newton" for i in newton}
        if hermitian and rounds >= 5 and len(newton) < len(alive):
            slow = r0 > 0.25 * r2
            if rounds < calm:
                slow &= last_trial <= rounds - 5
            for j in slow.nonzero()[0].tolist() if slow.any() else ():
                trial = phases.setdefault(int(alive[j]), _Member()).switch(r0[j], r2[j], FX[j])
                if trial is not None:
                    trials[j] = trial
        if not trials:  # the whole stack steps: no copies
            X, FX, L, G = FX, None, None, None  # the old L and G go before the new are made
            FX, L, G = step(Q, Ah, X, range(len(alive)))
            res = norm(FX - X)
            r0, r1, r2 = res, r0, r1
            entries.append((alive, res))
        else:
            r0 = r0.copy()  # the trials write into it
            stepping = np.ones(len(alive), dtype=bool)
            stepping[list(trials)] = False
            if stepping.any():
                fixed = stepping.nonzero()[0]
                X[fixed] = FX[fixed]
                FXf, LF, GF = step(Q[fixed], Ah[fixed], X[fixed], fixed)
                res = norm(FXf - X[fixed])
                FX[fixed], L[fixed], G[fixed] = FXf, LF, GF
                r1, r2 = r1.copy(), r2.copy()
                r2[fixed], r1[fixed], r0[fixed] = r1[fixed], r0[fixed], res
                entries.append((alive[fixed], res))
        rounds += 1
        for j, trial in trials.items():
            i = int(alive[j])
            res_y, accepted, in_newton = phases[i].try_trial(trial, r0[j], Q[j], Ah[j], X[j], FX[j],
                                                             L[j], G[j], settings.tol)
            last_trial[j], calm = rounds, rounds + 5
            (newton.add if in_newton else newton.discard)(i)
            if res_y is None:
                unrecorded[j] += 1
            else:
                entries.append((alive[j : j + 1], np.array([res_y])))
            if accepted is not None:
                r0[j] = res_y
                X[j], FX[j], L[j], G[j] = accepted
        if r0.min() < settings.tol or rounds >= settings.max_iter:
            done = r0 < settings.tol
            if rounds >= settings.max_iter:
                done |= unrecorded <= rounds - settings.max_iter
            for i, Xi, res_i, u in zip(alive[done].tolist(), X[done], r0[done].tolist(),
                                       unrecorded[done].tolist()):
                finished[i] = (Xi, res_i, rounds - u)
                newton.discard(i)
            if done.all():
                break
            keep = np.flatnonzero(~done)  # compact the stacks
            alive, last_trial, unrecorded = alive[keep], last_trial[keep], unrecorded[keep]
            r0, r1, r2 = r0[keep], r1[keep], r2[keep]
            Q, Ah, X, FX = Q[keep], Ah[keep], X[keep], FX[keep]
            if hermitian:
                L, G = L[keep], G[keep]

    histories = [[] for _ in range(k)]
    for ids, res in entries:
        for i, r in zip(ids.tolist(), res.tolist()):
            histories[i].append(r)
    return [SolveReport(X=Xi, iterations=its, residual_norm=res_i,
                        converged=res_i < settings.tol, history=tuple(histories[i]),
                        newton_steps=phases.get(i, _Member()).newton_steps)
            for i, (Xi, res_i, its) in enumerate(finished)]


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


def scalar_solution(a: list[complex] | tuple[complex, ...], q: float) -> float:
    """Closed-form 1x1 solution x = (q + sqrt(q^2 + 4*sum|a_i|^2))/2."""
    s = sum(abs(ai) ** 2 for ai in a)
    return (q + np.sqrt(q * q + 4.0 * s)) / 2.0
