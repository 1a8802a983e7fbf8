"""Rice-style condition numbers of the solution, complex and real case.

The first-order map from data perturbations to the solution perturbation is
one real block row whose spectral norm, scaled by the weight xi, is the
condition number.  :func:`_condition` builds both cases' rows from L^-1 and
the B_i, with M1, M2 the O(n^5) structured products L^-1 kron(I, B_i*) and
L^-1 kron(B_i^T, I) Pi of :mod:`matfix.operators`:

* complex case: the textbook row is 2n^2 x 2n^2(m+1), on (Re, Im) of data
  and vec dX.  Its dA blocks map into Hermitian matrices and L^-1 keeps
  Hermitian and skew parts apart, so in (Hermitian, skew) output coordinates
  its Gram matrix is diag(G_H, rho^2 R R^T), and G_H = rho^2 R R^T +
  sum(eta_i^2 V_i V_i^T) dominates: the norm is that of the n^2 x n^2(2m+1)
  row (rho R, eta_i V_i), R the real form of L^-1, V_i = [Re S + Im S,
  Re D - Im D] for S = M1 + M2 and D = M1 - M2, on the bundle's L^-1;
* real case: the row (rho L^-1, eta_i (M1 + M2)) with B_i = C_i^T for
  C_i = A_i^T X^-1, so L_rep = I + sum(kron(C_i, C_i)).  L^-1 is formed
  here, because X may be a nonsymmetric raw-mode solution.

Absolute mode uses unit weights; relative mode uses Frobenius norms of the
data (eta_i = ||A_i||_F, rho = ||Q||_F, xi = ||X||_F).

``cond_fd_oracle`` is an independent Monte-Carlo lower estimate obtained
from actual perturbed solves; it never consults the block formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotReal
from .operators import OperatorBundle, _structured_products, l_representation, require_dense_budget
from .solver import EquationInstance, SolveSettings, solve

Array = np.ndarray

# cond_real accepts complex input whose imaginary part is below this
# fraction of its largest entry modulus (floored at 1)
IMAG_TOL = 1e-12


@dataclass(frozen=True)
class ConditionReport:
    mode: str
    case: str
    value: float
    xi: float
    rho: float
    etas: tuple[float, ...]


def _weights(instance: EquationInstance, X: Array, mode: str) -> tuple[float, float, tuple[float, ...]]:
    if mode == "absolute":
        return 1.0, 1.0, tuple(1.0 for _ in instance.A)
    if mode == "relative":
        xi = linalg.frobenius_norm(X)
        rho = linalg.frobenius_norm(instance.Q)
        etas = tuple(linalg.frobenius_norm(Ai) for Ai in instance.A)
        return xi, rho, etas
    raise ValueError(f"mode must be 'absolute' or 'relative', got {mode!r}")


def _condition(
    instance: EquationInstance, X: Array, L_inv: Array, B, mode: str, case: str
) -> ConditionReport:
    """Condition number from the block row of L^-1 and the B_i (module docstring)."""
    n, N, m = instance.n, instance.n ** 2, len(B)
    xi, rho, etas = _weights(instance, X, mode)
    width = 1 if case == "real" else 2  # blocks per dA_i
    require_dense_budget(n, m, 1 + width * m, float)  # the row
    row = np.empty((N, N * (1 + width * m)))
    np.multiply(linalg.real_form(L_inv, n), rho, out=row[:, :N])
    for i, Bi in enumerate(B):
        M1, M2 = _structured_products(L_inv, Bi)
        blocks = row[:, N * (1 + width * i) : N * (1 + width * (i + 1))]
        if case == "real":
            np.add(M1, M2, out=blocks)
        else:
            S, D = M1 + M2, M1 - M2
            np.add(S.real, S.imag, out=blocks[:, :N])
            np.subtract(D.real, D.imag, out=blocks[:, N:])
        blocks *= etas[i]
    return ConditionReport(
        mode=mode,
        case=case,
        value=linalg.spectral_norm(row) / xi,
        xi=xi,
        rho=rho,
        etas=etas,
    )


def cond_complex(
    instance: EquationInstance,
    X: Array,
    bundle: OperatorBundle,
    mode: str = "relative",
) -> ConditionReport:
    """Condition number from the complex-case block construction, on the bundle's L^-1."""
    return _condition(instance, X, bundle.L_inv, bundle.B, mode, "complex")


def _require_real(M: Array, what: str) -> Array:
    M = np.asarray(M)
    if np.iscomplexobj(M):
        scale = max(float(np.abs(M).max()), 1.0)
        if float(np.abs(M.imag).max()) > IMAG_TOL * scale:
            raise NotReal(f"{what} has imaginary part beyond tolerance {IMAG_TOL}")
        return np.ascontiguousarray(M.real)
    return np.asarray(M, dtype=float)


def cond_real(
    instance: EquationInstance,
    X: Array,
    mode: str = "relative",
) -> ConditionReport:
    """Condition number for real data via the real-case block construction.

    The formula is applied with C_i = A_i^T X^-1 exactly as written, so it
    also accepts a nonsymmetric real X from a raw-mode solve.
    """
    n = instance.n
    Xr = _require_real(X, "X")
    _require_real(instance.Q, "Q")
    As = [_require_real(Ai, f"A[{i}]") for i, Ai in enumerate(instance.A)]
    require_dense_budget(n, len(As), 2, float)  # I + sum(kron(C_i, C_i)) and its inverse
    Xinv = linalg.inverse(Xr)
    B = tuple((Ai.T @ Xinv).T for Ai in As)
    return _condition(instance, Xr, linalg.inverse(l_representation(B, n)), B, mode, "real")


def _is_real_instance(instance: EquationInstance) -> bool:
    return float(np.abs(instance.Q.imag).max(initial=0.0)) == 0.0 and all(
        float(np.abs(Ai.imag).max(initial=0.0)) == 0.0 for Ai in instance.A
    )


def _random_direction(
    rng: np.random.Generator, instance: EquationInstance, kind: int, real_case: bool
) -> tuple[list[Array], Array]:
    """Directions cycle through: full random, pure dQ, pure single dA_i.

    Pure-block directions matter: for near-degenerate maxima (all A_i = 0,
    say) a uniformly random direction wastes most of its weight on blocks the
    solution does not react to, and the Monte-Carlo maximum would stall far
    below the condition number.
    """
    n, m = instance.n, instance.m

    def rmat() -> Array:
        G = rng.standard_normal((n, n))
        if not real_case:
            G = G + 1j * rng.standard_normal((n, n))
        return G

    dA = [np.zeros((n, n), dtype=float if real_case else complex) for _ in range(m)]
    H = np.zeros((n, n), dtype=float if real_case else complex)
    if kind == 0:
        for i in range(m):
            dA[i] = rmat()
        H = rmat()
    elif kind == 1:
        H = rmat()
    else:
        dA[(kind - 2) % m] = rmat()
    if real_case:
        H = (H + H.T) / 2.0
    else:
        H = linalg.hermitian_part(H)
    return dA, H


def cond_fd_oracle(
    instance: EquationInstance,
    X: Array,
    mode: str = "relative",
    step: float = 1e-6,
    trials: int = 100,
    *,
    seed: int = 0,
    case: str | None = None,
    allow_nonhermitian: bool = False,
    solve_tol: float = 1e-12,
) -> float:
    """Monte-Carlo lower estimate of the condition number by finite differences.

    Each trial draws a deterministic direction (dA_1..dA_m, dQ) of unit
    weighted Frobenius norm, re-solves the perturbed equation at steps
    ``step`` and ``step/2``, and Richardson-extrapolates the two quotients
    ||dX||_F/(xi * delta) to remove the O(step) bias.  The maximum over
    trials approaches the condition number from below as trials grow.
    """
    X = np.asarray(X, dtype=complex)
    xi, rho, etas = _weights(instance, X, mode)
    real_case = case == "real" if case is not None else _is_real_instance(instance)
    settings = SolveSettings(x0=X if allow_nonhermitian else linalg.hermitian_part(X),
                             tol=solve_tol, max_iter=5000)

    best = 0.0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        dA, H = _random_direction(rng, instance, t % (instance.m + 2), real_case)
        w = np.sqrt(
            sum(linalg.frobenius_norm(dA[i]) ** 2 / etas[i] ** 2 for i in range(instance.m))
            + linalg.frobenius_norm(H) ** 2 / rho ** 2
        )
        if w == 0.0:
            continue

        def quotient(delta: float) -> float:
            scale = delta / w
            pert = EquationInstance(
                A=[instance.A[i] + scale * dA[i] for i in range(instance.m)],
                Q=instance.Q + scale * H,
            )
            rep = solve(pert, settings, allow_nonhermitian=allow_nonhermitian)
            return linalg.frobenius_norm(rep.X - X) / (xi * delta)

        e1 = quotient(step)
        e2 = quotient(step / 2.0)
        best = max(best, 2.0 * e2 - e1)
    return best
