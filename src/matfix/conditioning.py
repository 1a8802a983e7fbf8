"""Rice-style condition numbers of the solution, complex and real case.

The first-order map from the data (dA_1..dA_m, dQ) to dX is one real block
row Phi = (rho Phi_Q, eta_i Phi_i); the condition number is ||Phi||_2 / xi,
the norm of that map in the sense of Rice (SIAM J. Numer. Anal. 3, 1966).
||Phi||_2^2 is the top eigenvalue of the weighted sum of the blocks' Gram
matrices, Phi Phi^T = rho^2 Phi_Q Phi_Q^T + sum(eta_i^2 Phi_i Phi_i^T).  The
weights change with the mode, the blocks do not, so
:func:`matfix.operators.gram_parts` forms each block M once and keeps
G = (M/c)(M/c)^T, c = max |M_jk|.  With M1, M2 the structured products
L^-1 kron(I, B_i*) and L^-1 kron(B_i^T, I) Pi, S = M1 + M2 = P_i_rep and
D = M1 - M2:

* complex case: the textbook row is 2n^2 x 2n^2(m+1), on (Re, Im) of data
  and vec dX.  Its dA blocks map into Hermitian matrices and L^-1 keeps
  Hermitian and skew parts apart, so in (Hermitian, skew) output
  coordinates its Gram matrix is diag(G_H, rho^2 R^-1 R^-T), R the real
  form of L_rep, and G_H = rho^2 R^-1 R^-T + sum(eta_i^2 (S' S'^T + D' D'^T))
  with S' = Re S + Im S, D' = Re D - Im D dominates: one part, with
  G_Q = R^-1 R^-T, G_S,i = S' S'^T and G_D,i = D' D'^T;
* real case: the row (rho L^-1, eta_i S) with B_i = C_i^T for
  C_i = A_i^T X^-1, so L_rep = I + sum(kron(C_i, C_i)).  At an exactly
  symmetric X, C_i^T = X^-1 A_i and a float64 bundle at X holds these
  Grams; otherwise (a raw-mode solution, say) they are formed here,
  without the surrogates.

On real data L^-1 = U diag(Ls^-1, La^-1) U^T in the svec/avec basis
U = [U_s, U_a] of :mod:`matfix.operators`; S' = S maps into symmetric
matrices (K_i^+(Z) = B_i^T Z + Z^T B_i is symmetric) and D' = D into
antisymmetric ones.  So U^T Phi has Sym rows (rho Ls^-1 U_s^T, eta_i S_i, 0)
and Anti rows (rho La^-1 U_a^T, 0, eta_i D_i), S_i = U_s^T S, D_i = U_a^T D,
whose cross Gram vanishes (U_s^T U_a = 0): Phi Phi^T is block diagonal,

    Sym:  rho^2 Ls^-1 Ls^-T + sum(eta_i^2 S_i S_i^T),
    Anti: rho^2 La^-1 La^-T [+ sum(eta_i^2 D_i D_i^T), complex case only],

and the value is the larger part's, an eigenproblem of order at most
s = n(n+1)/2.

The S-Grams also give n_i = ||P_i||.  For real Z, K_i(Z) = B_i* Z + Z^T B_i
is Hermitian and L^-1 keeps it so: every column of S is the vec of a
Hermitian matrix, Pi conj(S) = S.  With the unitary T = ((1-i) I +
(1+i) Pi)/2, T S = ((1-i) S + (1+i) conj(S))/2 = Re S + Im S = S' is real,
and ||P_i|| = ||T S|| = ||S'||; on real data ||P_i|| = ||U_s S_i|| = ||S_i||.

The weighted sum divides each weight w c by the largest, t, and the value
is t sqrt(lambda_max(sum((w c / t)^2 G))) / xi, so no square overflows.
The sum and its eigensolver copy are counted against the dense budget
before they exist.  Absolute mode uses unit weights; relative mode uses
Frobenius norms of the data (eta_i = ||A_i||_F, rho = ||Q||_F,
xi = ||X||_F).

``cond_fd_oracle`` is an independent Monte-Carlo lower estimate obtained
from actual perturbed solves, all of them one :func:`solve_stack` batch; it
never consults the block formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotReal
from .operators import (
    OperatorBundle,
    gram_parts,
    gram_parts_peak,
    real_form_blocks,
    require_dense_budget,
)
from .solver import EquationInstance, SolveSettings, solve_stack

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


def _sum_peak(order: int) -> int:
    """float64 entries of the weighted sum of the largest part and its eigensolver copy."""
    return 2 * order * order


def _condition(instance: EquationInstance, X: Array, parts, mode: str, case: str) -> ConditionReport:
    """||Phi||_2 / xi from each part's stacked Grams G and scales c (module docstring).

    Each part's stack holds G_Q, then m-block runs of G_S,i or G_D,i, whose
    weights are rho and the eta_i in turn.
    """
    xi, rho, etas = _weights(instance, X, mode)
    require_dense_budget(instance.n, len(etas), _sum_peak(parts[0][0].shape[-1]))
    value = 0.0
    for G, c in parts:
        wc = c * np.array([rho, *etas * ((len(c) - 1) // max(len(etas), 1))])
        top = float(wc.max())
        if top > 0.0:
            weighted = ((wc / top) ** 2 @ G.reshape(len(c), -1)).reshape(G.shape[1:])  # one gemv
            value = max(value, float(linalg.gram_norm(weighted, top)))
            del weighted
    return ConditionReport(mode=mode, case=case, value=value / xi, xi=xi, rho=rho, etas=etas)


def cond_complex(
    instance: EquationInstance,
    X: Array,
    bundle: OperatorBundle,
    mode: str = "relative",
) -> ConditionReport:
    """Condition number of the complex case, from the bundle's Grams."""
    return _condition(instance, X, bundle.grams, mode, "complex")


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
    *,
    bundle: OperatorBundle | None = None,
) -> ConditionReport:
    """Condition number for real data via the real-case block construction.

    The formula is applied with C_i = A_i^T X^-1 exactly as written, so it
    also accepts a nonsymmetric real X from a raw-mode solve.  A ``bundle``
    built at X is reused when it is float64 and X is exactly symmetric:
    its Grams are then the real case's, up to rounding.  The real case
    drops the D-blocks: the Sym part whole, the Anti part's G_Q alone.
    """
    n = instance.n
    Xr = _require_real(X, "X")
    _require_real(instance.Q, "Q")
    As = [_require_real(Ai, f"A[{i}]") for i, Ai in enumerate(instance.A)]
    if bundle is not None and len(bundle.grams) == 2 and np.array_equal(Xr, Xr.T):
        parts = bundle.grams
    else:
        # the condition's weighted sum next to the Grams holds less than a Sym block's products
        require_dense_budget(n, len(As), gram_parts_peak(n, len(As), True, bundle=False))
        Xinv = linalg.inverse(Xr)
        B = tuple((Ai.T @ Xinv).T for Ai in As)
        inverses = tuple(linalg.inverse(M) for M in real_form_blocks(B, n))  # I + sum(kron(C_i, C_i))
        parts = gram_parts(inverses, B, n, bundle=False)
        del inverses
    (G_sym, c_sym), (G_anti, c_anti) = parts
    return _condition(instance, Xr, ((G_sym, c_sym), (G_anti[:1], c_anti[:1])), mode, "real")


def _is_real_instance(instance: EquationInstance) -> bool:
    return float(np.abs(instance.Q.imag).max(initial=0.0)) == 0.0 and all(
        float(np.abs(Ai.imag).max(initial=0.0)) == 0.0 for Ai in instance.A
    )


def _random_directions(
    instance: EquationInstance, trials: int, seed: int, real_case: bool
) -> tuple[Array, Array]:
    """Directions dA (trials, m, n, n) and Hermitian dQ (trials, n, n) of every trial.

    Trial t draws from the generator seeded by (seed, t), and the trials
    cycle through: full random, pure dQ, pure single dA_i.  Pure-block
    directions matter: for near-degenerate maxima (all A_i = 0, say) a
    uniformly random direction wastes most of its weight on blocks the
    solution does not react to, and the Monte-Carlo maximum would stall far
    below the condition number.
    """
    n, m = instance.n, instance.m
    dtype = float if real_case else complex
    dA = np.zeros((trials, m, n, n), dtype=dtype)
    H = np.zeros((trials, n, n), dtype=dtype)
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        kind = t % (m + 2)
        blocks = [*dA[t], H[t]] if kind == 0 else [H[t]] if kind == 1 else [dA[t, (kind - 2) % m]]
        for block in blocks:
            G = rng.standard_normal((n, n))
            block[...] = G if real_case else G + 1j * rng.standard_normal((n, n))
    if real_case:
        return dA, (H + H.swapaxes(-1, -2)) / 2.0
    return dA, linalg.hermitian_part(H)


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
    trials approaches the condition number from below as trials grow.  The
    2 * ``trials`` perturbed equations are solved as one batch, warm-started
    from X.
    """
    X = np.asarray(X, dtype=complex)
    xi, rho, etas = _weights(instance, X, mode)
    real_case = case == "real" if case is not None else _is_real_instance(instance)
    settings = SolveSettings(x0=X if allow_nonhermitian else linalg.hermitian_part(X),
                             tol=solve_tol, max_iter=5000)

    dA, H = _random_directions(instance, trials, seed, real_case)
    w = 0  # the weighted norm of each direction, summed block by block
    for i in range(instance.m):
        w = w + linalg.frobenius_norm(dA[:, i]) ** 2 / etas[i] ** 2
    w = np.sqrt(w + linalg.frobenius_norm(H) ** 2 / rho ** 2)
    nonzero = w != 0.0
    deltas = np.array([step, step / 2.0])
    scale = deltas / w[nonzero, None]  # (trials, 2): unit direction times delta
    A = np.asarray(instance.A) + scale[..., None, None, None] * dA[nonzero, None]
    Q = instance.Q + scale[..., None, None] * H[nonzero, None]
    n, m = instance.n, instance.m  # trial t's two members are rows 2t and 2t + 1
    reports = solve_stack(Q.reshape(-1, n, n), A.reshape(-1, m, n, n), settings,
                          allow_nonhermitian=allow_nonhermitian)
    Xs = np.array([rep.X for rep in reports]).reshape(-1, n, n)
    quotients = linalg.frobenius_norm(Xs - X).reshape(-1, 2) / (xi * deltas)
    return float(np.max(2.0 * quotients[:, 1] - quotients[:, 0], initial=0.0))
