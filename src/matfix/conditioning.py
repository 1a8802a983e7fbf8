"""Rice-style condition numbers of the solution, complex and real case.

The first-order map from data perturbations to the solution perturbation is
one real block row whose spectral norm, scaled by the weight xi, is the
condition number.  Both cases are built from L^-1 and the B_i, with M1, M2
the O(n^5) structured products L^-1 kron(I, B_i*) and L^-1 kron(B_i^T, I) Pi
of :mod:`matfix.operators`:

* complex case: the textbook row is 2n^2 x 2n^2(m+1), on (Re, Im) of data
  and vec dX.  Its dA blocks map into Hermitian matrices and L^-1 keeps
  Hermitian and skew parts apart, so in (Hermitian, skew) output coordinates
  its Gram matrix is diag(G_H, rho^2 R R^T), and G_H = rho^2 R R^T +
  sum(eta_i^2 V_i V_i^T) dominates: the norm is that of the n^2 x n^2(2m+1)
  row (rho R, eta_i V_i), R the real form of L^-1, V_i = [Re S + Im S,
  Re D - Im D] for S = M1 + M2 and D = M1 - M2, on the bundle's L^-1;
* real case: the row (rho L^-1, eta_i (M1 + M2)) with B_i = C_i^T for
  C_i = A_i^T X^-1, so L_rep = I + sum(kron(C_i, C_i)).  For an exactly
  symmetric X, C_i^T = X^-1 A_i, and a float64 bundle at X already holds
  these B_i and L^-1; otherwise (a nonsymmetric raw-mode solution, say)
  L^-1 is formed here.

On real data (:func:`_condition_split`) every B_i is real, and in the
svec/avec basis U = [U_s, U_a] of :mod:`matfix.operators` L^-1 =
U diag(Ls^-1, La^-1) U^T.  S = L^-1 K_i^+ with K_i^+(Z) = B_i^T Z + Z^T B_i
has symmetric output, D = L^-1 K_i^- with K_i^-(Z) = B_i^T Z - Z^T B_i
antisymmetric output (on real data V_i = [S, D]).  So either row's Gram
matrix is block diagonal in U:

    Sym:  rho^2 Ls^-1 Ls^-T + sum(eta_i^2 S_i S_i^T),   S_i = U_s^T S,
    Anti: rho^2 La^-1 La^-T [+ sum(eta_i^2 D_i D_i^T),  D_i = U_a^T D,
                              complex case only],

and the value is the larger of the norms of the s x (s + mN) row
(rho Ls^-1, eta_i S_i) and of the Anti row, s = n(n+1)/2 and N = n^2.
S_i and D_i are the structured products on the lifted rows U_s^T L^-1 and
U_a^T L^-1 (:func:`matfix.linalg.sym_anti_rows`).  The blocks come from a
bundle's L^-1 by an O(N^2) gather (:func:`matfix.linalg.sym_anti_blocks`),
or, for a nonsymmetric X, from inverting the blocks of its own L_rep.

Each call counts the float64 entries alive at its peak against the dense
budget before it allocates them: the rows, spectral_norm's scaled copy,
Gram matrix and eigensolver copy, and on real data the two blocks.

Absolute mode uses unit weights; relative mode uses Frobenius norms of the
data (eta_i = ||A_i||_F, rho = ||Q||_F, xi = ||X||_F).

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
    _structured_products,
    block_inverse_peak,
    l_representation,
    require_dense_budget,
    split_orders,
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


def _condition(
    instance: EquationInstance, X: Array, L_inv: Array, B, mode: str
) -> ConditionReport:
    """Complex case on complex data: the n^2 x n^2(2m+1) row (rho R, eta_i V_i)."""
    n, N, m = instance.n, instance.n ** 2, len(B)
    xi, rho, etas = _weights(instance, X, mode)
    # the row, then spectral_norm's scaled copy of it, Gram matrix and
    # eigensolver copy; while a dA_i block is formed, the row and the two
    # complex structured products, fewer for every m >= 1
    require_dense_budget(n, m, 2 * (2 * m + 1) * N * N + 2 * N * N)
    row = np.empty((N, N * (1 + 2 * m)))
    np.multiply(linalg.real_form(L_inv, n), rho, out=row[:, :N])
    for i, Bi in enumerate(B):
        M1, M2 = _structured_products(L_inv, Bi)
        blocks = row[:, N * (1 + 2 * i) : N * (3 + 2 * i)]
        # Re S + Im S and Re D - Im D for S = M1 + M2, D = M1 - M2, in place
        re, im = blocks[:, :N], blocks[:, N:]
        np.add(M1.real, M2.real, out=re)
        np.add(M1.imag, M2.imag, out=im)
        re += im
        np.subtract(M1.real, M2.real, out=im)
        np.subtract(M1.imag, M2.imag, out=M1.imag)
        im -= M1.imag
        del M1, M2
        blocks *= etas[i]
    return ConditionReport(mode=mode, case="complex", value=linalg.spectral_norm(row) / xi,
                           xi=xi, rho=rho, etas=etas)


def _split_peak(n: int, m: int, case: str) -> int:
    """float64 entries alive at the peak of :func:`_condition_split`.

    Ls^-1 and La^-1 throughout (and two gathers of order a while they are
    formed from a bundle's L^-1); per part, its row, and either the lifted
    rows and two structured products of one dA_i block, or spectral_norm's
    scaled copy, Gram matrix and eigensolver copy.
    """
    s, a, N = split_orders(n)
    held = s * s + a * a
    peak = held + 2 * a * a
    for k, width in ((s, m), (a, m if case == "complex" else 0)):
        row = k * (k + width * N)
        peak = max(peak, held + row + max(3 * k * N if width else 0, row + 2 * k * k))
    return peak


def _condition_split(
    instance: EquationInstance, X: Array, inverses: tuple[Array, Array], B, mode: str, case: str
) -> ConditionReport:
    """Either case on real data, from the blocks (Ls^-1, La^-1) of L^-1 (module docstring)."""
    n, N = instance.n, instance.n ** 2
    xi, rho, etas = _weights(instance, X, mode)
    norms = []
    for inv, anti in zip(inverses, (False, True)):
        k, width = inv.shape[0], len(B) if case == "complex" or not anti else 0
        row = np.empty((k, k + width * N))
        np.multiply(inv, rho, out=row[:, :k])
        if width:
            lifted = linalg.sym_anti_rows(inv, n, anti)  # U_s^T L^-1 or U_a^T L^-1
            for i, Bi in enumerate(B):
                M1, M2 = _structured_products(lifted, Bi)
                block = row[:, k + N * i : k + N * (i + 1)]
                (np.subtract if anti else np.add)(M1, M2, out=block)  # D or S rows
                del M1, M2
                block *= etas[i]
            del lifted, block
        norms.append(linalg.spectral_norm(row))
        del row
    return ConditionReport(mode=mode, case=case, value=max(norms) / xi, xi=xi, rho=rho, etas=etas)


def cond_complex(
    instance: EquationInstance,
    X: Array,
    bundle: OperatorBundle,
    mode: str = "relative",
) -> ConditionReport:
    """Condition number from the complex-case block construction, on the bundle's L^-1."""
    if bundle.L_inv.dtype != np.float64:
        return _condition(instance, X, bundle.L_inv, bundle.B, mode)
    require_dense_budget(instance.n, bundle.m, _split_peak(instance.n, bundle.m, "complex"))
    inverses = linalg.sym_anti_blocks(bundle.L_inv, instance.n)
    return _condition_split(instance, X, inverses, bundle.B, mode, "complex")


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
    its B and L^-1 are then the real case's, up to rounding.
    """
    n = instance.n
    Xr = _require_real(X, "X")
    _require_real(instance.Q, "Q")
    As = [_require_real(Ai, f"A[{i}]") for i, Ai in enumerate(instance.A)]
    split = _split_peak(n, len(As), "real")
    if bundle is not None and bundle.L_inv.dtype == np.float64 and np.array_equal(Xr, Xr.T):
        require_dense_budget(n, len(As), split)
        inverses = linalg.sym_anti_blocks(bundle.L_inv, n)
        return _condition_split(instance, Xr, inverses, bundle.B, mode, "real")
    require_dense_budget(n, len(As), max(block_inverse_peak(n), split))
    Xinv = linalg.inverse(Xr)
    B = tuple((Ai.T @ Xinv).T for Ai in As)
    Ls, La = linalg.sym_anti_blocks(l_representation(B, n), n)  # I + sum(kron(C_i, C_i))
    inverses = linalg.inverse(Ls), linalg.inverse(La)
    del Ls, La
    return _condition_split(instance, Xr, inverses, B, mode, "real")


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
