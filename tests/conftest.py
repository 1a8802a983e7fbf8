import numpy as np
import pytest

from matfix import EquationInstance, SolveSettings, solve, unvec, vec


def make_random_instance(rng, n=None, m=None, coeff_scale=0.5, complex_data=True):
    """Random instance with lambda_min(Q) >= 1 and sum||A_i||^2 < coeff_scale^2.

    Keeping the coefficients comfortably inside beta^2 makes every bound
    (xi1, xi2, xi3, backward) applicable, which is what the property sweeps
    need; scale up coeff_scale to probe the infeasible regimes.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    if m is None:
        m = int(rng.integers(1, 4))
    G = rng.standard_normal((n, n))
    if complex_data:
        G = G + 1j * rng.standard_normal((n, n))
    Q = G @ G.conj().T + n * np.eye(n)
    Q = (Q + Q.conj().T) / 2
    # normalize so lambda_min(Q) = 1, keeping beta >= 1
    lam_min = np.linalg.eigvalsh(Q)[0]
    Q = Q / lam_min
    A = []
    for _ in range(m):
        Gi = rng.standard_normal((n, n))
        if complex_data:
            Gi = Gi + 1j * rng.standard_normal((n, n))
        Gi = Gi / np.linalg.norm(Gi, 2)
        A.append(coeff_scale / np.sqrt(m) * Gi)
    return EquationInstance(A=A, Q=Q)


def solve_tight(instance, tol=1e-13):
    rep = solve(instance, SolveSettings(tol=tol, max_iter=5000))
    assert rep.converged
    return rep.X


def assert_same_report(got, lone):
    """Two solve reports agree bit for bit."""
    assert np.array_equal(got.X, lone.X)
    assert got.iterations == lone.iterations
    assert got.history == lone.history
    assert got.residual_norm == lone.residual_norm
    assert got.converged == lone.converged
    assert got.newton_steps == lone.newton_steps


def operator_matrix_by_basis(B, n):
    """Independent build of the vec-representation of W -> W + sum(Bi* W Bi).

    Applies the operator entrywise to the canonical basis, never using the
    Kronecker identity the production code relies on.
    """
    cols = []
    for idx in range(n * n):
        E = np.zeros(n * n, dtype=complex)
        E[idx] = 1.0
        W = unvec(E, n)
        out = W + sum(Bi.conj().T @ W @ Bi for Bi in B)
        cols.append(vec(out))
    return np.column_stack(cols)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def random_instance():
    return make_random_instance
