import json
from pathlib import Path

import numpy as np
import pytest

from matfix import EquationInstance, PerturbationSpec, SolveSettings, solve
from matfix.examples import benchmark2_delta_norms, benchmark2_random_directions
from matfix.fileio import matrix_to_obj


def vec(M):
    """Stack the columns of M into one vector (column-major)."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v, n):
    """Inverse of :func:`vec` for an n x n matrix."""
    return np.asarray(v).reshape((n, n), order="F")


def vec_permutation(n):
    """The n^2 x n^2 permutation P with vec(E^T) = P vec(E) for every n x n E.

    P is real, orthogonal, symmetric, and an involution.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    return np.eye(n * n)[np.arange(n * n).reshape(n, n).T.reshape(-1)]


def scalar_solution(a, q):
    """Closed-form 1x1 solution x = (q + sqrt(q^2 + 4*sum|a_i|^2))/2."""
    s = sum(abs(ai) ** 2 for ai in a)
    return (q + np.sqrt(q * q + 4.0 * s)) / 2.0


def zero_spec(instance):
    """The zero perturbation of an instance."""
    n = instance.n
    return PerturbationSpec(dA=[np.zeros((n, n)) for _ in range(instance.m)], dQ=np.zeros((n, n)))


def benchmark2_random_deltas(j, rng):
    """One random perturbation draw for benchmark 2, with the exact norms
    10^-j and 3*10^-(j+1) of the deterministic recipe."""
    S = benchmark2_random_directions(rng, 1)[0]
    d1, d2 = benchmark2_delta_norms(j)
    return PerturbationSpec(dA=[d1 * S, d2 * S], dQ=np.zeros((5, 5)))


def write_instance(instance, path):
    """Write an instance file that :func:`matfix.fileio.parse_instance` reads; returns its path."""
    doc = {"n": instance.n, "m": instance.m, "Q": matrix_to_obj(instance.Q),
           "A": [matrix_to_obj(Ai) for Ai in instance.A]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def write_delta(spec, path):
    """Write a perturbation file that :func:`matfix.fileio.parse_delta` reads."""
    doc = {"n": spec.dQ.shape[0], "m": len(spec.dA), "dQ": matrix_to_obj(spec.dQ),
           "dA": [matrix_to_obj(D) for D in spec.dA]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


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
