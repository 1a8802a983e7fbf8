"""Property tests (hypothesis): small random stacks, few examples."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from matfix import EquationInstance, SolveSettings, solve, solve_stack  # noqa: E402
from tests.conftest import assert_same_report, vec_permutation  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    k=st.integers(1, 4),
    norm=st.sampled_from([0.3, 3.0, 30.0]),
    complex_data=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_member_equals_lone_solve(n, m, k, norm, complex_data, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((k, m, n, n))
    if complex_data:
        G = G + 1j * rng.standard_normal((k, m, n, n))
    A = norm * G / np.linalg.norm(G, 2, axis=(-2, -1), keepdims=True)
    C = rng.standard_normal((k, n, n))
    Q = C @ C.swapaxes(-1, -2) + np.eye(n)  # symmetric positive definite
    Q = (Q + Q.swapaxes(-1, -2)) / 2
    settings_ = SolveSettings(max_iter=300)
    for j, report in enumerate(solve_stack(Q, A, settings_)):
        assert_same_report(report, solve(EquationInstance(A=A[j], Q=Q[j]), settings_))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    norm=st.sampled_from([0.3, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_p_gram_commutes_with_conjugate_transpose(n, m, norm, seed):
    # P_i P_i* commutes with W -> W*: Pi (P_i P_i*) Pi = conj(P_i P_i*) for the
    # vec-permutation Pi, which makes the real block of P_i norm exact
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    A = norm * G / np.linalg.norm(G, 2, axis=(-2, -1), keepdims=True)
    X = solve(EquationInstance(A=A, Q=np.eye(n)), SolveSettings(tol=1e-13, max_iter=5000)).X
    B = [np.linalg.inv(X) @ Ai for Ai in A]
    eye, P = np.eye(n), vec_permutation(n)
    L_inv = np.linalg.inv(np.eye(n * n) + sum(np.kron(Bi.T, Bi.conj().T) for Bi in B))
    for Bi in B:
        Pi = L_inv @ (np.kron(eye, Bi.conj().T) + np.kron(Bi.T, eye) @ P)
        gram = Pi @ Pi.conj().T
        assert np.abs(P @ gram @ P - gram.conj()).max() <= 1e-13 * np.abs(gram).max()
