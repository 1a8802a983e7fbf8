import math

import numpy as np
import pytest

from matfix import (
    EquationInstance,
    NotPositiveDefinite,
    SolveSettings,
    backward_bound,
    solve,
    spectral_norm,
)
from matfix.examples import benchmark_instance, tridiagonal_seed
from matfix.solver import _hermitian_map
from tests.conftest import make_random_instance, solve_tight


def trajectory(instance, X0, steps):
    X = X0.astype(complex)
    out = []
    for _ in range(steps):
        X = _hermitian_map(instance, X)[0]
        out.append(X)
    return out


class TestBackwardBound:
    def test_exact_solution_gives_zero_bound(self):
        inst = EquationInstance(A=[np.array([[1.0]]), np.array([[1.0]])], Q=np.array([[1.0]]))
        rep = backward_bound(inst, np.array([[2.0]]))
        assert rep.feasible
        assert rep.bound <= 1e-14
        assert rep.residual_norm <= 1e-14

    def test_benchmark3_published_rows(self):
        inst = benchmark_instance(3)
        iters = trajectory(inst, tridiagonal_seed(), 4)
        published = {1: 5.1435e-4, 2: 5.9000e-6, 3: 6.7689e-8, 4: 7.7656e-10}
        for k, Xt in enumerate(iters, start=1):
            rep = backward_bound(inst, Xt)
            assert rep.feasible
            assert rep.bound == pytest.approx(published[k], rel=1e-3)

    def test_domination_along_trajectory(self):
        inst = benchmark_instance(3)
        Xref = solve(inst, SolveSettings(x0=tridiagonal_seed(), tol=1e-13, max_iter=2000)).X
        for Xt in trajectory(inst, tridiagonal_seed(), 4):
            rep = backward_bound(inst, Xt)
            assert rep.feasible
            assert spectral_norm(Xt - Xref) <= rep.bound

    def test_monotone_shrinkage(self):
        inst = benchmark_instance(3)
        bounds = [backward_bound(inst, Xt).bound for Xt in trajectory(inst, tridiagonal_seed(), 4)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_domination_random_instances(self, rng):
        for _ in range(8):
            inst = make_random_instance(rng, coeff_scale=0.45)
            Xref = solve_tight(inst)
            for Xt in trajectory(inst, inst.Q, 3):
                rep = backward_bound(inst, Xt)
                if rep.feasible:
                    assert spectral_norm(Xt - Xref) <= rep.bound + 1e-10

    def test_infeasible_is_reported_not_raised(self):
        # far-off approximant: huge residual relative to the threshold
        inst = benchmark_instance(3)
        rep = backward_bound(inst, 1e-3 * np.eye(5))
        assert not rep.feasible
        assert rep.Sigma >= 1.0 or rep.residual_norm >= rep.threshold
        assert rep.residual_norm > 0

    def test_sigma_diagnostics_always_present(self):
        inst = benchmark_instance(3)
        rep = backward_bound(inst, 100.0 * np.eye(5))
        assert math.isfinite(rep.Sigma)
        assert math.isfinite(rep.residual_norm)
        assert math.isfinite(rep.threshold)

    def test_rejects_non_pd(self):
        inst = benchmark_instance(3)
        with pytest.raises(NotPositiveDefinite):
            backward_bound(inst, -np.eye(5))

    def test_no_nan_on_feasible_inputs(self, rng):
        for _ in range(10):
            inst = make_random_instance(rng, coeff_scale=0.4)
            for Xt in trajectory(inst, inst.Q, 2):
                rep = backward_bound(inst, Xt)
                if rep.feasible:
                    assert math.isfinite(rep.theta)
                    assert math.isfinite(rep.bound)
                    assert rep.theta > 0

    def test_theta_within_range_when_feasible(self):
        inst = benchmark_instance(3)
        Xt = trajectory(inst, tridiagonal_seed(), 1)[0]
        rep = backward_bound(inst, Xt)
        lam_min = np.linalg.eigvalsh(Xt.real).min()
        assert rep.feasible
        assert 0 < rep.theta <= lam_min / rep.residual_norm


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call is recorded; return the record."""
    calls = []
    wrapped = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(None) or wrapped(*a, **k))
    return calls


class TestOneCholeskyFactor:
    # the certificate's R, Sigma and definiteness verdict come from one
    # eigensolve of Xt and the solver's own Cholesky map, with no inverse

    def test_no_inverse_and_one_eigensolve_per_norm(self, monkeypatch):
        inst = benchmark_instance(1)
        Xt = solve(inst, SolveSettings(tol=1e-12)).X
        inv = count_calls(monkeypatch, np.linalg, "inv")
        eig = count_calls(monkeypatch, np.linalg, "eigvalsh")
        backward_bound(inst, Xt)
        # lambda_min and lambda_max of Xt, ||R||, and ||Xt^-1 Ai|| for each i
        assert len(inv) == 0
        assert len(eig) == 2 + inst.m == 4

    def test_sigma_is_that_of_the_inverse(self, rng):
        for _ in range(5):
            inst = make_random_instance(rng, coeff_scale=0.45)
            Xt = solve_tight(inst)
            Xinv = np.linalg.inv(Xt)
            Sigma = sum(np.linalg.norm(Xinv @ Ai, 2) ** 2 for Ai in inst.A)
            assert backward_bound(inst, Xt).Sigma == pytest.approx(Sigma, rel=1e-12)

    def test_below_the_definiteness_floor_is_not_positive_definite(self):
        # 1e-17 is below n eps lambda_max = 1.1e-15
        inst = benchmark_instance(1)
        with pytest.raises(NotPositiveDefinite):
            backward_bound(inst, np.diag([1e-17, 1.0, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("tiny", [1e-14, 2e-15])
    def test_ill_conditioned_above_the_floor_is_reported(self, tiny):
        # at 2e-15 the condition number 5e14 is above 0.1/eps, yet the Cholesky
        # factor exists: an infeasible report, not an error
        inst = benchmark_instance(1)
        rep = backward_bound(inst, np.diag([tiny, 1.0, 1.0, 1.0, 1.0]))
        assert not rep.feasible
        assert math.isfinite(rep.Sigma) and math.isfinite(rep.residual_norm)
