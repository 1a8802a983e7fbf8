import numpy as np
import pytest

from matfix import (
    DimensionMismatch,
    EquationInstance,
    MatfixError,
    NotHermitian,
    NotPositiveDefinite,
    SingularIterate,
    SolveSettings,
    ValidationError,
    is_positive_definite,
    residual,
    scalar_solution,
    solve,
    spectral_norm,
    validate,
)
from matfix.bounds import coarse_interval
from matfix.examples import benchmark_instance
from matfix.reference_values import BENCHMARK1
from tests.conftest import make_random_instance


class TestValidate:
    def test_benchmark_instance_passes(self):
        validate(benchmark_instance(1))

    def test_non_pd_q(self):
        inst = EquationInstance(A=[np.eye(2)], Q=np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            validate(inst)

    def test_dimension_mismatch(self):
        inst = EquationInstance(A=[np.eye(4)], Q=np.eye(5))
        with pytest.raises(DimensionMismatch):
            validate(inst)

    def test_non_hermitian_q(self):
        Q = np.eye(3)
        Q[0, 1] = 0.5
        inst = EquationInstance(A=[np.zeros((3, 3))], Q=Q)
        with pytest.raises(NotHermitian):
            validate(inst)

    def test_reports_every_violation(self):
        Q = np.diag([1.0, -1.0])
        Q2 = Q.copy()
        Q2[0, 1] = 0.3  # non-Hermitian AND wrong-size A
        inst = EquationInstance(A=[np.eye(3)], Q=Q2)
        with pytest.raises(ValidationError) as exc:
            validate(inst)
        kinds = {type(v) for v in exc.value.violations}
        assert DimensionMismatch in kinds and NotHermitian in kinds

    def test_no_coefficients(self):
        inst = EquationInstance(A=[], Q=np.eye(2))
        with pytest.raises(DimensionMismatch):
            validate(inst)


class TestSolve:
    def test_benchmark1_exact_protocol(self):
        rep = solve(benchmark_instance(1), SolveSettings(x0=1.1, tol=1e-10))
        assert rep.converged
        assert rep.iterations == 11
        assert rep.residual_norm == pytest.approx(4.8477e-11, rel=1e-3)
        assert np.abs(rep.X.real - np.array(BENCHMARK1["X"])).max() < 5e-4
        assert np.abs(rep.X.imag).max() == 0.0

    def test_zero_coefficients_converge_immediately(self):
        Q = np.diag([2.0, 5.0])
        rep = solve(EquationInstance(A=[np.zeros((2, 2))], Q=Q))
        assert rep.converged and rep.iterations == 1
        assert np.allclose(rep.X, Q)

    def test_scalar_closed_form(self):
        inst = EquationInstance(A=[np.array([[1.0]]), np.array([[1.0]])], Q=np.array([[1.0]]))
        rep = solve(inst, SolveSettings(tol=1e-13))
        assert rep.X[0, 0].real == pytest.approx(2.0, abs=1e-12)

    def test_scalar_oracle_sweep(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 4))
            a = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(m)]
            q = float(rng.uniform(0.1, 10.0))
            inst = EquationInstance(A=[np.array([[ai]]) for ai in a], Q=np.array([[q]]))
            rep = solve(inst, SolveSettings(tol=1e-14, max_iter=5000))
            assert rep.converged
            assert rep.X[0, 0].real == pytest.approx(scalar_solution(a, q), abs=1e-12)

    def test_uniqueness_from_two_starts(self, rng):
        for _ in range(5):
            inst = make_random_instance(rng)
            r1 = solve(inst, SolveSettings(x0=None, tol=1e-10, max_iter=3000))
            r2 = solve(inst, SolveSettings(x0=10.0, tol=1e-10, max_iter=3000))
            assert r1.converged and r2.converged
            assert spectral_norm(r1.X - r2.X) <= 10 * 1e-10

    def test_interval_membership(self, rng):
        inst = make_random_instance(rng)
        rep = solve(inst, SolveSettings(tol=1e-11))
        box = coarse_interval(inst)
        slack = 10 * rep.residual_norm + 1e-10
        lo = np.linalg.eigvalsh(rep.X - box.lower).min()
        hi = np.linalg.eigvalsh(box.upper - rep.X).min()
        assert lo >= -slack and hi >= -slack

    def test_map_invariance_randomized(self, rng):
        # F maps the coarse interval into itself
        inst = make_random_instance(rng, n=4, m=2)
        box = coarse_interval(inst)
        D = box.upper - box.lower
        w, V = np.linalg.eigh(D)
        Dh = V @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ V.conj().T
        for _ in range(10):
            G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            T = G @ G.conj().T
            T = T / (np.linalg.eigvalsh(T).max() + 1e-12)  # 0 <= T <= I
            Y = box.lower + Dh @ T @ Dh.conj().T
            Y = (Y + Y.conj().T) / 2
            FY = inst.Q + sum(
                Ai.conj().T @ np.linalg.solve(Y, Ai) for Ai in inst.A
            )
            lo = np.linalg.eigvalsh(FY - box.lower).min()
            hi = np.linalg.eigvalsh(box.upper - FY).min()
            assert lo >= -1e-10 and hi >= -1e-10

    def test_residual_history_monotone_from_q(self):
        rep = solve(benchmark_instance(1), SolveSettings(x0=None, tol=1e-12))
        h = rep.history
        assert all(h[i + 1] <= h[i] * (1 + 1e-9) + 1e-15 for i in range(len(h) - 1))

    def test_nonconvergence_reports(self):
        rep = solve(benchmark_instance(1), SolveSettings(x0=1.1, tol=1e-10, max_iter=2))
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.residual_norm >= 1e-10

    def test_converged_x_positive_definite(self, rng):
        inst = make_random_instance(rng)
        rep = solve(inst)
        assert rep.converged
        assert is_positive_definite(rep.X)
        assert np.array_equal(rep.X, rep.X.conj().T)

    def test_explicit_x0_and_bad_shape(self):
        inst = benchmark_instance(1)
        rep = solve(inst, SolveSettings(x0=np.eye(5) * 2.0, tol=1e-10))
        assert rep.converged
        with pytest.raises(DimensionMismatch):
            solve(inst, SolveSettings(x0=np.eye(3)))

    def test_non_pd_x0_rejected(self):
        inst = benchmark_instance(1)
        with pytest.raises(NotPositiveDefinite):
            solve(inst, SolveSettings(x0=-1.0))

    def test_allow_nonhermitian_raw_iteration(self):
        inst = benchmark_instance(4, k=1)
        rep = solve(inst, SolveSettings(tol=1e-10), allow_nonhermitian=True)
        assert rep.converged
        # raw mode keeps the asymmetry of Q in the iterates
        assert spectral_norm(rep.X - rep.X.conj().T) > 1.0

    def test_raw_mode_agrees_on_hermitian_input(self):
        inst = benchmark_instance(1)
        guarded = solve(inst, SolveSettings(tol=1e-12))
        raw = solve(inst, SolveSettings(tol=1e-12), allow_nonhermitian=True)
        assert raw.converged
        assert spectral_norm(guarded.X - raw.X) < 1e-11

    def test_wide_instance_many_coefficients(self, rng):
        inst = make_random_instance(rng, n=4, m=5, coeff_scale=0.6)
        rep = solve(inst, SolveSettings(tol=1e-11))
        assert rep.converged
        _, norm = residual(inst, rep.X)
        assert norm < 1e-11

    def test_integer_input_coercion(self):
        inst = EquationInstance(A=[[[0, 1], [0, 0]]], Q=[[2, 0], [0, 2]])
        rep = solve(inst)
        assert rep.converged
        assert rep.X.dtype == complex

    @pytest.mark.parametrize(
        "k, tol, iterations",
        [(1, 1e-10, 12), (2, 1e-10, 11), (3, 1e-10, 5), (1, 1e-13, 15), (2, 1e-13, 14), (3, 1e-13, 7)],
    )
    def test_benchmark_iteration_counts(self, k, tol, iterations):
        rep = solve(benchmark_instance(k), SolveSettings(tol=tol, max_iter=2000))
        assert rep.converged and rep.iterations == iterations

    def test_factor_failure_is_singular_iterate(self, monkeypatch):
        cholesky = np.linalg.cholesky
        calls = []

        def failing_cholesky(X):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(X)

        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        with pytest.raises(SingularIterate, match="iterate 2 lost positive definiteness") as exc:
            solve(benchmark_instance(1))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_nearly_singular_q(self):
        # contraction rate ~ 1 - 1e-12, so no convergence within the cap; the
        # outcome is a named error or an HPD iterate, never a bare LinAlgError
        inst = EquationInstance(A=[0.1 * np.eye(5)], Q=np.diag([1e-12, 1, 1, 1, 1]))
        try:
            rep = solve(inst, SolveSettings(max_iter=200))
        except MatfixError:
            return
        assert np.isfinite(rep.history).all()
        assert np.array_equal(rep.X, rep.X.conj().T)
        assert np.linalg.eigvalsh(rep.X)[0] > 0
        assert rep.converged == (rep.residual_norm < 1e-10)

    def test_rate_slow_contraction(self):
        rng = np.random.default_rng(0)
        A = []
        for _ in range(2):
            G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            A.append(30.0 * G / np.linalg.norm(G, 2))
        rep = solve(EquationInstance(A=A, Q=np.eye(6)), SolveSettings(max_iter=3000))
        assert rep.converged
        w, V = np.linalg.eigh(rep.X)
        X_mhalf = (V / np.sqrt(w)) @ V.conj().T
        assert 1.0 - np.linalg.eigvalsh(X_mhalf @ X_mhalf)[0] > 0.98  # Q = I
        assert 0.8 < rep.rate < 1.0
        h = np.asarray(rep.history)
        assert rep.rate == np.median(h[1:] / h[:-1])

    def test_rate_needs_three_residuals(self):
        inst = benchmark_instance(1)
        assert solve(inst, SolveSettings(max_iter=2)).rate is None
        assert solve(inst, SolveSettings(max_iter=3)).rate is not None

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolveSettings(tol=0.0)
        with pytest.raises(ValueError):
            SolveSettings(max_iter=0)


class TestResidual:
    def test_exact_scalar_solution(self):
        inst = EquationInstance(A=[np.array([[1.0]]), np.array([[1.0]])], Q=np.array([[1.0]]))
        _, norm = residual(inst, np.array([[2.0]]))
        assert norm <= 1e-14

    def test_residual_at_q(self):
        inst = benchmark_instance(1)
        _, norm = residual(inst, inst.Q)
        expected = spectral_norm(
            sum(Ai.conj().T @ np.linalg.solve(inst.Q, Ai) for Ai in inst.A)
        )
        assert norm == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_pd(self):
        inst = benchmark_instance(1)
        with pytest.raises(NotPositiveDefinite):
            residual(inst, -np.eye(5))

    def test_matches_solver_residual(self, rng):
        inst = make_random_instance(rng, n=12, m=3)
        rep = solve(inst)
        _, norm = residual(inst, rep.X)
        eps = np.finfo(float).eps
        assert abs(norm - rep.residual_norm) <= 100 * 12 * eps * spectral_norm(rep.X)

    def test_converged_residual_below_tol(self, rng):
        inst = make_random_instance(rng)
        rep = solve(inst, SolveSettings(tol=1e-11))
        _, norm = residual(inst, rep.X)
        assert norm < 1e-11
