from pathlib import Path

import numpy as np
import pytest

from matfix import (
    DimensionMismatch,
    EquationInstance,
    MatfixError,
    NotHermitian,
    NotPositiveDefinite,
    OperatorTooLarge,
    SingularIterate,
    SolveSettings,
    ValidationError,
    is_positive_definite,
    residual,
    scalar_solution,
    solve,
    solve_many,
    solve_stack,
    spectral_norm,
    validate,
)
from matfix import linalg
from matfix import solver as solver_module
from matfix.bounds import coarse_interval
from matfix.examples import benchmark_instance
from matfix.fileio import parse_instance
from matfix.operators import l_representation
from matfix.reference_values import BENCHMARK1
from tests.conftest import assert_same_report, make_random_instance

FIXTURES = Path(__file__).parent / "fixtures"


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


def gaussian_instance(seed, n, m, norm):
    """m complex Gaussian coefficients of spectral norm ``norm``, Q = I."""
    rng = np.random.default_rng(seed)
    A = []
    for _ in range(m):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A.append(norm * G / np.linalg.norm(G, 2))
    return EquationInstance(A=A, Q=np.eye(n))


def _numpy_map(inst, X):
    FX = inst.Q + sum(Ai.conj().T @ np.linalg.solve(X, Ai) for Ai in inst.A)
    return (FX + FX.conj().T) / 2


def plain_fixed_point_count(inst, tol=1e-10, max_iter=1000):
    """Iterations the fixed point alone needs under the solver's stopping
    rule ||herm(F(X_k)) - X_k||_2 < tol, or None at the cap (plain numpy)."""
    X = inst.Q.astype(complex)
    FX = _numpy_map(inst, X)
    for k in range(1, max_iter + 1):
        X, FX = FX, _numpy_map(inst, FX)
        if np.abs(np.linalg.eigvalsh(FX - X)).max() < tol:
            return k
    return None


def tight_fixed_point(inst, max_iter=3000):
    """Plain numpy fixed point run to a relative step of 1e-15 (or the cap)."""
    X = inst.Q.astype(complex)
    for _ in range(max_iter):
        Xn = _numpy_map(inst, X)
        step, X = np.linalg.norm(Xn - X), Xn
        if step <= 1e-15 * np.linalg.norm(X):
            break
    return X


@pytest.fixture
def count_l_actions(monkeypatch):
    """Count calls of the shared L action (one per GMRES matvec)."""
    calls = []
    apply_l = linalg.apply_l

    def counting(B, W):
        calls.append(None)
        return apply_l(B, W)

    monkeypatch.setattr(linalg, "apply_l", counting)
    return calls


def _random_b(rng, n, m, complex_data, norm=0.6):
    B = []
    for _ in range(m):
        G = rng.standard_normal((n, n))
        if complex_data:
            G = G + 1j * rng.standard_normal((n, n))
        B.append(norm / np.sqrt(m) * G / np.linalg.norm(G, 2))
    return tuple(B)


class TestNewtonGmres:
    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_dense_solve(self, n, m, complex_data):
        rng = np.random.default_rng(100 * n + 10 * m + complex_data)
        B = _random_b(rng, n, m, complex_data)
        R = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_data else 0)
        R = linalg.hermitian_part(R + R.conj().T)
        E, solved = linalg.solve_l(B, R, 1e-13, 10_000)
        assert solved
        assert linalg.is_exactly_hermitian(E)
        ref = linalg.unvec(np.linalg.solve(l_representation(B, n), linalg.vec(R)), n)
        assert np.abs(E - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_restarted_run_matches_dense_solve(self, count_l_actions):
        rng = np.random.default_rng(7)
        n = 6
        B = _random_b(rng, n, 1, True, norm=0.99)
        R = linalg.hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        E, solved = linalg.solve_l(B, R, 1e-13, 10_000)
        assert solved
        assert len(count_l_actions) > linalg._GMRES_RESTART + 1  # restarted
        ref = linalg.unvec(np.linalg.solve(l_representation(B, n), linalg.vec(R)), n)
        assert np.abs(E - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_cap_stops_gmres(self, count_l_actions):
        rng = np.random.default_rng(8)
        B = _random_b(rng, 6, 2, True, norm=0.95)
        R = linalg.hermitian_part(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        _, solved = linalg.solve_l(B, R, 1e-13, 5)
        assert not solved
        assert len(count_l_actions) == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_zero_right_hand_side_is_exact(self, count_l_actions, complex_data):
        # a zero R has the zero solution: no product of L, no 0/0
        B = _random_b(np.random.default_rng(9), 4, 2, complex_data)
        E, solved = linalg.solve_l(B, np.zeros((4, 4), dtype=complex), 1e-14, 100)
        assert solved
        assert np.array_equal(E, np.zeros((4, 4))) and not np.signbit(E.view(float)).any()
        assert count_l_actions == []


GRID = [(n, m, a) for n in (6, 16, 48) for m in (1, 2, 3) for a in (0.3, 3.0, 30.0)]


class TestHybridSolver:
    @pytest.mark.parametrize("n, m, norm", GRID)
    def test_agrees_with_tight_fixed_point(self, n, m, norm):
        inst = gaussian_instance(n * 100 + m * 10 + int(norm), n, m, norm)
        X_ref = tight_fixed_point(inst)
        scale = np.linalg.norm(X_ref, 2)
        rep = solve(inst, SolveSettings(tol=1e-13 * scale))
        assert rep.converged
        assert np.linalg.norm(rep.X - X_ref, 2) <= 1e-12 * scale

    @pytest.mark.parametrize("n, m, norm", GRID)
    def test_newton_work_within_fixed_point_work(self, n, m, norm, count_l_actions):
        # fixed-point steps + Newton steps + GMRES matvecs <= the iterations
        # of the fixed point alone
        inst = gaussian_instance(n * 100 + m * 10 + int(norm), n, m, norm)
        rep = solve(inst)
        assert rep.converged and rep.iterations == len(rep.history)
        plain = plain_fixed_point_count(inst)
        if rep.newton_steps == 0:
            assert rep.iterations == plain and not count_l_actions
        else:
            assert rep.iterations + len(count_l_actions) <= plain

    def test_newton_work_m1_n48(self, count_l_actions):
        inst = gaussian_instance(5, 48, 1, 30.0)
        rep = solve(inst)
        assert rep.converged and rep.newton_steps > 0
        assert rep.iterations + len(count_l_actions) <= plain_fixed_point_count(inst)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_benchmarks_never_switch(self, k):
        for settings in (SolveSettings(), SolveSettings(x0=1.1, tol=1e-13, max_iter=2000)):
            assert solve(benchmark_instance(k), settings).newton_steps == 0
        rep = solve(parse_instance(FIXTURES / f"example{k}.json"))
        assert rep.converged and rep.newton_steps == 0

    def test_mild_n128_never_switches(self, count_l_actions):
        rep = solve(gaussian_instance(1, 128, 2, 0.3))
        assert rep.converged and rep.newton_steps == 0 and not count_l_actions

    def test_large_coefficients_converge(self):
        # ||Ai|| = 300: the fixed point alone hits max_iter=1000 here
        inst = gaussian_instance(5, 16, 2, 300.0)
        assert plain_fixed_point_count(inst, max_iter=1000) is None
        rep = solve(inst, SolveSettings(max_iter=1000))
        assert rep.converged and rep.newton_steps > 0
        assert np.linalg.eigvalsh(rep.X)[0] > 0
        R = _numpy_map(inst, rep.X) - rep.X
        assert np.abs(np.linalg.eigvalsh(R)).max() < 2e-10

    def test_nearly_singular_q_converges(self):
        # the fixed point oscillates at rate ~1 - 1e-12 here; the restart
        # X # F(X) and the Newton finish reach the solution diag(0.1, x, ...)
        inst = EquationInstance(A=[0.1 * np.eye(5)], Q=np.diag([1e-12, 1, 1, 1, 1]))
        rep = solve(inst, SolveSettings(max_iter=200))
        assert rep.converged and rep.residual_norm < 1e-10
        assert np.array_equal(rep.X, rep.X.conj().T)
        assert np.linalg.eigvalsh(rep.X)[0] > 0
        R = _numpy_map(inst, rep.X) - rep.X
        assert np.abs(np.linalg.eigvalsh(R)).max() < 1e-10
        assert rep.X[0, 0].real == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("bad", [lambda X: -X, lambda X: 2.0 * X])
    def test_rejected_newton_iterate_falls_back(self, monkeypatch, bad):
        # a Newton iterate that is not positive definite, or that raises the
        # residual, is rejected and the fixed point carries the solve on
        inst = gaussian_instance(5, 16, 2, 30.0)
        expected = solve(inst)
        monkeypatch.setattr(solver_module, "_newton_step", lambda X, *args: (bad(X), True))
        rep = solve(inst)
        assert rep.converged and rep.newton_steps == 0
        assert rep.iterations == len(rep.history)
        assert np.linalg.norm(rep.X - expected.X, 2) <= 1e-9 * np.linalg.norm(expected.X, 2)

    def test_newton_step_capped_at_expected_saving(self, count_l_actions):
        # at rate 0.3 a Newton step to eta = 1e-2 saves log(1e-2)/log(0.3)
        # fixed-point steps, so GMRES gets ceil(3.8) = 4 matvecs
        inst = gaussian_instance(5, 16, 1, 30.0)
        X = inst.Q.astype(complex)
        for _ in range(15):
            X = solver_module._hermitian_map(inst, X)[0]
        FX, L, G = solver_module._hermitian_map(inst, X)
        res = solver_module._hermitian_norm(FX - X)
        assert res > 1e-2
        _, solved = solver_module._newton_step(X, FX, L, G, res, 0.3, 1e-10)
        assert not solved and len(count_l_actions) == 4
        del count_l_actions[:]
        _, solved = solver_module._newton_step(X, FX, L, G, res, 0.9, 1e-10)
        assert solved and len(count_l_actions) < 44

    def test_rounding_floor_does_not_loop_newton(self):
        # tol below the rounding floor of the residual: the solve runs to the
        # cap as the fixed point would, without a Newton phase every few steps
        inst = gaussian_instance(5, 16, 1, 30.0)
        rep = solve(inst, SolveSettings(tol=1e-13, max_iter=300))
        assert not rep.converged and rep.iterations == 300
        assert rep.residual_norm < 1e-10
        assert rep.newton_steps <= 10


class TestSolveMany:
    @pytest.mark.parametrize(
        "settings",
        [SolveSettings(), SolveSettings(tol=1e-13, max_iter=2000), SolveSettings(x0=2.0, max_iter=40)],
    )
    def test_mixed_batch_equals_lone_solves(self, settings):
        # benchmark 1, a mild instance and one that takes Newton steps: the
        # members leave the stacks at different iterations
        batch = [benchmark_instance(1), gaussian_instance(1, 5, 2, 0.3),
                 gaussian_instance(2, 5, 2, 30.0)]
        reports = solve_many(batch, settings)
        lone = [solve(inst, settings) for inst in batch]
        assert lone[2].newton_steps > 0
        assert len({rep.iterations for rep in lone}) == 3
        for got, ref in zip(reports, lone):
            assert_same_report(got, ref)

    def test_restart_member_equals_lone_solve(self):
        # the nearly singular Q takes the X # F(X) restart while its
        # batch-mate takes only fixed-point steps
        batch = [gaussian_instance(3, 5, 1, 0.3),
                 EquationInstance(A=[0.1 * np.eye(5)], Q=np.diag([1e-12, 1, 1, 1, 1]))]
        settings = SolveSettings(max_iter=200)
        reports = solve_many(batch, settings)
        assert reports[1].converged and reports[1].newton_steps > 0
        for got, inst in zip(reports, batch):
            assert_same_report(got, solve(inst, settings))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_raw_batch_equals_lone_solves(self, k):
        batch = [benchmark_instance(4, j) for j in range(1, k + 1)]
        reports = solve_many(batch, SolveSettings(), allow_nonhermitian=True)
        for got, inst in zip(reports, batch):
            assert_same_report(got, solve(inst, SolveSettings(), allow_nonhermitian=True))

    def test_empty_batch(self):
        assert solve_many([]) == []

    @pytest.mark.parametrize("allow_nonhermitian", [False, True])
    def test_mixed_shapes_rejected(self, allow_nonhermitian):
        batch = [benchmark_instance(1), EquationInstance(A=[np.eye(4)] * 2, Q=np.eye(4))]
        with pytest.raises(DimensionMismatch, match="instance 1"):
            solve_many(batch, allow_nonhermitian=allow_nonhermitian)
        batch[1] = EquationInstance(A=[np.eye(5)], Q=np.eye(5))  # m = 1 against m = 2
        with pytest.raises(DimensionMismatch, match="instance 1"):
            solve_many(batch, allow_nonhermitian=allow_nonhermitian)

    def test_invalid_member_named(self):
        good = benchmark_instance(1)
        Q = np.eye(5)
        Q[0, 1] = 0.5
        cases = [
            (EquationInstance(A=good.A, Q=-np.eye(5)), NotPositiveDefinite,
             "instance 1: Q is not positive definite"),
            (EquationInstance(A=good.A, Q=Q), NotHermitian, "instance 1: Q is not Hermitian"),
        ]
        for bad, error, message in cases:
            with pytest.raises(error) as exc:
                solve_many([good, bad, good])
            assert str(exc.value) == message
            with pytest.raises(error) as exc:  # a batch of one reads as validate
                solve_many([bad])
            assert str(exc.value) == message.removeprefix("instance 1: ")

    def test_factor_failure_names_the_member(self, monkeypatch):
        # the second iterate of member 1 (Q = 100 I) fails to factor: the
        # stacked call fails, and factoring one member at a time names it
        cholesky = np.linalg.cholesky
        calls = []

        def failing_cholesky(X):
            calls.append(None)
            if len(calls) >= 3 and (np.asarray(X)[..., 0, 0].real > 50).any():
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(X)

        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        A = benchmark_instance(1).A
        batch = [EquationInstance(A=A, Q=np.eye(5)), EquationInstance(A=A, Q=100 * np.eye(5))]
        with pytest.raises(SingularIterate, match="^instance 1: iterate 2 lost positive definiteness$"):
            solve_many(batch)
        assert len(calls) == 5  # start, iterate 1, iterate 2 stacked, then each member alone


def stacks(batch):
    """The Q (k, n, n) and A (k, m, n, n) stacks of a batch of instances."""
    return np.array([inst.Q for inst in batch]), np.array([inst.A for inst in batch])


class TestSolveStack:
    # benchmark 1, a mild instance, one that takes Newton steps and the
    # nearly singular Q that takes the X # F(X) restart: n = 5, m = 2, and
    # every member leaves the stacks at its own iteration
    BATCH = (
        benchmark_instance(1),
        gaussian_instance(1, 5, 2, 0.3),
        gaussian_instance(2, 5, 2, 30.0),
        EquationInstance(A=[0.1 * np.eye(5)] * 2, Q=np.diag([1e-12, 1, 1, 1, 1])),
    )

    @pytest.mark.parametrize(
        "settings", [SolveSettings(max_iter=200), SolveSettings(tol=1e-13, max_iter=2000)]
    )
    def test_equals_solve_many_and_lone_solves(self, settings, monkeypatch):
        restarts = []
        geometric_mean = solver_module._geometric_mean
        monkeypatch.setattr(solver_module, "_geometric_mean",
                            lambda L, FX: restarts.append(None) or geometric_mean(L, FX))
        reports = solve_stack(*stacks(self.BATCH), settings)
        assert restarts
        lone = [solve(inst, settings) for inst in self.BATCH]
        assert len({rep.iterations for rep in lone}) >= 3
        assert lone[2].newton_steps > 0 and lone[0].newton_steps == 0
        for got, many, ref in zip(reports, solve_many(self.BATCH, settings), lone):
            assert_same_report(got, many)
            assert_same_report(got, ref)

    def test_raw_equals_solve_many(self):
        batch = [benchmark_instance(4, k) for k in range(1, 5)]
        reports = solve_stack(*stacks(batch), allow_nonhermitian=True)
        many = solve_many(batch, allow_nonhermitian=True)
        for got, ref in zip(reports, many):
            assert_same_report(got, ref)

    def test_empty_stack(self):
        assert solve_stack(np.zeros((0, 5, 5)), np.zeros((0, 2, 5, 5))) == []

    @pytest.mark.parametrize("Q_shape, A_shape", [((5, 5), (1, 2, 5, 5)), ((2, 5, 5), (2, 5, 5)),
                                                  ((2, 5, 5), (3, 2, 5, 5))])
    def test_stack_ranks_checked(self, Q_shape, A_shape):
        with pytest.raises(DimensionMismatch, match="need stacks"):
            solve_stack(np.ones(Q_shape), np.ones(A_shape))

    @pytest.mark.parametrize("allow_nonhermitian", [False, True])
    def test_non_finite_member_named(self, allow_nonhermitian):
        Q, A = stacks([benchmark_instance(1)] * 3)
        for data, where, message in ((A, (1, 1, 2, 3), "A[1]"), (Q, (1, 0, 0), "Q")):
            saved = data[where]
            data[where] = np.nan
            with pytest.raises(ValueError) as exc:
                solve_stack(Q, A, allow_nonhermitian=allow_nonhermitian)
            assert str(exc.value) == f"instance 1: {message} contains non-finite entries"
            with pytest.raises(ValueError) as exc:  # a stack of one reads as the coercion
                solve_stack(Q[1:2], A[1:2], allow_nonhermitian=allow_nonhermitian)
            assert str(exc.value) == f"{message} contains non-finite entries"
            data[where] = saved

    def test_invalid_member_named(self):
        Q, A = stacks([benchmark_instance(1)] * 3)
        nonhermitian = np.eye(5)
        nonhermitian[0, 1] = 0.5
        for bad, error, message in ((-np.eye(5), NotPositiveDefinite, "Q is not positive definite"),
                                    (nonhermitian, NotHermitian, "Q is not Hermitian")):
            Qj = Q.copy()
            Qj[2] = bad
            with pytest.raises(error) as exc:
                solve_stack(Qj, A)
            assert str(exc.value) == f"instance 2: {message}"
            with pytest.raises(error) as exc:
                solve_stack(Qj[2:], A[2:])
            assert str(exc.value) == message

    def test_batch_over_budget_refused_before_solving(self, monkeypatch):
        # (4 + 2m) k n^2 complex entries: Q, A, the iterates, F(X), L and G
        Q, A = stacks([benchmark_instance(1)] * 3)
        nbytes = (4 + 2 * 2) * 3 * 5 * 5 * 16
        monkeypatch.setattr(solver_module, "BATCH_BUDGET_BYTES", nbytes)
        assert len(solve_stack(Q, A)) == 3
        monkeypatch.setattr(solver_module, "BATCH_BUDGET_BYTES", nbytes - 1)
        monkeypatch.setattr(solver_module, "_validate_stack", None)  # never reached
        with pytest.raises(OperatorTooLarge, match=f"k=3 solves at n=5, m=2 needs {nbytes} B"):
            solve_stack(Q, A)
        monkeypatch.setattr(solver_module, "BATCH_BUDGET_BYTES", nbytes // 3 - 1)
        with pytest.raises(OperatorTooLarge, match="k=1 solves"):
            solve(benchmark_instance(1))  # a lone solve is a stack of one
