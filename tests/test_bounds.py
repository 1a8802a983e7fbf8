import numpy as np
import pytest

from matfix import (
    EquationInstance,
    MatrixInterval,
    SolveSettings,
    membership,
    coarse_interval,
    refined_interval,
    scalar_bounds,
    scalar_interval,
    solve,
)
from matfix.examples import benchmark_instance
from tests.conftest import make_random_instance

GOLDEN = (1 + np.sqrt(5)) / 2


def scalar_instance(a=1.0, q=1.0):
    return EquationInstance(A=[np.array([[a]])], Q=np.array([[q]]))


class TestScalarBounds:
    def test_benchmark1_published_values(self):
        sb = scalar_bounds(benchmark_instance(1))
        assert sb.beta == pytest.approx(1.0009, abs=5e-4)
        assert sb.alpha == pytest.approx(1.1976, abs=5e-4)

    def test_zero_coefficients(self):
        inst = EquationInstance(A=[np.zeros((3, 3))], Q=np.diag([2.0, 3.0, 5.0]))
        sb = scalar_bounds(inst)
        assert sb.alpha == pytest.approx(5.0)
        assert sb.beta == pytest.approx(2.0)

    def test_golden_ratio_fixed_point(self):
        sb = scalar_bounds(scalar_instance())
        assert sb.alpha == pytest.approx(GOLDEN, abs=1e-12)
        assert sb.beta == pytest.approx(GOLDEN, abs=1e-12)

    def test_fixed_point_residual(self, rng):
        for _ in range(5):
            inst = make_random_instance(rng)
            sb = scalar_bounds(inst)
            lam = np.linalg.eigvalsh((inst.Q + inst.Q.conj().T) / 2)
            lam_min, lam_max = lam[0], lam[-1]
            smax = sum(np.linalg.svd(Ai, compute_uv=False)[0] ** 2 for Ai in inst.A)
            smin = sum(np.linalg.svd(Ai, compute_uv=False)[-1] ** 2 for Ai in inst.A)
            assert sb.alpha == pytest.approx(lam_max + smax / sb.beta, abs=1e-13 * max(1, sb.alpha))
            assert sb.beta == pytest.approx(lam_min + smin / sb.alpha, abs=1e-13 * max(1, sb.alpha))

    def test_monotone_sequences(self):
        # re-derive the recurrences and check monotonicity per iteration
        inst = benchmark_instance(2)
        lam = np.linalg.eigvalsh(inst.Q.real)
        lam_min, lam_max = lam[0], lam[-1]
        smax = sum(np.linalg.svd(Ai, compute_uv=False)[0] ** 2 for Ai in inst.A)
        smin = sum(np.linalg.svd(Ai, compute_uv=False)[-1] ** 2 for Ai in inst.A)
        beta = lam_min
        alphas, betas = [], [beta]
        for _ in range(60):
            alpha = lam_max + smax / beta
            beta = lam_min + smin / alpha
            alphas.append(alpha)
            betas.append(beta)
        assert all(a1 >= a2 - 1e-15 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(b1 <= b2 + 1e-15 for b1, b2 in zip(betas, betas[1:]))
        assert all(lam_min <= b <= a for a, b in zip(alphas, betas[1:]))
        # the iteration is the reference for the closed form
        sb = scalar_bounds(inst)
        assert alphas[-1] == pytest.approx(sb.alpha, rel=1e-14, abs=0.0)
        assert betas[-1] == pytest.approx(sb.beta, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s", [1e-160, 1e-8, 1.0, 1e8, 1e160])
    def test_scale_covariant(self, s):
        # X(sA, sQ) = s X(A, Q), so the enclosure must scale the same way,
        # also where squaring a singular value would under- or overflow
        rng = np.random.default_rng(11)
        cases = [benchmark_instance(k) for k in (1, 2, 3)]
        cases += [make_random_instance(rng) for _ in range(5)]
        for inst in cases:
            sb = scalar_bounds(inst)
            scaled = scalar_bounds(EquationInstance(A=[s * Ai for Ai in inst.A], Q=s * inst.Q))
            assert scaled.alpha == pytest.approx(s * sb.alpha, rel=1e-14, abs=0.0)
            assert scaled.beta == pytest.approx(s * sb.beta, rel=1e-14, abs=0.0)


class TestCoarseInterval:
    def test_zero_coefficients(self):
        Q = np.diag([2.0, 3.0])
        box = coarse_interval(EquationInstance(A=[np.zeros((2, 2))], Q=Q))
        assert np.allclose(box.lower, Q) and np.allclose(box.upper, Q)

    def test_scalar_two_terms(self):
        inst = EquationInstance(A=[np.array([[1.0]]), np.array([[1.0]])], Q=np.array([[1.0]]))
        box = coarse_interval(inst)
        assert box.lower[0, 0].real == pytest.approx(1.0)
        assert box.upper[0, 0].real == pytest.approx(3.0)
        assert box.lower[0, 0].real <= 2.0 <= box.upper[0, 0].real

    def test_contains_benchmark1_solution(self):
        inst = benchmark_instance(1)
        X = solve(inst, SolveSettings(tol=1e-12)).X
        assert membership(X, coarse_interval(inst), tol=1e-10)


class TestRefinedInterval:
    def test_zero_coefficients(self):
        Q = np.diag([2.0, 3.0])
        inst = EquationInstance(A=[np.zeros((2, 2))], Q=Q)
        box = refined_interval(inst, scalar_bounds(inst))
        assert np.allclose(box.lower, Q) and np.allclose(box.upper, Q)

    def test_golden_ratio_pinch(self):
        inst = scalar_instance()
        sb = scalar_bounds(inst)
        box = refined_interval(inst, sb)
        assert box.lower[0, 0].real == pytest.approx(GOLDEN, abs=1e-12)
        assert box.upper[0, 0].real == pytest.approx(GOLDEN, abs=1e-12)

    def test_nested_in_scalar_interval(self, rng):
        # refined interval sits inside [beta I, alpha I]
        for inst in [benchmark_instance(1), make_random_instance(rng)]:
            sb = scalar_bounds(inst)
            box = refined_interval(inst, sb)
            n = inst.n
            assert np.linalg.eigvalsh(box.lower - sb.beta * np.eye(n)).min() >= -1e-10
            assert np.linalg.eigvalsh(sb.alpha * np.eye(n) - box.upper).min() >= -1e-10

    def test_contains_solution(self, rng):
        inst = make_random_instance(rng)
        sb = scalar_bounds(inst)
        X = solve(inst, SolveSettings(tol=1e-12)).X
        assert membership(X, refined_interval(inst, sb), tol=1e-10)

    def test_contains_benchmark1_solution(self):
        inst = benchmark_instance(1)
        sb = scalar_bounds(inst)
        X = solve(inst, SolveSettings(tol=1e-12)).X
        assert membership(X, refined_interval(inst, sb), tol=1e-10)


class TestMembership:
    def test_lower_endpoint(self):
        box = MatrixInterval(lower=np.eye(2), upper=3 * np.eye(2))
        assert membership(np.eye(2), box)

    def test_above_upper(self):
        box = MatrixInterval(lower=np.eye(2), upper=3 * np.eye(2))
        assert not membership(4 * np.eye(2), box)

    def test_dimension_mismatch(self):
        box = MatrixInterval(lower=np.eye(2), upper=3 * np.eye(2))
        with pytest.raises(ValueError):
            membership(np.eye(3), box)

    def test_solution_in_all_three_intervals(self, rng):
        for _ in range(5):
            inst = make_random_instance(rng)
            sb = scalar_bounds(inst)
            rep = solve(inst, SolveSettings(tol=1e-11))
            slack = 10 * max(rep.residual_norm, 1e-11)
            assert membership(rep.X, coarse_interval(inst), slack)
            assert membership(rep.X, refined_interval(inst, sb), slack)
            assert membership(rep.X, scalar_interval(inst, sb), slack)
