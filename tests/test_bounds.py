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
from matfix.bounds import default_membership_tolerance
from matfix.examples import benchmark_instance
from matfix.linalg import hermitian_part
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
        assert membership(np.eye(2), box, default_membership_tolerance(box))

    def test_above_upper(self):
        box = MatrixInterval(lower=np.eye(2), upper=3 * np.eye(2))
        assert not membership(4 * np.eye(2), box, default_membership_tolerance(box))

    def test_dimension_mismatch(self):
        box = MatrixInterval(lower=np.eye(2), upper=3 * np.eye(2))
        with pytest.raises(ValueError):
            membership(np.eye(3), box, default_membership_tolerance(box))

    def test_solution_in_all_three_intervals(self, rng):
        for _ in range(5):
            inst = make_random_instance(rng)
            sb = scalar_bounds(inst)
            rep = solve(inst, SolveSettings(tol=1e-11))
            slack = 10 * max(rep.residual_norm, 1e-11)
            assert membership(rep.X, coarse_interval(inst), slack)
            assert membership(rep.X, refined_interval(inst, sb), slack)
            assert membership(rep.X, scalar_interval(inst, sb), slack)


def eigenvalue_membership(X, interval, tol):
    """The eigenvalue-estimate verdict: lambda_min >= -tol for both differences."""
    lo = np.linalg.eigvalsh(hermitian_part(X - interval.lower))[0]
    hi = np.linalg.eigvalsh(hermitian_part(interval.upper - X))[0]
    return bool(lo >= -tol and hi >= -tol)


class TestMembershipCertificate:
    # membership is two Cholesky certificates; away from the boundary
    # lambda_min = -tol they give the verdicts of the eigenvalue test
    def test_agrees_with_eigenvalues_on_this_files_instances(self, rng):
        box = MatrixInterval(lower=np.eye(2), upper=3 * np.eye(2))
        cases = [(np.eye(2), box, None), (4 * np.eye(2), box, None)]
        inst = benchmark_instance(1)
        X = solve(inst, SolveSettings(tol=1e-12)).X
        sb = scalar_bounds(inst)
        cases += [(X, coarse_interval(inst), 1e-10), (X, refined_interval(inst, sb), 1e-10)]
        for k in range(5):  # the draws of test_solution_in_all_three_intervals
            inst = make_random_instance(rng)
            sb = scalar_bounds(inst)
            rep = solve(inst, SolveSettings(tol=1e-11))
            slack = 10 * max(rep.residual_norm, 1e-11)
            boxes = (coarse_interval(inst), refined_interval(inst, sb), scalar_interval(inst, sb))
            cases += [(rep.X, b, slack) for b in boxes]
            if k == 0:  # test_contains_solution's instance
                cases.append((solve(inst, SolveSettings(tol=1e-12)).X, boxes[1], 1e-10))
        verdicts = []
        for X, interval, tol in cases:
            t = default_membership_tolerance(interval) if tol is None else tol
            verdicts.append(membership(X, interval, t))
            assert verdicts[-1] == eigenvalue_membership(X, interval, t)
        assert verdicts.count(False) == 1

    def test_agrees_with_eigenvalues_away_from_the_boundary(self):
        rng = np.random.default_rng(5)
        counts = {True: 0, False: 0}
        for trial in range(200):
            n = int(rng.integers(1, 13))
            scale = 10.0 ** rng.uniform(-6, 6)
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lower = scale * hermitian_part(G)
            W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            upper = lower + scale * (W @ W.conj().T + 0.1 * np.eye(n))
            P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t = rng.uniform(-0.3, 1.3)
            X = (1 - t) * lower + t * upper + 0.05 * scale * rng.standard_normal() * hermitian_part(P)
            box = MatrixInterval(lower=lower, upper=hermitian_part(upper))
            tol = scale * float(rng.choice([0.0, 1e-12, 1e-3]))
            lo = np.linalg.eigvalsh(hermitian_part(X - box.lower))[0]
            hi = np.linalg.eigvalsh(hermitian_part(box.upper - X))[0]
            if min(abs(lo + tol), abs(hi + tol)) <= 1e-6 * scale:
                continue  # near the boundary the two tests may differ
            verdict = membership(X, box, tol)
            assert verdict == eigenvalue_membership(X, box, tol), trial
            counts[verdict] += 1
        assert counts[True] >= 50 and counts[False] >= 50

    def test_makes_no_eigensolve(self, rng, monkeypatch):
        inst = make_random_instance(rng)
        X = solve(inst).X
        box = coarse_interval(inst)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(None) or eigvalsh(*a, **k))
        assert membership(X, box, 1e-9)
        assert not membership(box.upper + np.eye(inst.n), box, 1e-9)
        assert calls == []
