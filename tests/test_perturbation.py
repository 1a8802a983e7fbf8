from pathlib import Path

import numpy as np
import pytest

from matfix import (
    ConditionViolated,
    DimensionMismatch,
    EquationInstance,
    NonzeroDeltaQ,
    PerturbationSpec,
    SolveSettings,
    build_bundle,
    feasibility_table,
    first_order_delta,
    frobenius_norm,
    hermitian_part,
    scalar_bounds,
    solve,
    spectral_norm,
    xi1,
    xi2,
    xi3,
)
from matfix import linalg
from matfix.fileio import parse_delta, parse_instance
from matfix.examples import (
    benchmark2_delta_norms,
    benchmark2_deterministic_deltas,
    benchmark_instance,
)
from tests.conftest import make_random_instance, operator_matrix_by_basis, solve_tight, unvec, vec, zero_spec

GOLDEN = (1 + np.sqrt(5)) / 2


def scalar_setup(a=1.0, q=1.0):
    inst = EquationInstance(A=[np.array([[a]])], Q=np.array([[q]]))
    sb = scalar_bounds(inst)
    X = solve_tight(inst, tol=1e-14)
    bundle = build_bundle(inst, X)
    return inst, sb, X, bundle


def perturbed_solution(inst, spec):
    pert = EquationInstance(
        A=[inst.A[i] + spec.dA[i] for i in range(inst.m)], Q=inst.Q + spec.dQ
    )
    return solve_tight(pert, tol=1e-13)


class TestPerturbationSpec:
    def test_norms_computed_once_at_construction(self, rng, monkeypatch):
        dA = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        dQ = hermitian_part(rng.standard_normal((4, 4)))
        spec = PerturbationSpec(dA=dA, dQ=dQ)
        assert spec.da_norms == tuple(spectral_norm(D) for D in dA)
        assert spec.dq_norm == spectral_norm(dQ)
        monkeypatch.setattr("matfix.linalg.spectral_norm", None)  # no norm is taken again
        assert spec.da_norms == tuple(spectral_norm(D) for D in dA)
        assert spec.dq_norm == spectral_norm(dQ)

    @pytest.mark.parametrize("dA, dQ", [([1e-7 * np.eye(5)] * 3, np.zeros((5, 5))),
                                         ([1e-7 * np.eye(5)], np.zeros((5, 5))),
                                         ([1e-7 * np.eye(5)] * 2, np.zeros((4, 4))),
                                         ([1e-7 * np.eye(5), np.zeros((5, 4))], np.zeros((5, 5)))])
    def test_other_shapes_rejected_by_every_function(self, dA, dQ):
        # benchmark 1 has n = 5, m = 2: a spec of another m or order is refused,
        # not truncated or padded
        inst = benchmark_instance(1)
        X = solve_tight(inst)
        sb, bundle = scalar_bounds(inst), build_bundle(inst, X)
        spec = PerturbationSpec(dA=dA, dQ=dQ)
        for call in (lambda: xi1(inst, sb, spec), lambda: xi2(inst, sb, spec, X),
                     lambda: xi3(inst, X, bundle, spec),
                     lambda: feasibility_table(inst, sb, bundle, spec),
                     lambda: first_order_delta(bundle, spec)):
            with pytest.raises(DimensionMismatch, match="does not match n=5, m=2"):
                call()


class TestXi1:
    def test_zero_perturbation(self):
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        rep = xi1(inst, sb, zero_spec(inst))
        assert rep.relative_bound == 0.0
        assert rep.absolute_bound is None
        assert all(cv.passed for cv in rep.conditions.values())

    def test_condition_violated_for_large_coefficients(self):
        # nilpotent coefficient: lambda_min(A*A) = 0 keeps beta at 1 while
        # ||A||^2 = 4 exceeds beta^2, so b <= 0
        inst = EquationInstance(A=[np.array([[0.0, 2.0], [0.0, 0.0]])], Q=np.eye(2))
        sb = scalar_bounds(inst)
        with pytest.raises(ConditionViolated) as exc:
            xi1(inst, sb, zero_spec(inst))
        assert exc.value.name == "b_positive"
        assert "b" in exc.value.values

    def test_scalar_domination(self, rng):
        inst, sb, X, _ = scalar_setup()
        x = X[0, 0].real
        for scale in (1e-3, 1e-5, 1e-7):
            spec = PerturbationSpec(dA=[np.array([[scale]])], dQ=np.array([[0.0]]))
            xt = perturbed_solution(inst, spec)[0, 0].real
            rep = xi1(inst, sb, spec)
            assert abs(xt - x) / abs(x) <= rep.relative_bound + 1e-12

    def test_split_form_equivalence(self):
        # rho * sum||dA|| + omega * ||dQ|| equals the combined evaluation
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        d1, d2, dq = 1e-5, 3e-6, 2e-6
        eye = np.eye(5)
        spec = PerturbationSpec(dA=[d1 * eye, d2 * eye], dQ=dq * eye)
        rep = xi1(inst, sb, spec)
        beta, b, s = rep.inputs_echo["beta"], rep.inputs_echo["b"], rep.inputs_echo["s"]
        root = np.sqrt(b * b - 4 * beta**2 * (beta * dq + s))
        rho = 2 * s / ((d1 + d2) * (b + root))
        omega = 2 * beta / (b + root)
        assert rep.relative_bound == pytest.approx(rho * (d1 + d2) + omega * dq, rel=1e-12)

    def test_consumes_norms_only(self, rng):
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        spec_a = benchmark2_deterministic_deltas(7)
        d1, d2 = benchmark2_delta_norms(7)
        G = rng.standard_normal((5, 5))
        U, _, Vt = np.linalg.svd(G)
        W = U @ Vt  # orthogonal: spectral norm exactly 1
        spec_b = PerturbationSpec(dA=[d1 * W, d2 * W], dQ=np.zeros((5, 5)))
        ra, rb = xi1(inst, sb, spec_a), xi1(inst, sb, spec_b)
        assert ra.relative_bound == pytest.approx(rb.relative_bound, rel=1e-12)
        ra2, rb2 = xi2(inst, sb, spec_a, X), xi2(inst, sb, spec_b, X)
        assert ra2.absolute_bound == pytest.approx(rb2.absolute_bound, rel=1e-12)


class TestXi2:
    def test_zero_perturbation(self):
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        rep = xi2(inst, sb, zero_spec(inst), X)
        assert rep.relative_bound == 0.0 and rep.absolute_bound == 0.0

    def test_rejects_dq(self):
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        spec = PerturbationSpec(
            dA=[np.zeros((5, 5))] * 2, dQ=1e-8 * np.eye(5)
        )
        with pytest.raises(NonzeroDeltaQ):
            xi2(inst, sb, spec, X)

    def test_condition_violated(self):
        inst = EquationInstance(A=[np.array([[0.0, 2.0], [0.0, 0.0]])], Q=np.eye(2))
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        with pytest.raises(ConditionViolated):
            xi2(inst, sb, zero_spec(inst), X)

    def test_scalar_domination(self):
        inst, sb, X, _ = scalar_setup(a=0.4, q=1.0)
        x = X[0, 0].real
        for scale in (1e-4, 1e-6):
            spec = PerturbationSpec(dA=[np.array([[scale]])], dQ=np.array([[0.0]]))
            xt = perturbed_solution(inst, spec)[0, 0].real
            rep = xi2(inst, sb, spec, X)
            assert abs(xt - x) <= rep.absolute_bound + 1e-12
            assert abs(xt - x) / abs(x) <= rep.relative_bound + 1e-12


class TestXi3:
    def test_zero_perturbation(self):
        inst = benchmark_instance(2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        rep = xi3(inst, X, bundle, zero_spec(inst))
        assert rep.absolute_bound == 0.0 and rep.relative_bound == 0.0
        assert rep.inputs_echo["sigma"] == 0.0 and rep.inputs_echo["eps"] == 0.0

    def test_scalar_domination(self):
        inst, sb, X, bundle = scalar_setup()
        x = X[0, 0].real
        for scale in (1e-4, 1e-6, 1e-8):
            spec = PerturbationSpec(dA=[np.array([[scale]])], dQ=np.array([[scale / 2]]))
            xt = perturbed_solution(inst, spec)[0, 0].real
            rep = xi3(inst, X, bundle, spec)
            assert abs(xt - x) <= rep.absolute_bound + 1e-12

    def test_sharper_than_xi2_on_benchmark_family(self):
        # ordering observed on the bundled family; not guaranteed in general
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        for j in (4, 5, 6, 7):
            spec = benchmark2_deterministic_deltas(j)
            b2 = xi2(inst, sb, spec, X)
            b3 = xi3(inst, X, bundle, spec)
            assert b3.absolute_bound <= b2.absolute_bound

    def test_condition_violated_for_huge_perturbation(self):
        inst = benchmark_instance(2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        spec = PerturbationSpec(dA=[10.0 * np.eye(5)] * 2, dQ=np.zeros((5, 5)))
        with pytest.raises(ConditionViolated):
            xi3(inst, X, bundle, spec)


class TestFeasibilityTable:
    def test_benchmark2_j7_published_column(self):
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        feas = feasibility_table(inst, sb, bundle, benchmark2_deterministic_deltas(7))
        published = {"con1": 1.1650, "con2": 0.8379, "con3": 0.7021,
                     "con4": 0.8379, "con5": 1.0000, "con6": 0.4804}
        for name, want in published.items():
            assert feas[name].value == pytest.approx(want, abs=2e-3)
            assert feas[name].passed

    def test_all_published_columns(self):
        # every decade column of the published condition table, not just j=7
        published = {
            4: {"con1": 1.1650, "con2": 0.8379, "con3": 0.7018,
                "con4": 0.8378, "con5": 0.9999, "con6": 0.4802},
            5: {"con1": 1.1650, "con2": 0.8379, "con3": 0.7021,
                "con4": 0.8379, "con5": 1.0000, "con6": 0.4804},
            6: {"con1": 1.1650, "con2": 0.8379, "con3": 0.7021,
                "con4": 0.8379, "con5": 1.0000, "con6": 0.4804},
            7: {"con1": 1.1650, "con2": 0.8379, "con3": 0.7021,
                "con4": 0.8379, "con5": 1.0000, "con6": 0.4804},
        }
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        for j, col in published.items():
            feas = feasibility_table(inst, sb, bundle, benchmark2_deterministic_deltas(j))
            for name, want in col.items():
                assert feas[name].value == pytest.approx(want, abs=2e-3), (j, name)

    def test_con3_equals_con2_squared_without_da(self):
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        feas = feasibility_table(inst, sb, bundle, zero_spec(inst))
        assert feas["con3"].value == pytest.approx(feas["con2"].value ** 2, rel=1e-12)

    def test_con1_plus_con2_is_two_beta_squared(self):
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        feas = feasibility_table(inst, sb, bundle, benchmark2_deterministic_deltas(5))
        assert feas["con1"].value + feas["con2"].value == pytest.approx(
            2 * sb.beta**2, rel=1e-12
        )

    def test_reports_rather_than_raises(self):
        inst = EquationInstance(A=[np.array([[0.0, 2.0], [0.0, 0.0]])], Q=np.eye(2))
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        feas = feasibility_table(inst, sb, bundle, zero_spec(inst))
        assert not feas["con2"].passed  # sum||A||^2 > beta^2 here
        assert set(feas) == {"con1", "con2", "con3", "con4", "con5", "con6"}


def _bound_conditions(inst, sb, X, bundle, spec):
    """{table name: (condition, evidence)} from xi1..xi3 themselves: the
    reported ConditionValue, or the violated one's value from the error
    (its other conditions are unknown and left out)."""
    no_dq = PerturbationSpec(dA=spec.dA, dQ=np.zeros_like(spec.dQ))  # con2/con4 ignore dQ
    names = {
        "xi1": (lambda: xi1(inst, sb, spec), {"con1": "b_below_2beta_sq"}),
        "xi2": (lambda: xi2(inst, sb, no_dq, X), {"con2": "coeff_norms_below_beta_sq",
                                                  "con4": "perturbed_norms_below_beta_sq"}),
        "xi3": (lambda: xi3(inst, X, bundle, spec), {"con5": "sigma_below_one",
                                                      "con6": "eps_below_threshold"}),
    }
    found = {}
    for fn, table_names in names.values():
        try:
            conditions = fn().conditions
        except ConditionViolated as exc:
            conditions = {exc.name: (exc.values[exc.name], False)}
        for con, name in table_names.items():
            if name in conditions:
                found[con] = conditions[name]
    return found


def _same(cv, other) -> bool:
    value, passed = (other.value, other.passed) if hasattr(other, "value") else other
    return cv.passed == passed and (cv.value == value or (np.isnan(cv.value) and np.isnan(value)))


class TestFeasibilityIsTheBoundsOwnConditions:
    @pytest.mark.parametrize("example", ["example1", "example2", "example3"])
    @pytest.mark.parametrize("delta", ["delta_j7", "delta_zero"])
    def test_fixtures(self, example, delta):
        fixtures = Path(__file__).parent / "fixtures"
        inst = parse_instance(fixtures / f"{example}.json")
        spec = parse_delta(fixtures / f"{delta}.json", inst)
        X = solve_tight(inst)
        sb, bundle = scalar_bounds(inst), build_bundle(inst, X)
        table = feasibility_table(inst, sb, bundle, spec)
        found = _bound_conditions(inst, sb, X, bundle, spec)
        assert {"con2", "con5", "con6"} <= set(found)  # example3 violates xi1 and xi2
        for con, evidence in found.items():
            assert _same(table[con], evidence), con

    def test_nilpotent_b_positive_case(self):
        # xi1 and xi2 both raise here; the violated values must be the table's
        inst = EquationInstance(A=[np.array([[0.0, 2.0], [0.0, 0.0]])], Q=np.eye(2))
        X = solve_tight(inst)
        sb, bundle = scalar_bounds(inst), build_bundle(inst, X)
        spec = zero_spec(inst)
        table = feasibility_table(inst, sb, bundle, spec)
        found = _bound_conditions(inst, sb, X, bundle, spec)
        assert {"con2", "con5", "con6"} <= set(found)
        assert not table["con2"].passed
        for con, evidence in found.items():
            assert _same(table[con], evidence), con

    def test_one_eigensolve_per_coefficient(self, monkeypatch):
        inst = benchmark_instance(2)
        X = solve_tight(inst)
        sb, bundle = scalar_bounds(inst), build_bundle(inst, X)
        spec = benchmark2_deterministic_deltas(7)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(None) or eigvalsh(*a, **k))
        feasibility_table(inst, sb, bundle, spec)
        assert len(calls) == inst.m  # ||A_i||, once each


class TestFirstOrderDelta:
    def test_zero(self):
        inst = benchmark_instance(2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        dX = first_order_delta(bundle, zero_spec(inst))
        assert np.allclose(dX, 0.0)

    def test_matches_lu_solve(self):
        inst = benchmark_instance(2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        spec = benchmark2_deterministic_deltas(6)
        RHS = spec.dQ + sum(Bi.conj().T @ Di + Di.conj().T @ Bi for Bi, Di in zip(bundle.B, spec.dA))
        expected = hermitian_part(
            unvec(np.linalg.solve(operator_matrix_by_basis(bundle.B, inst.n), vec(RHS)), inst.n)
        )
        dX = first_order_delta(bundle, spec)
        assert np.abs(dX - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_scalar_expansion(self):
        inst, sb, X, bundle = scalar_setup()
        x = X[0, 0].real
        b = 1.0 / x
        da, dq = 1e-7, 3e-8
        spec = PerturbationSpec(dA=[np.array([[da]])], dQ=np.array([[dq]]))
        dX = first_order_delta(bundle, spec)
        expected = (dq + 2 * b * da) / (1 + b * b)
        assert dX[0, 0].real == pytest.approx(expected, rel=1e-10)

    def test_finite_difference_order(self):
        # halving the perturbation scale shrinks the expansion error by >= 2^1.9
        inst = benchmark_instance(1)
        X = solve_tight(inst, tol=1e-14)
        bundle = build_bundle(inst, X)
        rng = np.random.default_rng(7)
        D = rng.standard_normal((5, 5))
        D = D / spectral_norm(D)
        H = rng.standard_normal((5, 5))
        H = (H + H.T) / 2
        H = H / spectral_norm(H)

        def expansion_error(t):
            spec = PerturbationSpec(dA=[t * D, np.zeros((5, 5))], dQ=t * H)
            Xt = perturbed_solution(inst, spec)
            return frobenius_norm((Xt - X) - first_order_delta(bundle, spec))

        t = 1e-4
        e1, e2 = expansion_error(t), expansion_error(t / 2)
        order = np.log2(e1 / e2)
        assert order >= 1.9

    def test_hermitian_output(self, rng):
        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        dA = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        spec = PerturbationSpec(dA=[1e-5 * D for D in dA], dQ=1e-5 * (H + H.conj().T) / 2)
        dX = first_order_delta(bundle, spec)
        assert np.array_equal(dX, dX.conj().T)

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("norm", [0.3, 3.0, 30.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 8])
    def test_l_solve_residual(self, n, m, norm, complex_data):
        # dX solves L(dX) = RHS: the residual is recomputed on the np.kron-built
        # L_rep.  m = 1, ||A_i|| = 30 has cond(L) up to 3e5 here
        rng = np.random.default_rng([n, m, int(10 * norm), complex_data])

        def rand():
            G = rng.standard_normal((n, n))
            return G + 1j * rng.standard_normal((n, n)) if complex_data else G

        A = [norm * G / np.linalg.norm(G, 2) for G in (rand() for _ in range(m))]
        C = rand()
        inst = EquationInstance(A=A, Q=hermitian_part(C @ C.conj().T / n + np.eye(n)))
        X = solve_tight(inst, tol=1e-13 * max(1.0, norm * norm))
        X = X if complex_data else X.real
        bundle = build_bundle(inst, X)
        H = rand()
        spec = PerturbationSpec(dA=[rand() for _ in range(m)], dQ=H + H.conj().T)
        dX = first_order_delta(bundle, spec)
        B = [np.linalg.inv(X) @ Ai for Ai in A]
        L = np.eye(n * n) + sum(np.kron(Bi.T, Bi.conj().T) for Bi in B)
        rhs = vec(spec.dQ + sum(Bi.conj().T @ D + D.conj().T @ Bi for Bi, D in zip(B, spec.dA)))
        residual = np.linalg.norm(L @ vec(dX) - rhs)
        assert residual <= 1e-13 * np.linalg.norm(rhs)
        # the normwise backward error first_order_delta accepts
        assert residual <= 1e-14 * (np.linalg.norm(L, 2) * np.linalg.norm(dX) + np.linalg.norm(rhs))
        assert complex_data or not dX.imag.any()

    def test_stagnating_l_solve_stops_early(self, monkeypatch):
        # cond(L) ~ 1.5e9 (n=16, m=1, ||A|| = 300, Q = I, X solved to 1e-7):
        # GMRES's explicit residual stalls near 1e-12 relative, above the
        # 1e-14 target, and the stagnation stop ends the L-solve after about
        # 130 products instead of the 1000 of the cap; the dX it returns
        # still passes the backward-error acceptance
        n = 16
        rng = np.random.default_rng(4)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        inst = EquationInstance(A=[300.0 * G / np.linalg.norm(G, 2)], Q=np.eye(n))
        rep = solve(inst, SolveSettings(tol=1e-7))
        assert rep.converged
        bundle = build_bundle(inst, rep.X)
        D = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        spec = PerturbationSpec(dA=[np.zeros((n, n))], dQ=1e-6 * hermitian_part(D))
        calls = []
        apply_l = linalg.apply_l
        monkeypatch.setattr(linalg, "apply_l", lambda B, W: calls.append(None) or apply_l(B, W))
        dX = first_order_delta(bundle, spec)
        assert len(calls) <= 200
        L = np.eye(n * n) + np.kron(bundle.B[0].T, bundle.B[0].conj().T)
        assert np.linalg.cond(L) > 1e9
        expected = unvec(np.linalg.solve(L, vec(spec.dQ)), n)
        assert np.abs(dX - expected).max() <= 1e-6 * np.abs(expected).max()

    def test_slow_l_solve_is_not_stopped(self):
        # here the first restarts lower the explicit residual by only 10-20%
        # each, as their own estimates predicted, before GMRES speeds up: a
        # slow cycle is not a stall, and the L-solve goes on to an accepted dX
        n = 16
        rng = np.random.default_rng(8)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        inst = EquationInstance(A=[300.0 * G / np.linalg.norm(G, 2)], Q=np.eye(n))
        bundle = build_bundle(inst, solve(inst, SolveSettings(tol=1e-7)).X)
        rng = np.random.default_rng(8)
        D = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dX = first_order_delta(bundle, PerturbationSpec(dA=[1e-6 * D], dQ=np.zeros((n, n))))
        assert np.isfinite(dX).all()


class TestDominationSweep:
    def test_bounds_dominate_true_error(self, rng):
        checked = 0
        for _ in range(12):
            inst = make_random_instance(rng, coeff_scale=0.45)
            sb = scalar_bounds(inst)
            X = solve_tight(inst)
            bundle = build_bundle(inst, X)
            norm_x = spectral_norm(X)
            for scale in (1e-4, 1e-7):
                dA = []
                for _ in range(inst.m):
                    G = rng.standard_normal((inst.n, inst.n)) + 1j * rng.standard_normal(
                        (inst.n, inst.n)
                    )
                    dA.append(scale * G / spectral_norm(G))
                spec = PerturbationSpec(dA=dA, dQ=np.zeros((inst.n, inst.n)))
                Xt = perturbed_solution(inst, spec)
                err = spectral_norm(Xt - X)
                r1 = xi1(inst, sb, spec)
                r2 = xi2(inst, sb, spec, X)
                r3 = xi3(inst, X, bundle, spec)
                assert err / norm_x <= r1.relative_bound + 1e-10
                assert err <= r2.absolute_bound + 1e-10
                assert err <= r3.absolute_bound + 1e-10
                checked += 1
        assert checked >= 20

    def test_scale_decay(self, rng):
        # bound(t * delta) <= c * t along a fixed direction
        inst = benchmark_instance(2)
        sb = scalar_bounds(inst)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        base = benchmark2_deterministic_deltas(4)
        values = []
        for t in (1.0, 1e-1, 1e-2, 1e-3):
            spec = PerturbationSpec(dA=[t * D for D in base.dA], dQ=t * base.dQ)
            values.append(
                (
                    t,
                    xi1(inst, sb, spec).relative_bound,
                    xi2(inst, sb, spec, X).relative_bound,
                    xi3(inst, X, bundle, spec).absolute_bound,
                )
            )
        c = 10 * max(v[1] for v in values)
        for t, v1, v2, v3 in values:
            assert v1 <= c * t and v2 <= c * t and v3 <= c * t
