"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np

from matfix import (
    EquationInstance,
    PerturbationSpec,
    SolveSettings,
    backward_bound,
    build_bundle,
    cond_fd_oracle,
    cond_real,
    coarse_interval,
    feasibility_table,
    first_order_delta,
    frobenius_norm,
    hermitian_part,
    membership,
    refined_interval,
    scalar_bounds,
    scalar_interval,
    scalar_solution,
    solve,
    spectral_norm,
    xi1,
    xi2,
    xi3,
)
from matfix.examples import (
    benchmark2_deterministic_deltas,
    benchmark2_random_deltas,
    benchmark_instance,
    tridiagonal_seed,
)
from matfix.reference_values import (
    BENCHMARK1,
    BENCHMARK2_BOUNDS,
    BENCHMARK2_CONDITIONS,
    BENCHMARK3_TRAJECTORY,
    BENCHMARK4_CONDITION,
)
from matfix.operators import _structured_products, l_representation
from matfix.solver import _apply_map
from tests.conftest import make_random_instance


def _line(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _sig3(value: float, published: float) -> bool:
    """Both values round to the same 3-significant-digit string."""
    return f"{value:.2e}" == f"{published:.2e}"


def test_criterion_1_benchmark1_reproduction():
    started = time.perf_counter()
    inst = benchmark_instance(1)
    sb = scalar_bounds(inst)
    rep = solve(inst, SolveSettings(x0=1.1, tol=1e-10))
    elapsed = time.perf_counter() - started

    ok = True
    ok &= _line(1, abs(sb.beta - BENCHMARK1["beta"]) <= 5e-4,
                f"beta {sb.beta:.6f} vs {BENCHMARK1['beta']} (tol 5e-4)")
    ok &= _line(1, abs(sb.alpha - BENCHMARK1["alpha"]) <= 5e-4,
                f"alpha {sb.alpha:.6f} vs {BENCHMARK1['alpha']} (tol 5e-4)")
    ok &= _line(1, rep.converged and 9 <= rep.iterations <= 13,
                f"iterations {rep.iterations} in [9, 13]")
    dev = float(np.abs(rep.X.real - np.array(BENCHMARK1["X"])).max())
    ok &= _line(1, dev <= 5e-4, f"max entrywise |X - X_published| {dev:.2e} (tol 5e-4)")
    ok &= _line(1, rep.residual_norm < 1e-10, f"residual {rep.residual_norm:.4e} < 1e-10")
    ok &= _line(1, elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s")
    assert ok


def _benchmark2_state():
    inst = benchmark_instance(2)
    X = solve(inst, SolveSettings(tol=1e-13, max_iter=2000)).X
    return inst, scalar_bounds(inst), X, build_bundle(inst, X)


def test_criterion_2_feasibility_table_j7():
    inst, sb, X, bundle = _benchmark2_state()
    feas = feasibility_table(inst, sb, bundle, benchmark2_deterministic_deltas(7))
    ok = True
    for name, want in BENCHMARK2_CONDITIONS[7].items():
        got = feas[name].value
        ok &= _line(2, abs(got - want) <= 2e-3, f"{name} {got:.4f} vs {want} (tol 2e-3)")
    assert ok


def test_criterion_3_bound_columns_j7():
    inst, sb, X, bundle = _benchmark2_state()
    det = benchmark2_deterministic_deltas(7)
    ref = BENCHMARK2_BOUNDS[7]

    got_xi1 = xi1(inst, sb, det).relative_bound
    got_xi2 = xi2(inst, sb, det, X).relative_bound
    # published nu* row carries the absolute operator bound
    got_nu = xi3(inst, X, bundle, det).absolute_bound

    ok = True
    ok &= _line(3, abs(got_xi1 - ref["xi1"]) / ref["xi1"] <= 1e-2,
                f"xi1 {got_xi1:.4e} vs {ref['xi1']:.4e} (tol 1%)")
    ok &= _line(3, abs(got_xi2 - ref["xi2"]) / ref["xi2"] <= 1e-2,
                f"xi2 {got_xi2:.4e} vs {ref['xi2']:.4e} (tol 1%)")
    ok &= _line(3, abs(got_nu - ref["nu_star"]) / ref["nu_star"] <= 5e-2,
                f"nu* {got_nu:.4e} vs {ref['nu_star']:.4e} (tol 5%)")

    norm_x = spectral_norm(X)
    rng = np.random.default_rng(0)
    errs = []
    for _ in range(20):
        spec = benchmark2_random_deltas(7, rng)
        pert = EquationInstance(A=[inst.A[i] + spec.dA[i] for i in range(2)], Q=inst.Q)
        Xp = solve(pert, SolveSettings(tol=1e-13, max_iter=2000)).X
        errs.append(spectral_norm(Xp - X) / norm_x)
    gm = float(np.exp(np.mean(np.log(errs))))
    lo, hi = ref["true_rel_error"] / 10.0, ref["true_rel_error"] * 10.0
    ok &= _line(3, lo <= gm <= hi,
                f"true-error geomean {gm:.4e} within one decade of {ref['true_rel_error']:.4e}")
    assert ok


def test_criterion_4_certificate_trajectory():
    inst = benchmark_instance(3)
    A0 = tridiagonal_seed()
    Xref = solve(inst, SolveSettings(x0=A0, tol=1e-13, max_iter=2000)).X

    ok = True
    Xt = A0.astype(complex)
    for k in range(1, 5):
        Xt = hermitian_part(_apply_map(inst, Xt))
        err = spectral_norm(Xt - Xref)
        back = backward_bound(inst, Xt)
        ref = BENCHMARK3_TRAJECTORY[k]
        err_ok = _sig3(err, ref["error"])
        detail = f"k={k} error {err:.4e} vs {ref['error']:.4e} (3 sig digits)"
        if k == 4 and not err_ok:
            detail += (
                "; published reference solution carried ~1e-11 self-error "
                "(stopping tol 1e-10), cell not reproducible from a fully "
                "converged reference"
            )
        ok &= _line(4, err_ok, detail)
        ok &= _line(4, _sig3(back.bound, ref["bound"]),
                    f"k={k} bound {back.bound:.4e} vs {ref['bound']:.4e} (3 sig digits)")
        ok &= _line(4, back.bound >= err, f"k={k} bound dominates error")
    assert ok


def test_criterion_5_condition_table():
    ok = True
    for k in (1, 9):
        inst = benchmark_instance(4, k)
        rep = solve(inst, SolveSettings(tol=1e-10), allow_nonhermitian=True)
        assert rep.converged, "as-published mode converged"
        crel = cond_real(inst, rep.X, "relative").value
        want = BENCHMARK4_CONDITION[k]
        ok &= _line(5, abs(crel - want) / want <= 2e-2,
                    f"k={k} c_rel {crel:.4f} vs {want} (tol 2%, as-published mode)")
    assert ok


def test_criterion_6_property_suite():
    started = time.perf_counter()
    ok = True

    # 1x1 closed-form oracle, 1000 instances
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        a = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(m)]
        q = float(rng.uniform(0.1, 10.0))
        inst = EquationInstance(A=[np.array([[ai]]) for ai in a], Q=np.array([[q]]))
        rep = solve(inst, SolveSettings(tol=1e-14, max_iter=5000))
        worst = max(worst, abs(rep.X[0, 0].real - scalar_solution(a, q)))
    ok &= _line(6, worst <= 1e-12, f"scalar oracle worst deviation {worst:.2e} (tol 1e-12)")

    # uniqueness from two starts, 100 instances, n<=6 m<=3
    rng = np.random.default_rng(202)
    worst = 0.0
    instances = []
    for _ in range(100):
        inst = make_random_instance(rng)
        instances.append(inst)
        r1 = solve(inst, SolveSettings(x0=None, tol=1e-10, max_iter=3000))
        r2 = solve(inst, SolveSettings(x0=10.0, tol=1e-10, max_iter=3000))
        assert r1.converged and r2.converged
        worst = max(worst, spectral_norm(r1.X - r2.X))
    ok &= _line(6, worst <= 10 * 1e-10, f"uniqueness worst gap {worst:.2e} (tol 10*tol)")

    # interval chain on a subsample of the same instances
    chain_ok = True
    for inst in instances[:30]:
        sb = scalar_bounds(inst)
        rep = solve(inst, SolveSettings(tol=1e-11, max_iter=3000))
        slack = 10 * max(rep.residual_norm, 1e-11)
        refined = refined_interval(inst, sb)
        chain_ok &= membership(rep.X, coarse_interval(inst), slack)
        chain_ok &= membership(rep.X, refined, slack)
        chain_ok &= membership(rep.X, scalar_interval(inst, sb), slack)
        n = inst.n
        chain_ok &= bool(
            np.linalg.eigvalsh(refined.lower - sb.beta * np.eye(n)).min() >= -1e-10
            and np.linalg.eigvalsh(sb.alpha * np.eye(n) - refined.upper).min() >= -1e-10
        )
    ok &= _line(6, chain_ok, "interval chain (coarse, refined, scalar; nesting) on 30 instances")

    # bound domination sweep: xi2 holds for dQ = 0 only, so half the trials
    # add a Hermitian dQ and check xi1/xi3 alone there
    rng = np.random.default_rng(303)
    trials = 0
    failures = 0
    for trial in range(25):
        inst = make_random_instance(rng, coeff_scale=0.45)
        sb = scalar_bounds(inst)
        X = solve(inst, SolveSettings(tol=1e-13, max_iter=3000)).X
        bundle = build_bundle(inst, X)
        norm_x = spectral_norm(X)
        with_dq = trial % 2 == 1
        for scale in (1e-3, 1e-6, 1e-9):
            dA = []
            for _ in range(inst.m):
                G = rng.standard_normal((inst.n, inst.n)) + 1j * rng.standard_normal(
                    (inst.n, inst.n)
                )
                dA.append(scale * G / spectral_norm(G))
            if with_dq:
                H = rng.standard_normal((inst.n, inst.n)) + 1j * rng.standard_normal(
                    (inst.n, inst.n)
                )
                H = hermitian_part(H)
                dQ = scale * H / spectral_norm(H)
            else:
                dQ = np.zeros((inst.n, inst.n))
            spec = PerturbationSpec(dA=dA, dQ=dQ)
            pert = EquationInstance(
                A=[inst.A[i] + spec.dA[i] for i in range(inst.m)],
                Q=hermitian_part(inst.Q + spec.dQ),
            )
            Xp = solve(pert, SolveSettings(tol=1e-13, max_iter=3000)).X
            err = spectral_norm(Xp - X)
            back = backward_bound(inst, Xp)
            trials += 1
            if err / norm_x > xi1(inst, sb, spec).relative_bound + 1e-10:
                failures += 1
            if not with_dq and err > xi2(inst, sb, spec, X).absolute_bound + 1e-10:
                failures += 1
            if err > xi3(inst, X, bundle, spec).absolute_bound + 1e-10:
                failures += 1
            if back.feasible and spectral_norm(Xp - X) > back.bound + 1e-10:
                failures += 1
    ok &= _line(
        6,
        failures == 0 and trials >= 75,
        f"bound domination: {failures} violations beyond 1e-10 slack in {trials} trials "
        f"(half with dQ != 0; requires >= 99% clean)",
    )

    # operator action oracles
    rng = np.random.default_rng(404)
    inst = make_random_instance(rng, n=3, m=2)
    X = solve(inst, SolveSettings(tol=1e-13, max_iter=3000)).X
    bundle = build_bundle(inst, X)
    from matfix import unvec, vec

    worst_l = 0.0
    worst_p = 0.0
    M = np.column_stack(
        [
            vec(
                unvec(e, 3)
                + sum(Bi.conj().T @ unvec(e, 3) @ Bi for Bi in bundle.B)
            )
            for e in np.eye(9, dtype=complex)
        ]
    )
    L_inv = np.linalg.inv(M)  # the textbook L_rep^-1, built on the canonical basis
    for _ in range(10):
        W = hermitian_part(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        lhs = unvec(l_representation(bundle.B, 3) @ vec(W), 3)
        rhs = W + sum(Bi.conj().T @ W @ Bi for Bi in bundle.B)
        worst_l = max(worst_l, float(np.abs(lhs - rhs).max()))
        spec = PerturbationSpec(dA=[np.zeros((3, 3))] * 2, dQ=rhs)  # the L-solve of dX
        worst_l = max(worst_l, float(np.abs(first_order_delta(bundle, spec) - W).max()))
        Z = rng.standard_normal((3, 3))
        for i in range(2):
            got = unvec(np.add(*_structured_products(L_inv, bundle.B[i])) @ vec(Z), 3)
            target = bundle.B[i].conj().T @ Z + Z.conj().T @ bundle.B[i]
            V = unvec(np.linalg.solve(M, vec(target)), 3)
            worst_p = max(worst_p, float(np.abs(got - V).max()))
    ok &= _line(6, worst_l <= 1e-10, f"L action oracle worst {worst_l:.2e} (tol 1e-10)")
    ok &= _line(6, worst_p <= 1e-10, f"P action oracle worst {worst_p:.2e} (tol 1e-10)")

    # first-order delta: finite-difference order
    inst = benchmark_instance(1)
    X = solve(inst, SolveSettings(tol=1e-14, max_iter=2000)).X
    bundle = build_bundle(inst, X)
    rng = np.random.default_rng(505)
    D = rng.standard_normal((5, 5))
    D /= spectral_norm(D)
    H = rng.standard_normal((5, 5))
    H = (H + H.T) / 2
    H /= spectral_norm(H)

    def expansion_error(t):
        spec = PerturbationSpec(dA=[t * D, np.zeros((5, 5))], dQ=t * H)
        pert = EquationInstance(A=[inst.A[0] + spec.dA[0], inst.A[1]], Q=inst.Q + spec.dQ)
        Xp = solve(pert, SolveSettings(tol=1e-14, max_iter=2000)).X
        return frobenius_norm((Xp - X) - first_order_delta(bundle, spec))

    e1, e2 = expansion_error(1e-4), expansion_error(5e-5)
    order = float(np.log2(e1 / e2))
    ok &= _line(6, order >= 1.9, f"first-order delta observed order {order:.3f} (>= 1.9)")

    # fd oracle sandwich
    rng = np.random.default_rng(606)
    inst = make_random_instance(rng, n=3, m=1, complex_data=False, coeff_scale=0.4)
    X = solve(inst, SolveSettings(tol=1e-13, max_iter=2000)).X.real
    value = cond_real(inst, X, "relative").value
    step = 1e-5
    est = cond_fd_oracle(inst, X, "relative", step=step, trials=10, seed=3)
    ok &= _line(6, est <= value * (1 + 10 * step),
                f"fd oracle {est:.6f} <= condition {value:.6f} * (1 + 10*step)")

    elapsed = time.perf_counter() - started
    ok &= _line(6, elapsed < 60.0, f"property-suite runtime {elapsed:.1f}s < 60s")
    assert ok
