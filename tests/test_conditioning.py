import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matfix import (
    EquationInstance,
    NotReal,
    SolveSettings,
    build_bundle,
    cond_complex,
    cond_fd_oracle,
    cond_real,
    first_order_delta,
    frobenius_norm,
    inverse,
    PerturbationSpec,
    solve,
    spectral_norm,
    vec_permutation,
)
from matfix.examples import benchmark_instance
from matfix.reference_values import BENCHMARK4_CONDITION
from tests.conftest import make_random_instance, operator_matrix_by_basis, solve_tight

GOLDEN = (1 + np.sqrt(5)) / 2


class TestInverseReuse:
    def test_cond_complex_inverts_nothing(self, rng, monkeypatch):
        # the block row reads L^-1 from the bundle; build_bundle inverted L once
        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        expected = cond_complex(inst, X, bundle, "relative").value

        def refuse(M):
            raise AssertionError("cond_complex inverted a matrix")

        monkeypatch.setattr("matfix.linalg.inverse", refuse)
        monkeypatch.setattr("numpy.linalg.inv", refuse)
        assert cond_complex(inst, X, bundle, "relative").value == expected

    def test_cond_real_inverts_in_real_arithmetic(self, rng, monkeypatch):
        inst = real_instance(rng, n=3, m=2)
        X = solve_tight(inst).real
        seen = []
        original = inverse

        def record(M):
            seen.append(np.asarray(M).dtype)
            return original(M)

        monkeypatch.setattr("matfix.linalg.inverse", record)
        cond_real(inst, X, "relative")
        # X^-1, then the Sym and Anti blocks of I + sum kron(C_i, C_i)
        assert seen == [np.float64, np.float64, np.float64]


    def test_cond_real_reuses_a_real_bundle(self, rng, monkeypatch):
        # at an exactly symmetric X the float64 bundle holds the real case's
        # B and L^-1; the value moves by rounding only
        inst = real_instance(rng, n=3, m=2)
        X = solve_tight(inst).real
        bundle = build_bundle(inst, X)
        own = cond_real(inst, X, "relative").value

        def refuse(M):
            raise AssertionError("cond_real inverted a matrix")

        monkeypatch.setattr("matfix.linalg.inverse", refuse)
        reused = cond_real(inst, X, "relative", bundle=bundle).value
        assert reused == pytest.approx(own, rel=2e-15)

    def test_cond_real_builds_its_own_at_a_nonsymmetric_x(self):
        # a raw-mode solution of benchmark 4 is not symmetric, so the bundle
        # (whose B_i are X^-1 A_i, not C_i^T) is not used
        inst = benchmark_instance(4, 2)
        X = solve(inst, SolveSettings(tol=1e-12), allow_nonhermitian=True).X.real
        assert not np.array_equal(X, X.T)
        bundle = build_bundle(inst, X)
        assert bundle.L_inv.dtype == np.float64
        assert cond_real(inst, X, "relative", bundle=bundle) == cond_real(inst, X, "relative")


def real_instance(rng, n=3, m=2, coeff_scale=0.5):
    return make_random_instance(rng, n=n, m=m, coeff_scale=coeff_scale, complex_data=False)


def complex_block_row(bundle, rep):
    """The textbook 2n^2 x 2n^2(m+1) complex-case block row, from np.kron."""
    n = bundle.n
    Linv = np.linalg.inv(operator_matrix_by_basis(bundle.B, n))
    P, eye = vec_permutation(n), np.eye(n)
    S, Sig = Linv.real, Linv.imag
    blocks = [rep.rho * np.block([[S, -Sig], [Sig, S]])]
    for eta, Bi in zip(rep.etas, bundle.B):
        M1 = Linv @ np.kron(eye, Bi.conj().T)
        M2 = Linv @ np.kron(Bi.T, eye) @ P
        U1, O1, U2, O2 = M1.real, M1.imag, M2.real, M2.imag
        blocks.append(eta * np.block([[U1 + U2, O2 - O1], [O1 + O2, U1 - U2]]))
    return np.hstack(blocks)


def real_block_row(inst, X, rep):
    """The textbook n^2 x n^2(m+1) real-case block row, from np.kron."""
    n = inst.n
    Xinv, P, eye = np.linalg.inv(X), vec_permutation(n), np.eye(n)
    Cs = [Ai.real.T @ Xinv for Ai in inst.A]
    Sr = np.linalg.inv(np.eye(n * n) + sum(np.kron(C, C) for C in Cs))
    blocks = [rep.rho * Sr]
    for eta, C in zip(rep.etas, Cs):
        blocks.append(eta * Sr @ (np.kron(eye, C) + np.kron(C, eye) @ P))
    return np.hstack(blocks)


def top_singular_value(M):
    return np.linalg.svd(M, compute_uv=False)[0]


class TestCondComplex:
    def test_zero_coefficients(self):
        Q = np.diag([2.0, 3.0])
        inst = EquationInstance(A=[np.zeros((2, 2))], Q=Q)
        X = Q.copy()
        bundle = build_bundle(inst, X)
        rep_abs = cond_complex(inst, X, bundle, "absolute")
        rep_rel = cond_complex(inst, X, bundle, "relative")
        assert rep_abs.value == pytest.approx(1.0, abs=1e-12)
        assert rep_rel.value == pytest.approx(1.0, abs=1e-12)

    def test_value_times_xi_is_block_norm(self, rng):
        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        rep = cond_complex(inst, X, bundle, "relative")
        row = complex_block_row(bundle, rep)
        assert rep.value * rep.xi == pytest.approx(spectral_norm(row), rel=1e-12)
        # spectral_norm is also what computes rep.value: check against an SVD too
        assert rep.value * rep.xi == pytest.approx(top_singular_value(row), rel=1e-12)

    def test_unitary_similarity_invariance(self, rng):
        from matfix import hermitian_part

        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        rep = cond_complex(inst, X, build_bundle(inst, X), "relative")
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U, _ = np.linalg.qr(G)
        inst2 = EquationInstance(
            A=[U.conj().T @ Ai @ U for Ai in inst.A],
            Q=hermitian_part(U.conj().T @ inst.Q @ U),
        )
        X2 = solve_tight(inst2)
        assert np.abs(X2 - U.conj().T @ X @ U).max() < 1e-10
        rep2 = cond_complex(inst2, X2, build_bundle(inst2, X2), "relative")
        assert rep2.value * rep2.xi == pytest.approx(rep.value * rep.xi, rel=1e-10)

    def test_uniform_weight_scaling(self, rng):
        # doubling rho and every eta doubles value * xi (block-row linearity)
        inst = make_random_instance(rng, n=2, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        rep = cond_complex(inst, X, bundle, "absolute")
        doubled = 2.0 * complex_block_row(bundle, rep)
        assert spectral_norm(doubled) == pytest.approx(2 * rep.value * rep.xi, rel=1e-12)


class TestCondReal:
    def test_benchmark4_published_values(self):
        for k in (1, 9):
            inst = benchmark_instance(4, k)
            rep = solve(inst, SolveSettings(tol=1e-10), allow_nonhermitian=True)
            assert rep.converged
            crel = cond_real(inst, rep.X, "relative")
            assert crel.value == pytest.approx(BENCHMARK4_CONDITION[k], rel=2e-2)

    def test_scalar_no_coefficient(self):
        inst = EquationInstance(A=[np.array([[0.0]])], Q=np.array([[1.0]]))
        rep = cond_real(inst, np.array([[1.0]]), "absolute")
        assert rep.value == pytest.approx(1.0, abs=1e-14)

    def test_no_coefficients(self):
        # m = 0: X = Q and the condition number is rho ||L^-1|| / xi = 1
        Q = np.diag([2.0, 3.0])
        inst = EquationInstance(A=[], Q=Q)
        for mode in ("absolute", "relative"):
            assert cond_real(inst, Q, mode).value == pytest.approx(1.0, abs=1e-14)

    def test_scalar_block_assembly(self):
        # hand-built 1x1 blocks: S_r = 1/(1+b^2), U = 2b/(1+b^2)
        inst = EquationInstance(A=[np.array([[1.0]])], Q=np.array([[1.0]]))
        x = GOLDEN
        b = 1.0 / x
        rep = cond_real(inst, np.array([[x]]), "absolute")
        S = 1.0 / (1 + b * b)
        U = 2 * b / (1 + b * b)
        assert rep.value == pytest.approx(np.hypot(S, U), rel=1e-12)

    def test_scalar_complex_matches_real(self):
        # real 1x1 data treated as complex lands on the same value
        inst = EquationInstance(A=[np.array([[1.0]])], Q=np.array([[1.0]]))
        X = np.array([[GOLDEN]])
        bundle = build_bundle(inst, X)
        c_c = cond_complex(inst, X, bundle, "absolute")
        c_r = cond_real(inst, X, "absolute")
        assert c_c.value == pytest.approx(c_r.value, rel=1e-12)

    def test_complex_construction_degenerates_on_real_data(self, rng):
        # On real data the complex blocks lose their imaginary parts and the
        # real-perturbation channel of the complex construction coincides
        # with the real-case construction.  The complex value itself can
        # strictly exceed the real one (it admits complex perturbation
        # directions), so only one-sided dominance holds for the values.
        for _ in range(5):
            inst = real_instance(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(1, 4)))
            X = solve_tight(inst).real
            bundle = build_bundle(inst, X)
            c_r = cond_real(inst, X, "relative")
            c_c = cond_complex(inst, X, bundle, "relative")
            assert c_c.value >= c_r.value - 1e-10 * max(1, c_r.value)

            n = inst.n
            Linv = inverse(operator_matrix_by_basis(bundle.B, n))
            assert np.abs(Linv.imag).max() < 1e-12
            P = vec_permutation(n)
            blocks = [c_r.rho * Linv.real]
            for i, Bi in enumerate(bundle.B):
                M1 = Linv @ np.kron(np.eye(n), Bi.conj().T)
                M2 = Linv @ np.kron(Bi.T, np.eye(n)) @ P
                assert np.abs(M1.imag).max() < 1e-12
                assert np.abs(M2.imag).max() < 1e-12
                blocks.append(c_r.etas[i] * (M1.real + M2.real))
            plus_channel = np.hstack(blocks)
            assert spectral_norm(plus_channel) / c_r.xi == pytest.approx(
                c_r.value, rel=1e-10
            )

    def test_rejects_complex_data(self, rng):
        inst = make_random_instance(rng, n=2, m=1, complex_data=True)
        X = solve_tight(inst)
        with pytest.raises(NotReal):
            cond_real(inst, X, "relative")


class TestBlockRowAssembly:
    """The condition numbers against the textbook dense block rows.

    The complex case checks the Hermitian-output row against the full
    2n^2-row construction, which it replaces.
    """

    def test_complex_block_row(self, rng):
        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        rep = cond_complex(inst, X, bundle, "relative")
        row = complex_block_row(bundle, rep)
        assert rep.value * rep.xi == pytest.approx(top_singular_value(row), rel=1e-12)

    def test_real_block_row(self, rng):
        inst = real_instance(rng, n=3, m=2)
        X = solve_tight(inst).real
        rep = cond_real(inst, X, "relative")
        row = real_block_row(inst, X, rep)
        assert rep.value * rep.xi == pytest.approx(top_singular_value(row), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_real_case_grid(self, rng, n, m, mode, symmetric):
        # a nonsymmetric real X (as from a raw-mode solve) takes the formula as written
        inst = real_instance(rng, n=n, m=m)
        X = solve_tight(inst).real
        if not symmetric:
            K = rng.standard_normal((n, n))
            X = X + 0.1 * (K - K.T)
        rep = cond_real(inst, X, mode)
        row = real_block_row(inst, X, rep)
        assert rep.value * rep.xi == pytest.approx(top_singular_value(row), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_complex_case_grid(self, rng, n, m, mode, complex_data):
        inst = make_random_instance(rng, n=n, m=m, complex_data=complex_data)
        X = solve_tight(inst)
        if not complex_data:
            X = X.real
        bundle = build_bundle(inst, X)
        rep = cond_complex(inst, X, bundle, mode)
        row = complex_block_row(bundle, rep)
        assert rep.value * rep.xi == pytest.approx(top_singular_value(row), rel=1e-12)


class TestRealDataSplit:
    """On real data both condition numbers come from the Sym and Anti blocks
    of L^-1; they equal the np.kron-built textbook rows."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        coeff=st.sampled_from([0.5, 1.5]),
        mode=st.sampled_from(["absolute", "relative"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conditions_match_kron_rows(self, n, m, coeff, mode, seed):
        rng = np.random.default_rng(seed)
        inst = real_instance(rng, n=n, m=m, coeff_scale=coeff)
        X = solve_tight(inst).real
        bundle = build_bundle(inst, X)
        for rep in (cond_real(inst, X, mode, bundle=bundle), cond_real(inst, X, mode)):
            row = real_block_row(inst, X, rep)
            assert rep.value * rep.xi == pytest.approx(top_singular_value(row), rel=1e-13)
        K = rng.standard_normal((n, n))
        raw = X + 0.1 * (K - K.T)  # a nonsymmetric X, as from a raw-mode solve
        rep = cond_real(inst, raw, mode)
        assert rep.value * rep.xi == pytest.approx(
            top_singular_value(real_block_row(inst, raw, rep)), rel=1e-13
        )
        rep = cond_complex(inst, X, bundle, mode)
        assert rep.value * rep.xi == pytest.approx(
            top_singular_value(complex_block_row(bundle, rep)), rel=1e-13
        )


class TestScaleCovariance:
    @pytest.mark.parametrize("s", [1e155, 1e-155, 1e170, 1e-170])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_relative_conditions_are_scale_free(self, rng, s, complex_data):
        # X(sA, sQ) = s X(A, Q), and relative condition numbers do not see s:
        # the Frobenius weights of data at 1e155 overflow and at 1e-170
        # underflow unless they are summed on scaled entries
        inst = make_random_instance(rng, n=4, m=2, complex_data=complex_data)
        X = solve_tight(inst)
        X = X if complex_data else X.real
        scaled = EquationInstance(A=[s * Ai for Ai in inst.A], Q=s * inst.Q)
        bundle, scaled_bundle = build_bundle(inst, X), build_bundle(scaled, s * X)
        assert cond_complex(scaled, s * X, scaled_bundle).value == pytest.approx(
            cond_complex(inst, X, bundle).value, rel=1e-13)
        if not complex_data:
            for plain, big in ((bundle, scaled_bundle), (None, None)):
                assert cond_real(scaled, s * X, bundle=big).value == pytest.approx(
                    cond_real(inst, X, bundle=plain).value, rel=1e-13)


class TestFdOracle:
    def test_benchmark2_value_pinned(self):
        # the batched perturbed solves reproduce the one-at-a-time estimate
        # bit for bit
        inst = benchmark_instance(2)
        X = solve(inst, SolveSettings(tol=1e-13, max_iter=2000)).X
        assert cond_fd_oracle(inst, X, trials=100) == 0.9176541224611775

    def test_no_trials_gives_zero(self):
        inst = benchmark_instance(2)
        X = solve(inst, SolveSettings(tol=1e-13, max_iter=2000)).X
        assert cond_fd_oracle(inst, X, trials=0) == 0.0

    def test_zero_coefficients_exact(self):
        # with A = 0 the data-to-solution map is the identity on Q
        Q = np.diag([2.0, 3.0])
        inst = EquationInstance(A=[np.zeros((2, 2))], Q=Q)
        est = cond_fd_oracle(inst, Q, "absolute", step=1e-6, trials=6, seed=3)
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_scalar_close_to_formula(self):
        inst = EquationInstance(A=[np.array([[1.0]])], Q=np.array([[1.0]]))
        X = np.array([[GOLDEN]])
        value = cond_real(inst, X, "relative").value
        est = cond_fd_oracle(inst, X, "relative", step=1e-6, trials=200, seed=0)
        assert est <= value * (1 + 1e-3)
        assert est >= 0.95 * value

    def test_sandwich_random_instances(self, rng):
        for _ in range(3):
            inst = real_instance(rng, n=3, m=1, coeff_scale=0.4)
            X = solve_tight(inst).real
            value = cond_real(inst, X, "relative").value
            step = 1e-5
            est = cond_fd_oracle(inst, X, "relative", step=step, trials=12, seed=11)
            assert est <= value * (1 + 10 * step)

    def test_benchmark4_lower_bound(self):
        inst = benchmark_instance(4, 3)
        rep = solve(inst, SolveSettings(tol=1e-12, max_iter=2000), allow_nonhermitian=True)
        step = 1e-4
        est = cond_fd_oracle(
            inst, rep.X, "relative", step=step, trials=10, seed=5,
            case="real", allow_nonhermitian=True,
        )
        assert est <= BENCHMARK4_CONDITION[3] * (1 + 10 * step)

    def test_sandwich_complex_instance(self, rng):
        inst = make_random_instance(rng, n=3, m=2, coeff_scale=0.4, complex_data=True)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        value = cond_complex(inst, X, bundle, "relative").value
        step = 1e-5
        est = cond_fd_oracle(inst, X, "relative", step=step, trials=12, seed=17)
        assert est <= value * (1 + 10 * step)

    def test_first_order_direction_below_complex_condition(self, rng):
        from matfix import hermitian_part

        inst = make_random_instance(rng, n=3, m=2, complex_data=True)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        rep = cond_complex(inst, X, bundle, "relative")
        dA = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        H = hermitian_part(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        w = np.sqrt(
            sum(frobenius_norm(dA[i]) ** 2 / rep.etas[i] ** 2 for i in range(2))
            + frobenius_norm(H) ** 2 / rep.rho**2
        )
        spec = PerturbationSpec(dA=[D / w for D in dA], dQ=H / w)
        dX = first_order_delta(bundle, spec)
        assert frobenius_norm(dX) / rep.xi <= rep.value * (1 + 1e-10)

    def test_first_order_direction_below_condition(self, rng):
        inst = real_instance(rng, n=3, m=2)
        X = solve_tight(inst).real
        bundle = build_bundle(inst, X)
        rep = cond_real(inst, X, "relative")
        # one specific direction of unit weighted norm cannot beat the sup
        dA = [rng.standard_normal((3, 3)) for _ in range(2)]
        H = rng.standard_normal((3, 3))
        H = (H + H.T) / 2
        w = np.sqrt(
            sum(frobenius_norm(dA[i]) ** 2 / rep.etas[i] ** 2 for i in range(2))
            + frobenius_norm(H) ** 2 / rep.rho**2
        )
        spec = PerturbationSpec(dA=[D / w for D in dA], dQ=H / w)
        dX = first_order_delta(bundle, spec)
        assert frobenius_norm(dX) / rep.xi <= rep.value * (1 + 1e-10)
