import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matfix import (
    EquationInstance,
    OperatorTooLarge,
    PerturbationSpec,
    SingularOperator,
    build_bundle,
    cond_complex,
    cond_real,
    first_order_delta,
    hermitian_part,
    inverse,
    unvec,
    vec,
    vec_permutation,
)
from matfix.conditioning import _sum_peak
from matfix.linalg import apply_l, complex_form, real_form
from matfix.operators import DENSE_BUDGET_BYTES, _structured_products, gram_parts_peak, l_representation
from tests.conftest import make_random_instance, operator_matrix_by_basis, solve_tight

GOLDEN = (1 + np.sqrt(5)) / 2


def hermitian_basis(n):
    """Orthogonal basis of the Hermitian matrices (real dimension n^2)."""
    basis = []
    for j in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[j, j] = 1.0
        basis.append(E)
    for j in range(n):
        for k in range(j + 1, n):
            E = np.zeros((n, n), dtype=complex)
            E[j, k] = E[k, j] = 1.0
            basis.append(E)
            E = np.zeros((n, n), dtype=complex)
            E[j, k] = 1.0j
            E[k, j] = -1.0j
            basis.append(E)
    return basis


class TestBuildBundle:
    def test_zero_coefficients(self):
        inst = EquationInstance(A=[np.zeros((3, 3))], Q=np.diag([2.0, 3.0, 4.0]))
        bundle = build_bundle(inst, inst.Q)
        L_inv = np.linalg.inv(l_representation(bundle.B, 3))
        assert np.array_equal(L_inv, np.eye(9))
        G_Q = bundle.grams[0][0][0]  # Ls^-1 Ls^-T on this real data
        assert np.array_equal(G_Q, np.eye(6))
        assert bundle.l == pytest.approx(1.0)
        assert all(np.allclose(np.add(*_structured_products(L_inv, Bi)), 0) for Bi in bundle.B)
        assert bundle.n_ops == (0.0,)
        assert bundle.theta == 0.0

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_grams_are_the_only_dense_arrays(self, rng, complex_data):
        # one stack of Gram matrices per part: one part on complex data, the
        # Sym and Anti parts on real data; no L^-1, which the first-order
        # change applies matrix-free
        n = 3
        inst = make_random_instance(rng, n=n, m=2, complex_data=complex_data)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X if complex_data else X.real)

        def leaves(value):
            if isinstance(value, tuple):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        dense = [field.name for field in dataclasses.fields(bundle)
                 for item in leaves(getattr(bundle, field.name)) if np.size(item) > n * n]
        assert dense == ["grams"] * (1 if complex_data else 2)

    def test_scalar_golden_values(self):
        inst = EquationInstance(A=[np.array([[1.0]])], Q=np.array([[1.0]]))
        x = GOLDEN
        bundle = build_bundle(inst, np.array([[x]]))
        b = 1.0 / x
        assert bundle.B[0][0, 0].real == pytest.approx(b, abs=1e-12)
        L_inv = np.linalg.inv(l_representation(bundle.B, 1))
        assert L_inv[0, 0].real == pytest.approx(1 / (1 + b * b), abs=1e-12)
        # l is the reciprocal spectral norm of the L representation
        assert bundle.l == pytest.approx(1.0 / (1 + b * b), abs=1e-12)
        assert bundle.n_ops[0] == pytest.approx(2 * b / (1 + b * b), abs=1e-12)
        assert bundle.theta_is[0] == pytest.approx(b, abs=1e-12)
        assert bundle.theta == pytest.approx(b * b, abs=1e-12)
        assert bundle.zeta == pytest.approx(1.0 / x, abs=1e-12)

    def test_l_action_identity(self, rng):
        # the L-solve of first_order_delta (dA = 0) and the textbook L_rep^-1
        # both undo the L action
        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        L_inv = np.linalg.inv(l_representation(bundle.B, 3))
        for _ in range(10):
            W = hermitian_part(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            rhs = W + sum(Bi.conj().T @ W @ Bi for Bi in bundle.B)
            assert np.abs(unvec(L_inv @ vec(rhs), 3) - W).max() < 1e-12
            spec = PerturbationSpec(dA=[np.zeros((3, 3))] * 2, dQ=rhs)
            assert np.abs(first_order_delta(bundle, spec) - W).max() < 1e-12

    def test_p_action_against_independent_solve(self, rng):
        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        M = operator_matrix_by_basis(bundle.B, 3)
        L_inv = np.linalg.inv(l_representation(bundle.B, 3))
        for i in range(2):
            for _ in range(5):
                Z = rng.standard_normal((3, 3))  # real argument: Z* = Z^T
                P = np.add(*_structured_products(L_inv, bundle.B[i]))
                got = unvec(P @ vec(Z), 3)
                rhs = bundle.B[i].conj().T @ Z + Z.conj().T @ bundle.B[i]
                V = unvec(np.linalg.solve(M, vec(rhs)), 3)
                assert np.abs(got - V).max() < 1e-10

    def test_l_rep_matches_basis_built_operator(self, rng):
        inst = make_random_instance(rng, n=3, m=1)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        M = operator_matrix_by_basis(bundle.B, 3)
        assert np.abs(l_representation(bundle.B, 3) - M).max() < 1e-13

    def test_l_bounded_and_positive(self, rng):
        for _ in range(5):
            inst = make_random_instance(rng)
            X = solve_tight(inst)
            bundle = build_bundle(inst, X)
            assert 0.0 < bundle.l <= 1.0 + bundle.theta + 1e-12

    def test_theta_consistency(self, rng):
        inst = make_random_instance(rng)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        assert bundle.theta == pytest.approx(sum(t * t for t in bundle.theta_is), rel=1e-14)
        assert all(t >= 0 for t in bundle.theta_is)

    def test_hermitian_image_preserved(self, rng):
        inst = make_random_instance(rng, n=3, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        L_inv = np.linalg.inv(operator_matrix_by_basis(bundle.B, 3))
        for W in hermitian_basis(3):
            img = unvec(L_inv @ vec(W), 3)
            assert np.abs(img - img.conj().T).max() < 1e-13

    def test_singular_operator_detected(self):
        # B with eigenvalues +-i makes I + kron(B^T, B*) exactly singular
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        inst = EquationInstance(A=[B], Q=np.eye(2))
        with pytest.raises(SingularOperator):
            build_bundle(inst, np.eye(2))

    def test_norm_kind_recorded(self, rng):
        inst = make_random_instance(rng, n=2, m=1)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        assert "spectral" in bundle.norm_kind
        assert bundle.norm_kind.startswith("dense-exact")

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_surrogates_match_svd(self, rng, n, complex_data):
        inst = make_random_instance(rng, n=n, m=2, complex_data=complex_data)
        bundle = build_bundle(inst, solve_tight(inst))
        L = operator_matrix_by_basis(bundle.B, n)
        s_L = np.linalg.svd(L, compute_uv=False)[0]
        assert bundle.l == pytest.approx(1.0 / s_L, rel=1e-12)
        L_inv, eye, P = np.linalg.inv(L), np.eye(n), vec_permutation(n)
        for Bi, n_i in zip(bundle.B, bundle.n_ops):
            Pi = L_inv @ (np.kron(eye, Bi.conj().T) + np.kron(Bi.T, eye) @ P)
            assert n_i == pytest.approx(np.linalg.svd(Pi, compute_uv=False)[0], rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("norm", [0.3, 3.0])
    def test_n_ops_match_svd_of_kron_built_p(self, rng, n, norm):
        A = []
        for _ in range(2):
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A.append(norm * G / np.linalg.norm(G, 2))
        inst = EquationInstance(A=A, Q=np.eye(n))
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        B = [np.linalg.inv(X) @ Ai for Ai in A]
        eye, P = np.eye(n), vec_permutation(n)
        L_inv = np.linalg.inv(np.eye(n * n) + sum(np.kron(Bi.T, Bi.conj().T) for Bi in B))
        for Bi, n_i in zip(B, bundle.n_ops):
            Pi = L_inv @ (np.kron(eye, Bi.conj().T) + np.kron(Bi.T, eye) @ P)
            assert n_i == pytest.approx(np.linalg.svd(Pi, compute_uv=False)[0], rel=1e-13)

    def test_operator_sized_problems_are_float64(self, rng, monkeypatch):
        # on complex data, every n^2 x n^2 inverse and eigenproblem of
        # build_bundle and cond_complex is solved in real arithmetic; only
        # the n x n ones (X^-1, the norms of X^-1 and the B_i) are complex
        n = 3
        inst = make_random_instance(rng, n=n, m=2)
        X = solve_tight(inst)
        calls = []

        def recording(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.asarray(a).dtype, np.asarray(a).shape[-1]))
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "inv", recording("inv", np.linalg.inv))
        cond_complex(inst, X, build_bundle(inst, X))
        dense = [(name, dtype) for name, dtype, size in calls if size >= n * n]
        assert {name for name, _ in dense} == {"eigvalsh", "inv"}
        assert all(dtype == np.float64 for _, dtype in dense)
        assert all(size == n for _, dtype, size in calls if dtype != np.float64)


class TestRealData:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_dtype_and_surrogates_against_complex_kron(self, rng, n, complex_data):
        inst = make_random_instance(rng, n=n, m=2, complex_data=complex_data)
        X = solve_tight(inst)
        if not complex_data:
            X = X.real
        bundle = build_bundle(inst, X)
        dtype = np.complex128 if complex_data else np.float64
        assert all(Bi.dtype == dtype for Bi in bundle.B)
        L_inv = np.linalg.inv(l_representation(bundle.B, n))
        assert L_inv.dtype == dtype
        assert all(np.add(*_structured_products(L_inv, Bi)).dtype == dtype for Bi in bundle.B)
        assert all(G.dtype == c.dtype == np.float64 for G, c in bundle.grams)
        assert bundle.norm_kind.startswith("dense-exact")
        assert ("float64" in bundle.norm_kind) is not complex_data

        # the complex128 textbook constructions
        Xinv = np.linalg.inv(X.astype(complex))
        B = [Xinv @ Ai for Ai in inst.A]
        eye, P = np.eye(n), vec_permutation(n)
        L = np.eye(n * n, dtype=complex) + sum(np.kron(Bi.T, Bi.conj().T) for Bi in B)
        L_inv = np.linalg.inv(L)
        assert bundle.l == pytest.approx(1.0 / np.linalg.svd(L, compute_uv=False)[0], rel=1e-13)
        for Bi, n_i in zip(B, bundle.n_ops):
            Pi = L_inv @ (np.kron(eye, Bi.conj().T) + np.kron(Bi.T, eye) @ P)
            assert n_i == pytest.approx(np.linalg.svd(Pi, compute_uv=False)[0], rel=1e-13)


class TestSymAntiSplit:
    """On real data L_rep is block diagonal in the svec/avec basis; the bundle
    equals the np.kron-built textbook operators."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        norm=st.sampled_from([0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bundle_matches_kron_textbook(self, n, m, norm, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((m, n, n))
        A = norm * G / np.linalg.norm(G, 2, axis=(-2, -1), keepdims=True)
        C = rng.standard_normal((n, n))
        inst = EquationInstance(A=A, Q=C @ C.T + np.eye(n))
        X = solve_tight(inst).real
        bundle = build_bundle(inst, X)
        B = [np.linalg.inv(X) @ Ai for Ai in A]
        eye, P = np.eye(n), vec_permutation(n)
        L = np.eye(n * n) + sum(np.kron(Bi.T, Bi.T) for Bi in B)
        L_inv = np.linalg.inv(L)
        assert all(Bi.dtype == np.float64 for Bi in bundle.B)
        assert bundle.l == pytest.approx(1.0 / np.linalg.svd(L, compute_uv=False)[0], rel=1e-13)
        # the L-solve of the first-order change is real and matches L^-1
        H = rng.standard_normal((n, n))
        dX = first_order_delta(bundle, PerturbationSpec(dA=np.zeros((m, n, n)), dQ=H + H.T))
        assert not dX.imag.any()
        ref = unvec(L_inv @ vec(H + H.T), n)
        assert np.abs(dX - ref).max() <= 1e-13 * np.abs(ref).max()
        for Bi, n_i in zip(B, bundle.n_ops):
            Pi = L_inv @ (np.kron(eye, Bi.T) + np.kron(Bi.T, eye) @ P)
            assert n_i == pytest.approx(np.linalg.svd(Pi, compute_uv=False)[0], rel=1e-13)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_coefficients_give_the_identity_exactly(self, n, m):
        inst = EquationInstance(A=[np.zeros((n, n))] * m, Q=np.diag(np.arange(1.0, n + 1)))
        bundle = build_bundle(inst, inst.Q)
        assert np.array_equal(np.linalg.inv(l_representation(bundle.B, n)), np.eye(n * n))
        # the Sym and Anti parts' G_Q: Ls^-1 and La^-1 are identities (La empty at n = 1)
        assert all(np.array_equal(G[0], np.eye(G.shape[-1])) for G, _ in bundle.grams)
        assert [c[0] for _, c in bundle.grams] == [1.0, float(n > 1)]
        assert bundle.l == 1.0
        assert bundle.n_ops == (0.0,) * m

    def test_dense_calls_stay_at_half_order(self, rng, monkeypatch):
        # every inverse and eigenproblem of the real-data analysis is of order
        # at most s = n(n+1)/2, never the full N = n^2
        n = 6
        inst = make_random_instance(rng, n=n, m=2, complex_data=False)
        X = solve_tight(inst).real
        K = rng.standard_normal((n, n))
        shapes = []

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a)[-2:])
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "inv", recording(np.linalg.inv))
        bundle = build_bundle(inst, X)
        cond_real(inst, X, bundle=bundle)
        cond_real(inst, X)
        cond_real(inst, X + 0.01 * (K - K.T))  # nonsymmetric X, its own blocks
        cond_complex(inst, X, bundle)
        assert shapes and max(max(shape) for shape in shapes) == n * (n + 1) // 2


def mirror_lapack_copies(monkeypatch):
    """Mirror LAPACK's working copies with traced arrays while each call runs.

    np.linalg.inv copies the matrix and an identity right-hand side, and
    np.linalg.eigvalsh the matrix, into buffers allocated outside
    tracemalloc's view.  The dense counts include these copies at the
    moment they exist, and so does the traced peak with this mirror.
    """
    for name, copies in (("inv", 2), ("eigvalsh", 1)):
        original = getattr(np.linalg, name)

        def mirrored(a, *args, _original=original, _copies=copies, **kwargs):
            mirror = [np.empty_like(a) for _ in range(_copies)]  # noqa: F841 (held during the call)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, mirrored)


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestDenseBudget:
    # numpy's ufunc and fancy-indexing buffers (at most about 130 KiB) are
    # not counted
    SLACK = 2**17

    @pytest.mark.parametrize("call", ["build_bundle", "cond_real"])
    def test_refused_before_allocating(self, call):
        # n = 100: L_rep alone would be 0.8 GB in float64.  On real data the
        # peak of build_bundle is an Anti-part block next to all Grams, that
        # of cond_real's own Grams a Sym-part block
        n = 100
        s, a, N = n * (n + 1) // 2, n * (n - 1) // 2, n * n
        inst = EquationInstance(A=[np.zeros((n, n))], Q=np.eye(n))
        X = np.eye(n)
        tracemalloc.start()
        try:
            with pytest.raises(OperatorTooLarge) as info:
                if call == "build_bundle":
                    build_bundle(inst, X)
                else:
                    cond_real(inst, X, "relative")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        message = str(info.value)
        assert "n=100" in message and "m=1" in message
        assert str(DENSE_BUDGET_BYTES) in message
        if call == "build_bundle":  # Ls^-1, La^-1, 2(s^2 + a^2) Grams, the Anti rows and two products
            expected = s * s + a * a + 2 * (s * s + a * a) + 3 * a * N
        else:  # Ls^-1, La^-1, the 2 Sym Grams, the rows U_s^T L^-1 and the two products
            expected = s * s + a * a + 2 * s * s + 3 * s * N
        assert f"{expected * 8} B" in message

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_build_bundle_counts_its_peak(self, rng, monkeypatch, complex_data):
        # float64 entries alive at the peak, LAPACK's copies included: on
        # complex data R^-1, the 2m+1 Grams, the complex rows (2) and one
        # B_i's two complex products (4); on real data (s = n(n+1)/2,
        # a = n(n-1)/2) Ls^-1, La^-1, the (m+1)(s^2 + a^2) Grams and, for the
        # last B_i, the Anti rows U_a^T L^-1 and two products.  Real data
        # runs at n = 16, where numpy's fancy-index buffers saturate
        n, m = (12 if complex_data else 16), 2
        s, a, N = n * (n + 1) // 2, n * (n - 1) // 2, n * n
        inst = make_random_instance(rng, n=n, m=m, complex_data=complex_data)
        X = solve_tight(inst)
        X = X if complex_data else X.real
        if complex_data:
            counted = (2 * m + 8) * N * N * 8
        else:
            counted = ((m + 1) * (s * s + a * a) + s * s + a * a + 3 * a * N) * 8
        build_bundle(inst, X)  # builds the per-n index arrays outside the trace
        mirror_lapack_copies(monkeypatch)
        monkeypatch.setattr("matfix.operators.DENSE_BUDGET_BYTES", counted)
        _, peak = traced_peak(lambda: build_bundle(inst, X))
        assert counted - 2**12 <= peak <= counted + self.SLACK
        monkeypatch.setattr("matfix.operators.DENSE_BUDGET_BYTES", counted - 1)
        with pytest.raises(OperatorTooLarge, match=f"need {counted} B"):
            build_bundle(inst, X)

    def test_cond_complex_sum_refused_before_allocating(self, rng, monkeypatch):
        # the weighted sum of Grams and its eigensolver copy are counted
        # before the sum exists
        n, m = 10, 2
        inst = make_random_instance(rng, n=n, m=m)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        counted = 2 * n**4 * 8
        monkeypatch.setattr("matfix.operators.DENSE_BUDGET_BYTES", counted - 1)
        tracemalloc.start()
        try:
            with pytest.raises(OperatorTooLarge) as info:
                cond_complex(inst, X, bundle, "relative")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n**4 * 8 // 4
        assert f"need {counted} B" in str(info.value)

    @pytest.mark.parametrize("call", ["complex data", "real data", "real", "real own", "real raw"])
    def test_condition_counts_its_peak(self, rng, monkeypatch, call):
        # the count is every float64 entry alive at the peak of the call, on
        # top of the bundle: the weighted sum of the largest part and its
        # eigensolver copy; without a usable bundle, cond_real's own Grams:
        # Ls^-1, La^-1, the m+1 Sym Grams and one block's rows and products
        n, m = 12, 2
        s, a, N = n * (n + 1) // 2, n * (n - 1) // 2, n * n
        inst = make_random_instance(rng, n=n, m=m, complex_data=call == "complex data")
        X = solve_tight(inst)
        if call != "complex data":
            X = X.real
        if call == "real raw":  # a nonsymmetric X, as from a raw-mode solve
            K = rng.standard_normal((n, n))
            X = X + 0.01 * (K - K.T)
        bundle = build_bundle(inst, X)
        if call == "complex data":
            counted = 2 * N * N
        elif call in ("real data", "real"):
            counted = 2 * s * s
        else:
            counted = s * s + a * a + (m + 1) * s * s + 3 * s * N
        counted *= 8

        def run():
            if call in ("complex data", "real data"):
                return cond_complex(inst, X, bundle)
            return cond_real(inst, X, bundle=bundle if call == "real" else None)

        expected = run().value
        mirror_lapack_copies(monkeypatch)
        monkeypatch.setattr("matfix.operators.DENSE_BUDGET_BYTES", counted)
        value, peak = traced_peak(run)
        assert value.value == expected
        assert counted - 2**12 <= peak <= counted + self.SLACK
        monkeypatch.setattr("matfix.operators.DENSE_BUDGET_BYTES", counted - 1)
        with pytest.raises(OperatorTooLarge, match=f"need {counted} B"):
            run()

    def test_analyze_admits_todays_sizes(self):
        # from the counts alone, nothing allocated: for m=2 every dense call
        # of analyze (build_bundle, then cond_complex or cond_real with the
        # bundle) fits up to complex n=57 and real n=78
        def largest(count):
            n = 1
            while count(n + 1) * 8 <= DENSE_BUDGET_BYTES:
                n += 1
            return n

        complex_n = min(largest(lambda n: gram_parts_peak(n, 2, False)),
                        largest(lambda n: _sum_peak(n * n)))
        real_n = min(largest(lambda n: gram_parts_peak(n, 2, True)),
                     largest(lambda n: _sum_peak(n * (n + 1) // 2)))
        assert complex_n >= 57
        assert real_n >= 78

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_l_representation_holds_one_term(self, rng, complex_data):
        # each Kronecker term is added in place: the peak is the result plus
        # one term and numpy's fixed-size iteration buffers, and the sum is
        # np.kron's bit for bit
        n = 24
        B = tuple(rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_data else 0)
                  for _ in range(3))
        result = n**4 * (16 if complex_data else 8)
        tracemalloc.start()
        try:
            L = l_representation(B, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * result + 2**19
        expected = np.eye(n * n, dtype=L.dtype)
        for Bi in B:
            expected += np.kron(Bi.T, Bi.conj().T)
        assert np.array_equal(L, expected)


class TestGramBundle:
    """The bundle forms every block of the condition row once and keeps its Gram matrix."""

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_structured_products_once_per_block_and_part(self, rng, monkeypatch, complex_data):
        # one pair of products per B_i and part (one part on complex data, Sym
        # and Anti on real data) inside build_bundle; none in the condition numbers
        n, m = 4, 2
        inst = make_random_instance(rng, n=n, m=m, complex_data=complex_data)
        X = solve_tight(inst)
        X = X if complex_data else X.real
        calls = []

        def counting(rows, Bi):
            calls.append(rows.shape)
            return _structured_products(rows, Bi)

        monkeypatch.setattr("matfix.operators._structured_products", counting)
        monkeypatch.setattr("matfix.conditioning._structured_products", counting, raising=False)
        bundle = build_bundle(inst, X)
        assert len(calls) == m * (1 if complex_data else 2)
        for mode in ("absolute", "relative"):
            cond_complex(inst, X, bundle, mode)
            if not complex_data:
                cond_real(inst, X, mode, bundle=bundle)
        assert len(calls) == m * (1 if complex_data else 2)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_condition_holds_one_weighted_sum_per_part(self, rng, monkeypatch, complex_data):
        # given a bundle, a condition number allocates the weighted sum of one
        # part and the eigensolver's copy of it, nothing of the row's size
        n = 12
        k = n * n if complex_data else n * (n + 1) // 2
        inst = make_random_instance(rng, n=n, m=2, complex_data=complex_data)
        X = solve_tight(inst)
        X = X if complex_data else X.real
        bundle = build_bundle(inst, X)
        calls = [lambda: cond_complex(inst, X, bundle)]
        if not complex_data:
            calls.append(lambda: cond_real(inst, X, bundle=bundle))
        mirror_lapack_copies(monkeypatch)
        for call in calls:
            call()
            _, peak = traced_peak(call)
            assert peak <= 2 * k * k * 8 + 2**14

    def test_n_ops_are_the_s_block_norms(self, rng):
        # n_i = ||Re S + Im S||, S = P_i's representation: T P_i is real
        n = 4
        inst = make_random_instance(rng, n=n, m=2)
        bundle = build_bundle(inst, solve_tight(inst))
        T = ((1 - 1j) * np.eye(n * n) + (1 + 1j) * vec_permutation(n)) / 2
        L_inv = np.linalg.inv(l_representation(bundle.B, n))
        for Bi, n_i in zip(bundle.B, bundle.n_ops):
            S = np.add(*_structured_products(L_inv, Bi))
            assert np.abs((T @ S).imag).max() <= 1e-14 * np.abs(S).max()
            assert n_i == pytest.approx(np.linalg.svd(S.real + S.imag, compute_uv=False)[0], rel=1e-13)


class TestStructuredProducts:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_match_dense_kronecker_products(self, rng, n, complex_data):
        def rmat(rows, cols):
            M = rng.standard_normal((rows, cols))
            return M + 1j * rng.standard_normal((rows, cols)) if complex_data else M

        L_inv, B = rmat(n * n, n * n), rmat(n, n)
        M1, M2 = _structured_products(L_inv, B)
        eye = np.eye(n)
        assert np.abs(M1 - L_inv @ np.kron(eye, B.conj().T)).max() < 1e-13
        assert np.abs(M2 - L_inv @ np.kron(B.T, eye) @ vec_permutation(n)).max() < 1e-13
        assert M1.dtype == M2.dtype == L_inv.dtype

    def test_pi_reps_match_dense_build(self, rng):
        inst = make_random_instance(rng, n=4, m=2)
        bundle = build_bundle(inst, solve_tight(inst))
        L_inv = inverse(operator_matrix_by_basis(bundle.B, 4))
        eye, P = np.eye(4), vec_permutation(4)
        for Bi in bundle.B:
            Pi = np.add(*_structured_products(L_inv, Bi))
            dense = L_inv @ (np.kron(eye, Bi.conj().T) + np.kron(Bi.T, eye) @ P)
            assert np.abs(Pi - dense).max() < 1e-13

    def test_l_inv_is_inverse_of_l_rep(self, rng):
        # the rows of gram_parts on complex data, T* R^-1 T for R the real
        # form of L_rep: one float64 inverse
        inst = make_random_instance(rng, n=4, m=2)
        bundle = build_bundle(inst, solve_tight(inst))
        L_rep = l_representation(bundle.B, 4)
        L_inv = complex_form(inverse(real_form(L_rep, 4)), 4)
        assert L_inv.shape == (16, 16)
        assert np.abs(L_inv @ L_rep - np.eye(16)).max() <= 1e-13
        P = vec_permutation(4)
        assert np.array_equal(P @ L_inv @ P, L_inv.conj())
        assert bundle.n == 4


class TestOperatorHelpers:
    def test_apply_and_solve_roundtrip(self, rng):
        # first_order_delta with dA = 0 solves L(V) = dQ by the L-solve
        inst = make_random_instance(rng, n=4, m=2)
        X = solve_tight(inst)
        bundle = build_bundle(inst, X)
        W = hermitian_part(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        spec = PerturbationSpec(dA=[np.zeros((4, 4))] * 2, dQ=apply_l(bundle.B, W))
        assert np.abs(first_order_delta(bundle, spec) - W).max() < 1e-11
