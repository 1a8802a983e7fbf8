import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from matfix import (
    EigenSolverError,
    SingularMatrix,
    eig_extremes,
    frobenius_norm,
    hermitian_part,
    inverse,
    is_positive_definite,
    spectral_norm,
)
from matfix.examples import BENCHMARK4_Q, tridiagonal_seed
from matfix.linalg import (
    certify_psd,
    complex_form,
    gram_norm,
    real_form,
    scaled_gram,
    solve_triangular,
    sym_anti_blocks,
    sym_anti_rows,
)
from tests.conftest import unvec, vec, vec_permutation

EPS = np.finfo(float).eps


def tridiag_eigs(n=5):
    # closed-form eigenvalues 2 + 2 cos(k pi / (n+1)) of the (1,2,1) Toeplitz matrix
    return np.array([2 + 2 * np.cos(k * np.pi / (n + 1)) for k in range(1, n + 1)])


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0)

    def test_tridiagonal_closed_form(self):
        T = tridiagonal_seed()
        assert spectral_norm(T) == pytest.approx(tridiag_eigs().max(), rel=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (6, 6), (3, 8), (8, 3)])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_matches_svd(self, rng, shape, complex_data):
        for _ in range(5):
            M = rng.standard_normal(shape)
            if complex_data:
                M = M + 1j * rng.standard_normal(shape)
            expected = np.linalg.svd(M, compute_uv=False)[0]
            assert spectral_norm(M) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (4, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_all_zero_matches_svd(self, shape, dtype):
        M = np.zeros(shape, dtype=dtype)
        assert spectral_norm(M) == np.linalg.svd(M, compute_uv=False)[0] == 0.0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("s", [1e160, 1e-160])
    @pytest.mark.parametrize("shape", [(5, 5), (3, 7), (7, 3)])
    def test_scale_covariance_at_extreme_scales(self, rng, s, shape):
        # the squares of 1e160 entries overflow and those of 1e-160 entries
        # underflow to subnormals unless the Gram matrix is formed after scaling
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert spectral_norm(s * M) == pytest.approx(s * spectral_norm(M), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_raises_named_error(self, bad):
        with pytest.raises(EigenSolverError, match="non-finite"):
            spectral_norm(np.array([[bad, 1.0], [0.0, 1.0]]))

    def test_real_input_holds_scaled_copy_and_gram(self, rng):
        # the scale of a real matrix is max(max M, -min M): no |M| copy, and
        # nothing beyond the scaled copy and the Gram matrix is held (the
        # eigensolver's working copy is allocated outside numpy's tracing)
        M = rng.standard_normal((400, 400))
        expected = spectral_norm(M)
        tracemalloc.start()
        try:
            assert spectral_norm(M) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * M.nbytes + 2**11


class TestScaledGram:
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (2, 3, 5)])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_scale_is_largest_modulus_and_gram_of_shorter_side(self, rng, shape, complex_data):
        M = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_data else 0)
        G, scale = scaled_gram(M)
        assert np.array_equal(scale, np.abs(M).max(axis=(-2, -1)))
        S = M / scale[..., None, None] if M.ndim > 2 else M / scale
        St = S.conj().swapaxes(-1, -2)
        reference = S @ St if shape[-2] <= shape[-1] else St @ S
        assert np.abs(G - reference).max() <= 1e-15 * np.abs(reference).max()
        assert np.array_equal(gram_norm(G, scale), spectral_norm(M))

    def test_out_receives_the_gram_and_zero_is_divided_by_one(self, rng):
        M = rng.standard_normal((3, 6))
        out = np.empty((3, 3))
        G, scale = scaled_gram(M, out=out)
        assert G is out and np.array_equal(out, scaled_gram(M)[0])
        G, scale = scaled_gram(np.zeros((2, 4)))
        assert scale == 0.0 and np.array_equal(G, np.zeros((2, 2)))

    def test_empty_gram_norms_to_zero(self):
        assert gram_norm(np.zeros((0, 0)), 1.0) == 0.0


class TestFrobeniusNorm:
    def test_identity4(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 5))) == 0.0

    def test_all_ones(self):
        assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)

    @pytest.mark.parametrize("s", [1e155, 1e170, 1e300, 1e-155, 1e-160, 1e-170, 1e-300])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_scale_covariance_at_extreme_scales(self, rng, s, complex_data):
        # squares of 1e155 entries overflow; those of 1e-160 entries are
        # subnormal and of 1e-170 entries vanish, unless the sum is redone
        # on scaled entries
        M = rng.standard_normal((4, 5)) + (1j * rng.standard_normal((4, 5)) if complex_data else 0)
        assert frobenius_norm(s * M) == pytest.approx(s * frobenius_norm(M), rel=1e-14, abs=0.0)
        stack = np.stack([s * M, M, np.zeros_like(M)])
        assert frobenius_norm(stack).tolist() == [frobenius_norm(s * M), frobenius_norm(M), 0.0]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_keep_the_plain_sum(self, bad):
        got = frobenius_norm(np.array([[bad, 1.0], [0.0, 1.0]]))
        assert np.isnan(got) if np.isnan(bad) else got == np.inf


class TestEigExtremes:
    def test_diagonal(self):
        lo, hi = eig_extremes(np.diag([1.0, 3.0, 7.0]))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(7.0))

    def test_tridiagonal(self):
        lo, hi = eig_extremes(tridiagonal_seed())
        eigs = tridiag_eigs()
        assert lo == pytest.approx(eigs.min(), rel=1e-12)
        assert hi == pytest.approx(eigs.max(), rel=1e-12)

    def test_identity(self):
        assert eig_extremes(np.eye(3)) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_loewner_sandwich(self, rng):
        for _ in range(10):
            G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            H = hermitian_part(G)
            lo, hi = eig_extremes(H)
            eps = 1e-12 * max(abs(lo), abs(hi), 1.0)
            assert eig_extremes(H - lo * np.eye(4) + eps * np.eye(4))[0] > 0.0
            assert eig_extremes(hi * np.eye(4) - H + eps * np.eye(4))[0] > 0.0


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_indefinite(self):
        assert not is_positive_definite(np.diag([1.0, -1.0]))

    def test_below_tolerance(self):
        # the floor is n eps lambda_max: 2 eps here
        eps = np.finfo(float).eps
        assert not is_positive_definite(np.diag([2 * eps, 1.0]))
        assert is_positive_definite(np.diag([4 * eps, 1.0]))

    def test_default_tolerance_scales(self):
        # scaled identity stays PD under the default relative tolerance
        assert is_positive_definite(1e8 * np.eye(5))
        assert not is_positive_definite(np.zeros((3, 3)))


def hermitian_with_spectrum(rng, lam, complex_data):
    """U diag(lam) U* for a random unitary (orthogonal on real data) U."""
    n = lam.size
    G = rng.standard_normal((n, n))
    if complex_data:
        G = G + 1j * rng.standard_normal((n, n))
    U = np.linalg.qr(G)[0]
    H = (U * lam) @ U.conj().T
    return hermitian_part(H) if complex_data else (H + H.T) / 2


def gamma(k):
    return k * EPS / (1 - k * EPS)


class TestCertifyPsd:
    # delta = gamma_{2(n+2)} tr(H + shift I), gamma_k = k eps / (1 - k eps): the
    # certificate must refuse every lambda_min < -shift (1 + 1e-8) and accept
    # every lambda_min >= -shift + 10 delta, at any data scale
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 128])
    def test_thresholds(self, n, complex_data, scale):
        rng = np.random.default_rng(10 * n + complex_data)
        for shift in (1e-3, 0.5, 2.0):
            rest = rng.uniform(0.1, 1.0, n - 1)
            g = gamma(2 * (n + 2))
            # lambda_min + shift = 10 delta, with delta taken on the matrix itself
            gap = 10 * g * (rest.sum() + (n - 1) * shift) / (1 - 10 * g) if n > 1 else 1e-8 * shift
            for lam_min, verdict in ((-shift + gap * (1 + 1e-9), True),
                                     (-shift * (1 + 2e-8), False),
                                     (-2 * shift, False)):
                lam = np.concatenate([[lam_min], rest])
                H = hermitian_with_spectrum(rng, lam, complex_data)
                assert H.dtype == (complex if complex_data else float)
                assert certify_psd(scale * H, scale * shift) is verdict, (shift, lam_min)

    def test_refuses_what_plain_cholesky_accepts(self):
        # [[a, b], [b, fl(b^2/a)]] is indefinite when fl rounds b^2/a down (exact
        # determinant below 0, in rationals), yet a floating-point Cholesky of it
        # often completes: the margin delta is what refuses it
        rng = np.random.default_rng(0)
        accepted = 0
        for _ in range(200):
            a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
            c = float(Fraction(b) ** 2 / Fraction(a))
            if Fraction(a) * Fraction(c) >= Fraction(b) ** 2:
                continue
            H = np.array([[a, b], [b, c]])
            try:
                np.linalg.cholesky(H)
                accepted += 1
            except np.linalg.LinAlgError:
                pass
            assert not certify_psd(H, 0.0)
            assert not certify_psd(H.astype(complex), 0.0)
        assert accepted >= 5

    def test_strict_at_the_boundary(self):
        # lambda_min = -shift exactly is not certified; the empty matrix is
        assert not certify_psd(np.zeros((3, 3)), 0.0)
        assert not certify_psd(-np.eye(2), 1.0)
        assert certify_psd(np.zeros((3, 3)), 1e-300)
        assert certify_psd(np.zeros((0, 0)), 0.0)

    def test_non_finite_entries_and_non_positive_diagonal(self):
        assert not certify_psd(np.diag([1.0, np.nan]), 0.0)
        assert not certify_psd(np.diag([np.inf, 1.0]), 0.0)
        # numpy's Cholesky completes on a NaN off the diagonal, with NaN pivots
        assert not certify_psd(np.array([[1.0, np.nan], [np.nan, 1.0]]), 0.0)
        assert not certify_psd(np.array([[1.0, np.inf], [np.inf, 1.0]]), 0.0)
        assert not certify_psd(np.diag([1.0, -1e-300]), 0.0)
        assert not certify_psd(np.array([[1e-300, 1.0], [1.0, 1e-300]]), 0.0)

    @pytest.mark.parametrize("top", [5e-324, 1e-310, 1e300])
    def test_extreme_diagonal_scales_exactly(self, top):
        # the power-of-two scaling reaches subnormal and huge diagonals
        assert certify_psd(top * np.eye(3), 0.0)
        assert not certify_psd(np.diag([top, top, -top]), 0.0)

    def test_makes_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert certify_psd(hermitian_part(np.eye(4) + 0.1j * np.triu(np.ones((4, 4)), 1)), 0.0)


def cholesky_factor(rng, n, complex_data, lower, k=None):
    """A random Cholesky factor (a stack of k if k), transposed when not ``lower``."""
    shape = (n, n) if k is None else (k, n, n)
    G = rng.standard_normal(shape)
    if complex_data:
        G = G + 1j * rng.standard_normal(shape)
    L = np.linalg.cholesky(G @ G.conj().swapaxes(-1, -2) + 1e-3 * np.eye(n))
    return L if lower else L.conj().swapaxes(-1, -2)


class TestSolveTriangular:
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 48, 64])
    def test_small_orders_are_one_lu_solve(self, n, lower, k):
        rng = np.random.default_rng(n)
        T = cholesky_factor(rng, n, True, lower, k)
        B = rng.standard_normal(T.shape[:-1] + (2 * n,)) + 1j * rng.standard_normal(T.shape[:-1] + (2 * n,))
        assert np.array_equal(solve_triangular(T, B, lower=lower), np.linalg.solve(T, B))

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("n", [65, 100, 128, 200])
    def test_backward_error(self, n, lower, k, complex_data):
        rng = np.random.default_rng(n + lower)
        T = cholesky_factor(rng, n, complex_data, lower, k)
        B = rng.standard_normal(T.shape[:-1] + (7,))
        X = solve_triangular(T, B, lower=lower)
        assert X.shape == B.shape and X.dtype == (complex if complex_data else float)
        norm = lambda M: np.linalg.norm(M, axis=(-2, -1))
        assert (norm(T @ X - B) <= 4 * n * EPS * norm(T) * norm(X)).all()

    @pytest.mark.parametrize("rotated", [False, True])
    def test_nearly_singular_factor(self, rotated):
        # the factor of Q = diag(1e-12, 1, ..., 1) at n=80, as is and in a random basis
        n = 80
        rng = np.random.default_rng(12)
        Q = np.diag(np.r_[1e-12, np.ones(n - 1)])
        if rotated:
            U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            Q = hermitian_part(U @ Q @ U.conj().T)
        L = np.linalg.cholesky(Q)
        B = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
        for T, lower in ((L, True), (L.conj().T, False)):
            X = solve_triangular(T, B, lower=lower)
            assert np.linalg.norm(T @ X - B) <= 4 * n * EPS * np.linalg.norm(T) * np.linalg.norm(X)


class TestKron:
    def test_identities(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_second_factor(self):
        got = np.kron(np.array([[0, 1], [0, 0]]), np.array([[2]]))
        assert np.array_equal(got, np.array([[0, 2], [0, 0]]))

    def test_block_expansion(self):
        A = np.array([[1, 2], [3, 4]])
        J = np.array([[0, 1], [1, 0]])
        got = np.kron(A, J)
        expected = np.block([[1 * J, 2 * J], [3 * J, 4 * J]])
        assert np.array_equal(got, expected)


class TestVec:
    def test_column_major(self):
        M = np.array([[1, 2], [3, 4]])
        assert np.array_equal(vec(M), [1, 3, 2, 4])

    def test_column_vector(self):
        v = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(vec(v), [1.0, 2.0, 3.0])

    def test_kron_identity(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        E = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = vec(A @ E @ B)
        rhs = np.kron(B.T, A) @ vec(E)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_unvec_roundtrip(self, rng):
        M = rng.standard_normal((3, 3))
        assert np.array_equal(unvec(vec(M), 3), M)


class TestVecPermutation:
    def test_order_one(self):
        assert np.array_equal(vec_permutation(1), [[1.0]])

    def test_order_two_mapping(self):
        P = vec_permutation(2)
        assert np.array_equal(P @ np.array([1.0, 2.0, 3.0, 4.0]), [1.0, 3.0, 2.0, 4.0])

    def test_transposes_vec(self, rng):
        E = rng.standard_normal((4, 4))
        assert np.array_equal(vec_permutation(4) @ vec(E), vec(E.T))

    def test_involution_orthogonal_symmetric(self):
        P = vec_permutation(3)
        assert np.array_equal(P @ P, np.eye(9))
        assert np.array_equal(P, P.T)
        assert np.allclose(P @ P.T, np.eye(9))


class TestRealForm:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_singular_values_and_inverse_of_l(self, rng, n, m):
        # L_rep = I + sum(kron(B^T, B*)) built here with np.kron
        L = np.eye(n * n, dtype=complex)
        for _ in range(m):
            B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (2 * n)
            L += np.kron(B.T, B.conj().T)
        R = real_form(L, n)
        assert R.dtype == np.float64
        s = np.linalg.svd(L, compute_uv=False)
        assert np.abs(np.linalg.svd(R, compute_uv=False) - s).max() <= 1e-13 * s[0]
        R_inv = real_form(np.linalg.inv(L), n)
        assert R_inv.dtype == np.float64
        assert np.abs(R_inv - np.linalg.inv(R)).max() <= 1e-13 * np.abs(R_inv).max()

    def test_matches_unitary_similarity(self, rng):
        # T = ((1-i) I + (1+i) P)/2 carries Hermitian W to Re W + Im W
        n = 3
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        L = np.eye(n * n) + np.kron(B.T, B.conj().T)
        P = vec_permutation(n)
        T = ((1 - 1j) * np.eye(n * n) + (1 + 1j) * P) / 2
        assert np.allclose(T @ T.conj().T, np.eye(n * n), atol=1e-15)
        W = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert np.allclose(T @ vec(W), vec(W.real + W.imag), atol=1e-15)
        F = T @ L @ T.conj().T
        assert np.abs(F.imag).max() < 1e-13
        assert np.abs(real_form(L, n) - F.real).max() < 1e-13

    def test_real_input_returned_as_is(self, rng):
        M = rng.standard_normal((4, 4))
        assert real_form(M, 2) is M

    @pytest.mark.parametrize("n", range(1, 6))
    def test_complex_form_inverts_real_form(self, rng, n):
        R = rng.standard_normal((n * n, n * n))
        C = complex_form(R, n)
        P = vec_permutation(n)
        T = ((1 - 1j) * np.eye(n * n) + (1 + 1j) * P) / 2
        assert np.abs(C - T.conj().T @ R @ T).max() <= 1e-15 * np.abs(R).max()
        assert np.abs(real_form(C, n) - R).max() <= 2 * np.finfo(float).eps * np.abs(R).max()
        # commutes with W -> W* by construction, not up to rounding
        assert np.array_equal(P @ C @ P, C.conj())


def sym_anti_bases(n):
    """Orthonormal vec bases U_s, U_a of the symmetric and antisymmetric n x n
    matrices, diagonal entries first, then the pairs p < q row by row."""
    sym, anti = [], []
    for p in range(n):
        E = np.zeros((n, n))
        E[p, p] = 1.0
        sym.append(vec(E))
    for p in range(n):
        for q in range(p + 1, n):
            E = np.zeros((n, n))
            E[p, q] = E[q, p] = 1 / np.sqrt(2)
            sym.append(vec(E))
            E[q, p] = -E[q, p]
            anti.append(vec(E))
    return np.array(sym).T, np.array(anti).reshape(-1, n * n).T


def real_l_rep(rng, n, m):
    """I + sum(kron(B^T, B^T)) for random real B: commutes with W -> W^T."""
    L = np.eye(n * n)
    for _ in range(m):
        B = rng.standard_normal((n, n)) / n
        L += np.kron(B.T, B.T)
    return L


class TestSymAnti:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_match_the_bases(self, rng, n):
        L = real_l_rep(rng, n, 2)
        Us, Ua = sym_anti_bases(n)
        assert np.abs(Us.T @ L @ Ua).max(initial=0.0) <= 1e-15 * np.abs(L).max()  # no coupling
        S, A = sym_anti_blocks(L, n)
        assert S.shape == (n * (n + 1) // 2,) * 2 and A.shape == (n * (n - 1) // 2,) * 2
        assert np.abs(S - Us.T @ L @ Us).max() <= 1e-15 * np.abs(L).max()
        assert np.abs(A - Ua.T @ L @ Ua).max(initial=0.0) <= 1e-15 * np.abs(L).max()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_from_blocks_is_the_inverse(self, rng, n):
        # the rows of the blocks' inverses over vec are the rows of L^-1:
        # L^-1 = U_s Ls^-1 U_s^T + U_a La^-1 U_a^T
        L = real_l_rep(rng, n, 2)
        S, A = sym_anti_blocks(L, n)
        Us, Ua = sym_anti_bases(n)
        M = np.linalg.inv(L)
        Si, Ai = np.linalg.inv(S), np.linalg.inv(A)
        assert np.abs(sym_anti_rows(Si, n) - Us.T @ M).max() <= 1e-14 * np.abs(M).max()
        assert sym_anti_rows(Ai, n, anti=True).shape == (A.shape[0], n * n)
        assert np.abs(sym_anti_rows(Ai, n, anti=True) - Ua.T @ M).max(initial=0.0) <= 1e-14 * np.abs(M).max()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_round_trip_is_exact(self, n):
        S, A = sym_anti_blocks(np.eye(n * n), n)
        assert np.array_equal(S, np.eye(S.shape[0])) and np.array_equal(A, np.eye(A.shape[0]))
        Us, Ua = sym_anti_bases(n)
        assert np.array_equal(sym_anti_rows(S, n), Us.T)
        assert np.array_equal(sym_anti_rows(A, n, anti=True), Ua.T.reshape(-1, n * n))


class TestHermitianPart:
    def test_hermitian_fixed_point(self):
        H = np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]])
        assert np.array_equal(hermitian_part(H), H)

    def test_strict_upper(self):
        got = hermitian_part(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.array_equal(got, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_benchmark4_q(self):
        got = hermitian_part(BENCHMARK4_Q)
        assert np.array_equal(got, (BENCHMARK4_Q + BENCHMARK4_Q.T) / 2)

    def test_exactly_hermitian_output(self, rng):
        for _ in range(20):
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            H = hermitian_part(M)
            assert np.array_equal(H, H.conj().T)
            assert np.array_equal(hermitian_part(H), H)

    def test_projection_property(self, rng):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = hermitian_part(M)
        for _ in range(20):
            K = hermitian_part(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            assert frobenius_norm(H - M) <= frobenius_norm(K - M) + 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            hermitian_part(np.zeros((2, 3)))


def bits(M):
    """The IEEE bit patterns of a complex array, negative zeros included."""
    return np.ascontiguousarray(M, dtype=complex).view(np.uint64)


def mirrored_hermitian_part(M):
    """Reference: the lower triangle of (M + M*)/2 mirrored into the upper one."""
    H = (M + M.conj().T) / 2.0
    low = np.tril(H, -1)
    return low + low.conj().T + np.diag(H.diagonal().real)


class TestStacks:
    @pytest.mark.parametrize("shape", [(4, 5, 5), (2, 3, 4, 4), (3, 1, 1), (3, 3, 6), (3, 6, 3)])
    def test_stack_equals_each_matrix(self, rng, shape):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        M.reshape(-1, *shape[-2:])[1] = 0.0  # an all-zero member
        flat = M.reshape(-1, *shape[-2:])
        norms = spectral_norm(M)
        assert norms.shape == shape[:-2]
        assert list(norms.ravel()) == [spectral_norm(S) for S in flat]
        if shape[-1] == shape[-2]:
            H = hermitian_part(M).reshape(flat.shape)
            assert all(np.array_equal(bits(h), bits(hermitian_part(S))) for h, S in zip(H, flat))
            lo, hi = eig_extremes(H)
            assert list(zip(lo, hi)) == [eig_extremes(h) for h in H]
            assert list(is_positive_definite(H)) == [is_positive_definite(h) for h in H]

    @pytest.mark.parametrize("shape", [(4, 5, 5), (2, 3, 4, 4), (3, 1, 1), (3, 3, 6), (2, 0, 3)])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_frobenius_stack_equals_numpy_norm(self, rng, shape, complex_data):
        # bit for bit np.linalg.norm(S, "fro") of each member, at every scale
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape[:-2] + (1, 1))
        if complex_data:
            M = M + 1j * rng.standard_normal(shape)
        flat = M.reshape(int(np.prod(shape[:-2])), *shape[-2:])
        norms = frobenius_norm(M)
        assert norms.shape == shape[:-2]
        assert list(norms.ravel()) == [np.linalg.norm(S, "fro") for S in flat]
        assert [frobenius_norm(S) for S in flat] == [np.linalg.norm(S, "fro") for S in flat]

    def test_hermitian_part_equals_mirrored_lower_triangle(self, rng):
        # negative zeros and overflow included: the result is bit for bit
        # the mirrored lower triangle
        values = np.array([0.0, -0.0, 1.0, -2.5, 1e300, -3e-300, 5e-324])
        for _ in range(500):
            n = int(rng.integers(1, 5))
            M = rng.choice(values, (n, n)) + 1j * rng.choice(values, (n, n))
            assert np.array_equal(bits(hermitian_part(M)), bits(mirrored_hermitian_part(M)))

    def test_empty_stack(self):
        assert spectral_norm(np.zeros((3, 0, 2))).tolist() == [0.0, 0.0, 0.0]


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual_random(self, rng):
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 5 * np.eye(5)
        assert spectral_norm(M @ inverse(M) - np.eye(5)) <= 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse(np.zeros((3, 3)))

    def test_real_input_stays_real(self, rng):
        M = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        Minv = inverse(M)
        assert Minv.dtype == np.float64
        assert np.array_equal(Minv, np.linalg.inv(M))
        assert inverse(np.array([[2, 0], [0, 4]])).dtype == np.float64

    def test_complex_input_stays_complex(self, rng):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
        assert inverse(M).dtype == np.complex128
        assert inverse(M.real.astype(complex)).dtype == np.complex128

    def test_near_singular_carries_estimate(self):
        M = np.diag([1.0, 1e-300])
        with pytest.raises(SingularMatrix) as exc:
            inverse(M)
        assert exc.value.condition_estimate > 1e15 or not np.isfinite(
            exc.value.condition_estimate
        )


def test_norm_inequality_chain(rng):
    for _ in range(25):
        r, c = rng.integers(1, 6), rng.integers(1, 6)
        M = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        s, f = spectral_norm(M), frobenius_norm(M)
        assert s <= f + 1e-12
        assert f <= np.sqrt(min(r, c)) * s + 1e-12
