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
    unvec,
    vec,
    vec_permutation,
)
from matfix.examples import BENCHMARK4_Q, tridiagonal_seed
from matfix.linalg import real_form


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_raises_named_error(self, bad):
        with pytest.raises(EigenSolverError, match="non-finite"):
            spectral_norm(np.array([[bad, 1.0], [0.0, 1.0]]))


class TestFrobeniusNorm:
    def test_identity4(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 5))) == 0.0

    def test_all_ones(self):
        assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)


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
            assert is_positive_definite(H - lo * np.eye(4) + eps * np.eye(4), tol=0.0)
            assert is_positive_definite(hi * np.eye(4) - H + eps * np.eye(4), tol=0.0)


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3), tol=0.0)

    def test_indefinite(self):
        assert not is_positive_definite(np.diag([1.0, -1.0]), tol=0.0)

    def test_below_tolerance(self):
        assert not is_positive_definite(np.diag([1e-14, 1.0]), tol=1e-12)

    def test_default_tolerance_scales(self):
        # scaled identity stays PD under the default relative tolerance
        assert is_positive_definite(1e8 * np.eye(5))
        assert not is_positive_definite(np.zeros((3, 3)))


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
