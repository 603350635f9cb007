import numpy as np
import pytest

from vqr import linalg
from vqr.errors import DimensionMismatch, DomainError, InvalidOrder, NotHermitian


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_psd(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


class TestHermitianEig:
    def test_identity(self):
        w, v = linalg.hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2))

    def test_pauli_z_ascending(self):
        w, _ = linalg.hermitian_eig(np.diag([1.0, -1.0]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_pauli_x_eigenvectors(self):
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        w, v = linalg.hermitian_eig(pauli_x)
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(np.vdot(minus, v[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(plus, v[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_and_orthonormality_random(self):
        for i in range(200):
            d = 2 + (i % 15)
            m = random_hermitian(d, seed=1000 + i)
            w, v = linalg.hermitian_eig(m)
            tol = linalg.EIG_TOL_PER_DIM * d
            recon = (v * w) @ v.conj().T
            assert np.linalg.norm(recon - m) <= tol * max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= tol
            assert np.all(np.diff(w) >= -1e-12)

    def test_deterministic(self):
        m = random_hermitian(6, seed=7)
        first = linalg.hermitian_eig(m)
        second = linalg.hermitian_eig(m.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_degenerate_spectrum_deterministic(self):
        # projector with a 3-fold degenerate eigenvalue
        m = np.diag([1.0, 1.0, 1.0, 2.0]).astype(complex)
        u = np.linalg.qr(random_hermitian(4, 3) + 1j * random_hermitian(4, 4))[0]
        m = u @ m @ u.conj().T
        m = (m + m.conj().T) / 2
        first = linalg.hermitian_eig(m)
        second = linalg.hermitian_eig(m.copy())
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            linalg.hermitian_eig(np.zeros((2, 3)))


class TestMatrixFunction:
    def test_identity_function(self):
        m = np.diag([1.0, 4.0]).astype(complex)
        assert np.allclose(linalg.matrix_function(m, lambda w: w), m)

    def test_sqrt_diagonal(self):
        m = np.diag([1.0, 4.0]).astype(complex)
        assert np.allclose(linalg.matrix_function(m, np.sqrt), np.diag([1.0, 2.0]))

    def test_sqrt_projector_fixed_point(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(linalg.sqrtm_psd(plus), plus, atol=1e-12)

    def test_sqrt_squares_back(self):
        for i in range(20):
            d = 2 + (i % 5)
            m = random_psd(d, seed=300 + i)
            root = linalg.sqrtm_psd(m)
            assert np.abs(root @ root - m).max() < 1e-8 * max(1.0, np.abs(m).max())

    def test_clip_rejects_genuinely_negative(self):
        with pytest.raises(DomainError):
            linalg.matrix_function(np.diag([1.0, -0.5]), np.sqrt, clip_psd=True)

    def test_clips_roundoff_negatives(self):
        m = np.diag([1.0, -1e-12])
        root = linalg.matrix_function(m, np.sqrt, clip_psd=True)
        assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-12)

    def test_domain_error_without_clip(self):
        with pytest.raises(DomainError):
            linalg.matrix_function(np.diag([1.0, -2.0]), np.log)

    def test_xlnx_convention(self):
        # 0 ln 0 := 0 handled through the zero-eigenvalue branch of powm
        m = np.diag([1.0, 0.0]).astype(complex)
        out = linalg.powm_psd(m, 1.5)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_scalar_callable_accepted(self):
        import math

        m = np.diag([1.0, 4.0]).astype(complex)
        out = linalg.matrix_function(m, lambda x: math.sqrt(x))
        assert np.allclose(out, np.diag([1.0, 2.0]))


class TestSchattenNorm:
    def test_density_trace_norm_is_one(self):
        rho = random_psd(4, 11)
        rho /= np.trace(rho).real
        assert linalg.schatten_norm(rho, 1) == pytest.approx(1.0, abs=1e-12)

    def test_sum_of_absolute_eigenvalues(self):
        assert linalg.schatten_norm(np.diag([3.0, -4.0]), 1) == pytest.approx(7.0)

    def test_maximally_mixed_frobenius(self):
        assert linalg.schatten_norm(np.eye(2) / 2, 2) == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_multiplicativity(self, p):
        for i in range(10):
            a = random_hermitian(3, 500 + i)
            b = random_hermitian(2, 600 + i)
            left = linalg.schatten_norm(np.kron(a, b), p)
            right = linalg.schatten_norm(a, p) * linalg.schatten_norm(b, p)
            assert abs(left - right) < 1e-9 * max(1.0, right)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_unitary_invariance(self, p):
        from vqr.states import haar_unitary

        for i in range(10):
            m = random_hermitian(4, 700 + i)
            u = haar_unitary(4, 800 + i)
            v = haar_unitary(4, 900 + i)
            assert linalg.schatten_norm(u @ m @ v.conj().T, p) == pytest.approx(
                linalg.schatten_norm(m, p), abs=1e-9
            )

    def test_invalid_order(self):
        for p in (0.5, float("inf"), float("nan")):
            with pytest.raises(InvalidOrder):
                linalg.schatten_norm(np.eye(2), p)


class TestKron:
    def test_identities(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = linalg.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_projector_product(self):
        zero = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        out = linalg.kron(np.outer(zero, zero), np.outer(plus, plus))
        vec = np.kron(zero, plus)
        assert np.allclose(out, np.outer(vec, vec.conj()), atol=1e-12)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(5)
        a, b, c, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4))
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()


class TestPartialTrace:
    def test_product_state(self):
        rho = random_psd(3, 21)
        rho /= np.trace(rho).real
        sigma = random_psd(2, 22)
        sigma /= np.trace(sigma).real
        out = linalg.partial_trace(np.kron(rho, sigma), (3, 2), 0)
        assert np.abs(out - rho).max() < 1e-12

    def test_bell_state_marginal_maximally_mixed(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        bell = np.outer(phi, phi.conj())
        out = linalg.partial_trace(bell, (2, 2), 1)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_and_linear(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m1 = random_psd(12, rng.integers(1 << 30))
            m2 = random_psd(12, rng.integers(1 << 30))
            c = float(rng.uniform())
            tr = linalg.partial_trace(m1, (2, 3, 2), (0, 2))
            assert np.trace(tr) == pytest.approx(np.trace(m1).real, abs=1e-10)
            combined = linalg.partial_trace(c * m1 + m2, (2, 3, 2), (0, 2))
            assert np.abs(combined - c * tr - linalg.partial_trace(m2, (2, 3, 2), (0, 2))).max() < 1e-10

    def test_keep_order_and_dims(self):
        m = random_psd(12, 33)
        out = linalg.partial_trace(m, (2, 3, 2), (0, 1))
        assert out.shape == (6, 6)

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), (2, 3), 0)
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), (2, 2), ())
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), (2, 2), 5)
