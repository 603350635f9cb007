import numpy as np
import pytest

from vqr import linalg, metrics
from vqr.errors import DimensionMismatch, DomainError, InvalidOrder, NotHermitian


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_psd(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


@pytest.mark.parametrize("call", [
    linalg.hermitian_eig,
    lambda m: linalg.matrix_function(m, np.exp),
    linalg.sqrtm_psd,
    metrics.von_neumann_entropy,
    lambda m: metrics.fidelity(m, m),
    lambda m: metrics.relative_entropy(m, m),
    lambda m: linalg.schatten_norm(m, 1),
    lambda m: metrics.trace_distance(m, m),
], ids=["hermitian_eig", "matrix_function", "sqrtm_psd", "von_neumann_entropy", "fidelity",
        "relative_entropy", "schatten_norm", "trace_distance"])
def test_a_zero_size_matrix_raises_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match=r"size >= 1, got shape \(0, 0\)"):
        call(np.zeros((0, 0)))


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


def _fix_phases_loop(v):
    """The column-by-column phase fixing that linalg._fix_phases replaced,
    kept as the reference for its bits."""
    v = v.copy()
    for k in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, k])))
        pivot = v[idx, k]
        if abs(pivot) > 0:
            v[:, k] *= np.conj(pivot) / abs(pivot)
    return v


def _degenerate_hermitian(d, seed):
    """A random unitary conjugate of a spectrum with a repeated eigenvalue."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w[: 1 + d // 2] = w[0]
    u = np.linalg.qr(random_hermitian(d, seed) + 1j * random_hermitian(d, seed + 1))[0]
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2


class TestFixPhases:
    """The vectorized phase fixing gives the loop's bits, column for column."""

    @staticmethod
    def assert_same_bits(v):
        before = v.copy()
        fixed = linalg._fix_phases(v)
        assert np.array_equal(fixed.view(float), _fix_phases_loop(v).view(float))
        assert np.array_equal(v.view(float), before.view(float))

    def test_random_spectra(self):
        for i in range(1100):
            d = 2 + i % 11
            self.assert_same_bits(np.linalg.eigh(random_hermitian(d, seed=5000 + i))[1])

    def test_degenerate_spectra(self):
        for i in range(330):
            d = 2 + i % 11
            m = _degenerate_hermitian(d, seed=7000 + 2 * i)
            self.assert_same_bits(np.linalg.eigh(m)[1])
            self.assert_same_bits(linalg.hermitian_eig(m).eigenvectors)

    def test_exactly_degenerate_and_diagonal(self):
        for m in (np.eye(4, dtype=complex), np.diag([1.0, 1.0, 1.0, 2.0]).astype(complex)):
            self.assert_same_bits(np.linalg.eigh(m)[1])

    def test_pivot_is_real_positive(self):
        v = linalg._fix_phases(np.linalg.eigh(random_hermitian(6, seed=11))[1])
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(6)]
        assert np.all(np.abs(pivots.imag) < 1e-15) and np.all(pivots.real > 0)

    def test_stacks_fix_each_member_as_the_loop(self):
        for d in range(2, 13):
            stack = np.stack(
                [np.linalg.eigh(random_hermitian(d, seed=9000 + 20 * d + k))[1] for k in range(5)]
            )
            fixed = linalg._fix_phases(stack)
            for member, got in zip(stack, fixed):
                assert np.array_equal(got.view(float), _fix_phases_loop(member).view(float))

    def test_zero_pivot_column_keeps_phase_one(self):
        v = np.linalg.eigh(random_hermitian(4, seed=13))[1]
        v[:, 2] = 0.0
        stack = np.stack([v, np.linalg.eigh(random_hermitian(4, seed=14))[1]])
        with np.errstate(all="raise"):
            fixed = linalg._fix_phases(stack)
        assert np.array_equal(np.ascontiguousarray(fixed[0][:, 2]).view(float), np.zeros(8))
        for member, got in zip(stack, fixed):
            assert np.array_equal(got.view(float), _fix_phases_loop(member).view(float))


def _mixed_stack(d, seed):
    """Seven Hermitian d x d matrices: random spectra (no cluster), repeated
    eigenvalues, an exactly degenerate diagonal, a rank-deficient PSD
    matrix (a cluster at zero when d > 2) and a spectrum with a cluster at
    each end (two clusters from d = 5)."""
    g = np.random.default_rng(seed).standard_normal((d, 1)) + 0j
    rank_one = g @ g.conj().T
    u = np.linalg.qr(random_hermitian(d, seed + 7) + 1j * random_hermitian(d, seed + 8))[0]
    ends = np.array(([1.0, 1.0] + [2.0] + [3.0] * d)[:d])
    members = [
        random_psd(d, seed),
        _degenerate_hermitian(d, seed + 1),
        random_hermitian(d, seed + 3),
        np.diag([1.0] * (d - 1) + [2.0]).astype(complex),
        rank_one / np.trace(rank_one).real,
        _degenerate_hermitian(d, seed + 5) @ _degenerate_hermitian(d, seed + 5),
        (u * ends) @ u.conj().T,
    ]
    return np.stack(members)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(float), np.asarray(b).view(float))


def _hermitian_eig_loop(m):
    """The one-matrix eigendecomposition that the stacked hermitian_eig
    replaced, cluster by cluster and column by column, kept as the
    reference for its bits."""
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > linalg.DEGENERACY_GAP:
            if k - start > 1:
                q, r = np.linalg.qr(v[:, start:k])
                signs = np.sign(np.real(np.diag(r)))
                signs[signs == 0] = 1.0
                v[:, start:k] = q * signs
            start = k
    return w, _fix_phases_loop(v)


class TestStackedCore:
    """A stack gives every member the bits it gets on its own."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_hermitian_eig(self, d):
        stack = _mixed_stack(d, seed=4000 + d)
        w, v = linalg.hermitian_eig(stack)
        assert w.shape == (len(stack), d) and v.shape == stack.shape
        for k, member in enumerate(stack):
            alone = linalg.hermitian_eig(member)
            assert np.array_equal(w[k], alone.eigenvalues)
            assert _same_bits(v[k], alone.eigenvectors)
            loop_w, loop_v = _hermitian_eig_loop(member)
            assert np.array_equal(w[k], loop_w)
            assert _same_bits(v[k], loop_v)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_matrix_functions(self, d):
        stack = _mixed_stack(d, seed=4100 + d)
        psd = stack[[0, 3, 4, 5, 6]]
        for f in (lambda w: w**2, np.exp):
            for member, got in zip(stack, linalg.matrix_function(stack, f)):
                assert _same_bits(got, linalg.matrix_function(member, f))
        for alpha in (0.5, 1.5, -0.5):
            for member, got in zip(psd, linalg.powm_psd(psd, alpha)):
                assert _same_bits(got, linalg.powm_psd(member, alpha))
        for member, got in zip(psd, linalg.sqrtm_psd(psd)):
            assert _same_bits(got, linalg.sqrtm_psd(member))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_schatten_norm(self, d):
        stack = _mixed_stack(d, seed=4200 + d)
        for p in (1.0, 1.5, 2.0, 3.0):
            norms = linalg.schatten_norm(stack, p)
            assert norms.shape == (len(stack),)
            assert [linalg.schatten_norm(member, p) for member in stack] == norms.tolist()

    def test_exactly_degenerate_inputs_keep_the_loop_bits(self):
        # On exactly degenerate spectra most eigenvector entries are exact
        # zeros, whose signs the sign pin after each cluster QR sets: the
        # stack and the loop reference give the same bits, signed zeros
        # included, and without the pin they would not.
        plus = np.full((2, 2), 0.5, dtype=complex)
        ket = np.random.default_rng(4500).standard_normal(4) + 1j * np.random.default_rng(4501).standard_normal(4)
        rank_one = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
        u = np.linalg.qr(random_hermitian(4, 4502) + 1j * random_hermitian(4, 4503))[0]
        block = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        members = [
            np.eye(4, dtype=complex),
            block,
            block / 2,
            np.kron(plus, np.diag([1.0, 0.0])).astype(complex),  # |+0><+0|
            rank_one,
            np.kron(np.eye(2), np.diag([1.0, 0.0])).astype(complex) / 2,  # 1 (x) |0><0| / 2
            np.kron(plus, np.eye(2)) / 2,  # |+><+| (x) 1 / 2
            (u * np.array([0.0, 0.0, 0.5, 0.5])) @ u.conj().T,
        ]
        stacked = linalg.hermitian_eig(np.stack(members))
        for k, member in enumerate(members):
            loop_w, loop_v = _hermitian_eig_loop(member)
            for w, v in (linalg.hermitian_eig(member), (stacked[0][k], stacked[1][k])):
                assert np.array_equal(w.view(float), loop_w.view(float)), k
                assert np.array_equal(np.signbit(w), np.signbit(loop_w)), k
                assert np.array_equal(v.view(float), loop_v.view(float)), k
                assert np.array_equal(np.signbit(v.view(float)), np.signbit(loop_v.view(float))), k

    def test_stackwise_keeps_input_order_across_shapes(self):
        matrices = [random_psd(2 + (k % 3), 4600 + k) for k in range(7)]
        norms = linalg.stackwise(lambda stack: linalg.schatten_norm(stack, 3.0).tolist(), matrices)
        assert norms == [linalg.schatten_norm(m, 3.0) for m in matrices]

    def test_one_matrix_keeps_its_types(self):
        m = random_psd(3, 17)
        w, v = linalg.hermitian_eig(m)
        assert w.shape == (3,) and v.shape == (3, 3)
        assert type(linalg.schatten_norm(m, 1.0)) is float
        assert type(linalg.schatten_norm(m, 3.0)) is float

    def test_one_non_hermitian_member_raises(self):
        stack = _mixed_stack(4, seed=4300)
        stack[2, 0, 1] += 1e-6
        with pytest.raises(NotHermitian) as err:
            linalg.hermitian_eig(stack)
        assert err.value.defect == pytest.approx(1e-6)

    def test_one_negative_member_raises(self):
        stack = _mixed_stack(4, seed=4400)[[0, 3, 4]]
        stack[1] = np.diag([1.0, 0.5, -0.25, 0.0])
        with pytest.raises(DomainError):
            linalg.sqrtm_psd(stack)
        with pytest.raises(DomainError):
            linalg.matrix_function(stack, np.sqrt, clip_psd=True)

    def test_non_finite_function_on_one_member_raises(self):
        stack = np.stack([np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex)])
        with pytest.raises(DomainError):
            linalg.matrix_function(stack, np.log)

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionMismatch):
            linalg.hermitian_eig(np.zeros((2, 3, 4)))


class TestStridedStacks:
    """A stack gathered by fancy indexing, as the pinching blocks are, has
    a last axis that is not unit-stride; each routine gives it the bits of
    its contiguous copy."""

    @staticmethod
    def gathered():
        stack = np.stack([random_psd(4, 71), random_psd(4, 72), np.eye(4, dtype=complex)])
        blocks = np.array([[0, 2], [1, 3]])
        out = stack[..., blocks[:, :, None], blocks[:, None, :]]
        assert out.shape == (3, 2, 2, 2) and out.strides[-1] != out.itemsize
        return out

    @pytest.mark.parametrize("call", [
        linalg.hermitian_eig,
        lambda m: linalg.matrix_function(m, np.exp),
        linalg.sqrtm_psd,
    ], ids=["hermitian_eig", "matrix_function", "sqrtm_psd"])
    def test_gives_the_bits_of_the_contiguous_copy(self, call):
        strided = self.gathered()
        got, expected = call(strided), call(np.ascontiguousarray(strided))
        pairs = zip(got, expected) if isinstance(got, tuple) else [(got, expected)]
        assert all(_same_bits(a, b) for a, b in pairs)


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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_power_raises(self, alpha):
        # 1 ** nan is 1: without the check powm_psd(eye, nan) is the identity
        with pytest.raises(InvalidOrder, match="matrix power must be finite"):
            linalg.powm_psd(np.eye(2), alpha)
        with pytest.raises(InvalidOrder, match="matrix power must be finite"):
            linalg.floored_power([0.0, 1.0, 0.5], alpha)

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

    def test_invalid_order(self, monkeypatch):
        # the order is checked before any SVD: a NaN matrix would fail in it
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD taken before the order check")

        monkeypatch.setattr(linalg.np.linalg, "svd", no_svd)
        nan = np.full((2, 2), np.nan, dtype=complex)
        for m in (np.eye(2), nan, np.stack([nan, np.eye(2)])):
            for p in (0.5, float("inf"), float("nan")):
                with pytest.raises(InvalidOrder):
                    linalg.schatten_norm(m, p)


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
        with pytest.raises(DimensionMismatch, match="dims entry must be an integer, got 2.5"):
            linalg.partial_trace(np.eye(5), (2.5, 2), 0)
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), (2, 2), ())
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), (2, 2), 5)
        # a keep index is an integer, not a number truncated to one
        for keep in ([1.5], 1.5, (0, 1.0)):
            with pytest.raises(DimensionMismatch, match="keep index must be an integer"):
                linalg.partial_trace(np.eye(4), (2, 2), keep)
