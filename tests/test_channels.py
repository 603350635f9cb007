import numpy as np
import pytest

from vqr import linalg
from vqr.channels import (
    build_dilation,
    evolve,
    has_reality,
    measure_nonselective,
    monitor,
    phi_map,
)
from vqr.errors import DimensionMismatch, OutOfRange
from vqr.metrics import (
    BURES,
    HELLINGER,
    HILBERT_SCHMIDT,
    TRACE,
    parse_kind,
    powered_distance,
)
from vqr.realism import dilated_gains, gains
from vqr.states import (
    DensityMatrix,
    Observable,
    computational_observable,
    haar_unitary,
    max_entangled,
    random_density,
    random_observable,
    spin_observable,
    validate_state,
    werner,
)

SIGMA_Z_ON_FIRST = computational_observable(2, 0, (2, 2))
PLUS = validate_state(np.full((2, 2), 0.5), (2,))
SZ = computational_observable(2)


def random_instance(seed, i, d_b=2):
    d_a = 2 + (i % 3)
    rho = random_density(d_a * d_b, d_a * d_b - (i % 2), seed, dims=(d_a, d_b))
    obs = random_observable(d_a, seed + 50021, subsystem=0, dims=(d_a, d_b))
    return rho, obs


class TestMeasureNonselective:
    def test_plus_state_dephases_to_maximally_mixed(self):
        assert np.allclose(measure_nonselective(PLUS, SZ).matrix, np.eye(2) / 2)

    def test_diagonal_state_is_fixed_point(self):
        rho = validate_state(np.diag([0.3, 0.7]), (2,))
        assert np.abs(measure_nonselective(rho, SZ).matrix - rho.matrix).max() < 1e-15

    def test_bell_state_measured(self):
        out = measure_nonselective(max_entangled(2), SIGMA_Z_ON_FIRST)
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_idempotent(self):
        for i in range(20):
            rho, obs = random_instance(3000 + i, i)
            once = measure_nonselective(rho, obs)
            twice = measure_nonselective(once, obs)
            assert np.abs(twice.matrix - once.matrix).max() < 1e-12

    def test_unital(self):
        d = 6
        eye = validate_state(np.eye(d) / d, (3, 2))
        obs = random_observable(3, 77, subsystem=0, dims=(3, 2))
        assert np.abs(measure_nonselective(eye, obs).matrix - np.eye(d) / d).max() < 1e-12

    def test_purity_never_increases(self):
        for i in range(30):
            rho, obs = random_instance(4000 + i, i)
            measured = measure_nonselective(rho, obs)
            assert measured.purity() <= rho.purity() + 1e-12
            if has_reality(rho, obs):
                assert measured.purity() == pytest.approx(rho.purity(), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            measure_nonselective(PLUS, SIGMA_Z_ON_FIRST)


BLOCK_ON_SECOND = Observable(
    (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])), (0.0, 1.0), 1, (2, 3)
)


class TestPinchingMask:
    """The 0/1-diagonal block path of phi_map against the dense sum."""

    @pytest.mark.parametrize(
        "obs",
        [
            computational_observable(3, 0, (3, 2, 2)),
            computational_observable(2, 1, (3, 2, 2)),
            computational_observable(2, 2, (3, 2, 2)),
            BLOCK_ON_SECOND,
            spin_observable(0.7, 0.0),
            spin_observable(2.5, 0.0),
        ],
        ids=["comp0", "comp1", "comp2", "block", "spin", "spin_neg_cos"],
    )
    def test_matches_dense_sum_bit_for_bit(self, obs):
        assert obs.pinching_blocks is not None
        rng = np.random.default_rng(8)
        n = int(np.prod(obs.dims))
        for _ in range(5):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            # signed zeros inside and outside the blocks
            m[0, 0] = complex(-0.0, -0.0)
            m[0, n - 1] = complex(-0.0, 2.0)
            dense = sum(p @ m @ p for p in obs.full_projectors)
            out = phi_map(m, obs)
            assert np.array_equal(out, dense)
            assert np.array_equal(np.signbit(out.real), np.signbit(dense.real))
            assert np.array_equal(np.signbit(out.imag), np.signbit(dense.imag))

    @pytest.mark.parametrize(
        "obs",
        [
            random_observable(3, 21, subsystem=1, dims=(2, 3)),
            spin_observable(0.0, np.pi / 4),
            Observable(
                (np.diag([1.0 + 1e-12, 0.0]), np.diag([0.0, 1.0])), (0.0, 1.0), 0, (2,)
            ),
            Observable((np.diag([1.0, 0.0]), np.diag([0.0, 0.0])), (0.0, 1.0), 0, (2,)),
            Observable((np.diag([1.0, 1.0]), np.diag([0.0, 1.0])), (0.0, 1.0), 0, (2,)),
        ],
        ids=["random", "spin_tilted", "near_one", "incomplete", "overlapping"],
    )
    def test_no_mask_for_general_projectors(self, obs):
        # unvalidated projectors that do not partition the indices take the
        # dense sum, which the blocks would not give
        assert obs.pinching_blocks is None
        n = int(np.prod(obs.dims))
        m = np.full((n, n), 1.0 / n, dtype=complex)
        assert np.array_equal(phi_map(m, obs), sum(p @ m @ p for p in obs.full_projectors))

    def test_blocks_hold_the_ambient_indices_by_size(self):
        blocks = BLOCK_ON_SECOND.pinching_blocks
        assert [b.tolist() for b in blocks.by_size] == [[[0, 3]], [[1, 2, 4, 5]]]
        same = spin_observable(0.7, 0.0, 0, (2, 2)).pinching_blocks
        assert same.key == computational_observable(2, 0, (2, 2)).pinching_blocks.key
        assert same.key != computational_observable(2, 1, (2, 2)).pinching_blocks.key

    def test_wrong_size_still_rejected(self):
        with pytest.raises(
            DimensionMismatch,
            match=r"^matrix dim 4 does not match observable ambient dim 6$",
        ):
            phi_map(np.eye(4), BLOCK_ON_SECOND)


class TestNonFiniteInput:
    """Both phi_map paths, and the state channels built on it, reject a
    non-finite entry instead of returning it or an all-NaN matrix."""

    @staticmethod
    def _with_inf():
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.inf
        return m

    @pytest.mark.parametrize(
        "obs",
        [computational_observable(2, 0, (2, 2)), random_observable(2, 5, 0, (2, 2))],
        ids=["mask", "dense"],
    )
    def test_phi_map_rejects_non_finite_entry(self, obs):
        with pytest.raises(OutOfRange, match="non-finite"):
            phi_map(self._with_inf(), obs)

    def test_measure_nonselective_rejects_non_finite_state(self):
        rho = DensityMatrix(self._with_inf(), (2, 2))
        with pytest.raises(OutOfRange, match="non-finite"):
            measure_nonselective(rho, random_observable(2, 5, 0, (2, 2)))


class TestMonitor:
    def test_eps_zero_is_identity(self):
        rho = werner(0.6)
        assert np.abs(monitor(rho, SIGMA_Z_ON_FIRST, 0.0).matrix - rho.matrix).max() == 0.0

    def test_eps_one_is_full_measurement(self):
        rho = werner(0.6)
        full = measure_nonselective(rho, SIGMA_Z_ON_FIRST)
        assert np.abs(monitor(rho, SIGMA_Z_ON_FIRST, 1.0).matrix - full.matrix).max() < 1e-15

    def test_half_monitoring_of_plus(self):
        out = monitor(PLUS, SZ, 0.5)
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert np.allclose(out.matrix, expected, atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            monitor(PLUS, SZ, 1.2)

    def test_unital(self):
        eye = validate_state(np.eye(2) / 2, (2,))
        assert np.abs(monitor(eye, SZ, 0.7).matrix - np.eye(2) / 2).max() < 1e-15


class TestHasReality:
    def test_maximally_mixed_always_real(self):
        eye = validate_state(np.eye(4) / 4, (2, 2))
        assert has_reality(eye, SIGMA_Z_ON_FIRST)

    def test_plus_state_not_real_for_z(self):
        assert not has_reality(PLUS, SZ)

    def test_werner_not_real_despite_trace_plateau(self):
        assert not has_reality(werner(0.2), SIGMA_Z_ON_FIRST)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_a_negative_or_non_finite_tol_raises(self, tol):
        # -1 and nan made every state unreal
        with pytest.raises(OutOfRange, match="reality tolerance must be finite and >= 0"):
            has_reality(werner(0.2), SIGMA_Z_ON_FIRST, tol=tol)

    def test_a_zero_tol_is_allowed(self):
        assert has_reality(validate_state(np.diag([0.5, 0.5]), (2,)), SZ, tol=0.0)


class TestPinchingIdentities:
    def test_trace_identity_four_functions(self):
        # Tr[rho f(Phi(sigma))] = Tr[Phi(rho) f(Phi(sigma))]
        functions = [lambda w: w, lambda w: w**2, np.sqrt, np.exp]
        worst = 0.0
        for i in range(100):
            rho, obs = random_instance(5000 + i, i)
            sigma = random_density(rho.dim, rho.dim, 5500 + i, dims=rho.dims)
            phi_sigma = phi_map(sigma.matrix, obs)
            phi_rho = phi_map(rho.matrix, obs)
            for f in functions:
                f_mat = linalg.matrix_function(phi_sigma, f, clip_psd=True)
                lhs = np.trace(rho.matrix @ f_mat)
                rhs = np.trace(phi_rho @ f_mat)
                worst = max(worst, abs(complex(lhs - rhs)))
        assert worst < 1e-9

    def test_hs_purity_loss_identity(self):
        # ||rho||_2^2 - ||Phi(rho)||_2^2 = ||rho - Phi(rho)||_2^2
        worst = 0.0
        for i in range(100):
            rho, obs = random_instance(6000 + i, i)
            phi = phi_map(rho.matrix, obs)
            lhs = linalg.schatten_norm(rho.matrix, 2) ** 2 - linalg.schatten_norm(phi, 2) ** 2
            rhs = linalg.schatten_norm(rho.matrix - phi, 2) ** 2
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10


class TestContractivityUnderMeasurement:
    @pytest.mark.parametrize(
        "kind", [TRACE, HILBERT_SCHMIDT, BURES, HELLINGER], ids=lambda k: k.label()
    )
    def test_measurement_and_monitoring_contract(self, kind):
        # HS contracts here too: these channels fix the maximally mixed state.
        for i in range(25):
            rho, obs = random_instance(7000 + i, i)
            sig = random_density(rho.dim, rho.dim, 7500 + i, dims=rho.dims)
            before = powered_distance(kind, rho.matrix, sig.matrix)
            after_phi = powered_distance(
                kind, phi_map(rho.matrix, obs), phi_map(sig.matrix, obs)
            )
            eps = float(np.random.default_rng(7900 + i).uniform())
            after_mon = powered_distance(
                kind,
                monitor(rho, obs, eps).matrix,
                monitor(sig, obs, eps).matrix,
            )
            assert after_phi <= before + 1e-10
            assert after_mon <= before + 1e-10


class TestDilation:
    def test_qubit_computational_dilation_is_cnot(self):
        rho = PLUS
        setup = build_dilation(rho, SZ)
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(setup.unitary, cnot, atol=1e-12)

    def test_contracts_on_random_setups(self):
        for i in range(50):
            d_a = 2 + (i % 3)
            rho = random_density(2 * d_a, 2 * d_a, 8000 + i, dims=(d_a, 2))
            obs = random_observable(d_a, 8500 + i, subsystem=0, dims=(d_a, 2))
            reduction, invariance = build_dilation(rho, obs).residuals
            assert reduction < 1e-10
            assert invariance < 1e-10

    def test_unitary_is_unitary(self):
        setup = build_dilation(werner(0.4), SIGMA_Z_ON_FIRST)
        u = setup.unitary
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_dilates_block_projectors(self):
        # U = sum_a P_a (x) X^a is unitary for any complete set of
        # projectors, with d_E the outcome count: here Haar-rotated ranks
        # [1, 1, 2] on a 4-dim subsystem, so d_E = 3.
        kinds = [parse_kind(t) for t in ("tr", "hs", "bu", "he", "vn", "lp1.5", "lp3")]
        for i in range(40):
            u = haar_unitary(4, 9100 + i)
            ranks = (np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0]), np.diag([0, 0, 1.0, 1.0]))
            projs = tuple(u @ p @ u.conj().T for p in ranks)
            obs = Observable(projs, (-1.0, 0.0, 1.0), 0, (4, 2))
            rho = random_density(8, 8 - (i % 2), 9200 + i, dims=(4, 2))
            setup = build_dilation(rho, obs)
            assert setup.environment_dim == 3
            assert max(setup.residuals) < 1e-12
            closed = gains([(rho, obs)], kinds)[0]
            for kind, c, full in zip(kinds, closed, dilated_gains(rho, obs, kinds)):
                assert abs(c - full) < 1e-12, kind.token()

    def test_block_projectors_still_supported_by_phi(self):
        p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        p_block = np.diag([0.0, 1.0, 1.0]).astype(complex)
        obs = Observable((p0, p_block), (0.0, 1.0), 0, (3,))
        rho = random_density(3, 3, 10)
        out = measure_nonselective(rho, obs)
        assert np.abs(phi_map(out.matrix, obs) - out.matrix).max() < 1e-12


class TestEvolve:
    def test_returns_the_pair_formed_by_build_dilation(self):
        for i in range(6):
            rho, obs = random_instance(9300 + i, i)
            setup = build_dilation(rho, obs)
            omega0, omega_t = evolve(setup)
            assert evolve(setup) is setup.omegas
            assert omega0.dims == omega_t.dims == rho.dims + (setup.environment_dim,)
            u = setup.unitary
            assert np.array_equal(omega_t.matrix, u @ omega0.matrix @ u.conj().T)

    def test_real_state_is_fixed_point(self):
        rho = validate_state(np.diag([0.25, 0.25, 0.3, 0.2]), (2, 2))
        setup = build_dilation(rho, SIGMA_Z_ON_FIRST)
        _, omega_t = evolve(setup)
        reduced = linalg.partial_trace(omega_t.matrix, (2, 2, 2), (0, 1))
        assert np.abs(reduced - rho.matrix).max() < 1e-12

    def test_plus_state_becomes_bell_pair(self):
        setup = build_dilation(PLUS, SZ)
        omega0, omega_t = evolve(setup)
        assert np.allclose(omega0.matrix, np.kron(PLUS.matrix, np.diag([1.0, 0.0])))
        assert np.allclose(omega_t.matrix, max_entangled(2).matrix, atol=1e-12)

    def test_traces_are_one(self):
        setup = build_dilation(werner(0.7), SIGMA_Z_ON_FIRST)
        omega0, omega_t = evolve(setup)
        assert np.trace(omega0.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(omega_t.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_environment_trace_gives_measured_state(self):
        for i in range(10):
            rho, obs = random_instance(9000 + i, i)
            setup = build_dilation(rho, obs)
            _, omega_t = evolve(setup)
            n = len(rho.dims)
            reduced = linalg.partial_trace(
                omega_t.matrix, rho.dims + (setup.environment_dim,), range(n)
            )
            assert np.abs(reduced - phi_map(rho.matrix, obs)).max() < 1e-12
