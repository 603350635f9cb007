import numpy as np
import pytest

from vqr import metrics
from vqr.channels import phi_map
from vqr.errors import DimensionMismatch, InvalidAlpha, InvalidOrder
from vqr.metrics import (
    BURES,
    HELLINGER,
    HILBERT_SCHMIDT,
    TRACE,
    DistanceKind,
    bures_distance_sq,
    check_distance_properties,
    distance,
    expected_distance_properties,
    fidelity,
    hellinger_distance_sq,
    lp,
    lp_distance,
    powered_distance,
    relative_entropy,
    renyi_divergence,
    sandwiched_renyi_divergence,
    trace_distance,
    von_neumann_entropy,
)
from vqr.states import (
    computational_observable,
    haar_unitary,
    max_entangled,
    mu_state,
    random_density,
    spin_observable,
    werner,
)

ZERO = np.diag([1.0, 0.0]).astype(complex)
ONE = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

ALL_KINDS = [TRACE, HILBERT_SCHMIDT, lp(1.5), lp(3.0), BURES, HELLINGER]


def measured_werner(eps):
    """sigma_z-measured Werner state: corners zeroed (hand construction)."""
    m = np.array(werner(eps).matrix)
    m[0, 3] = m[3, 0] = 0.0
    return m


class TestKindSelectors:
    def test_lp_requires_p_at_least_one(self):
        for p in (0.7, float("nan"), float("inf"), 1e400):
            with pytest.raises(InvalidOrder):
                lp(p)
        for power in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidOrder):
                DistanceKind("hs", power=power)

    def test_default_powers(self):
        assert TRACE.power == 1.0
        assert HILBERT_SCHMIDT.power == 2.0
        assert BURES.power == 2.0
        assert lp(3.0).power == 3.0

    def test_trace_equals_lp1_and_hs_equals_lp2(self):
        rho = random_density(3, 3, 1).matrix
        sig = random_density(3, 2, 2).matrix
        assert distance(TRACE, rho, sig) == pytest.approx(
            lp_distance(rho, sig, 1.0), abs=1e-14
        )
        assert distance(HILBERT_SCHMIDT, rho, sig) == pytest.approx(
            lp_distance(rho, sig, 2.0), abs=1e-14
        )

    def test_divergence_alpha_validation(self):
        with pytest.raises(InvalidAlpha):
            metrics.renyi(1.0)
        with pytest.raises(InvalidAlpha):
            metrics.sandwiched_renyi(-0.5)
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(InvalidAlpha):
                metrics.renyi(alpha)
            with pytest.raises(InvalidAlpha):
                metrics.sandwiched_renyi(alpha)


class TestLpDistance:
    def test_orthogonal_pure_states(self):
        assert lp_distance(ZERO, ONE, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_self_distance_zero(self):
        rho = random_density(4, 4, 3).matrix
        for p in (1.0, 1.5, 2.0, 3.0):
            assert lp_distance(rho, rho, p) == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.2, 0.3, 1 / 3])
    def test_werner_subnormalized_plateau_value(self, eps):
        # oracle: absolute eigenvalue sum of the hand-built difference
        diff = werner(eps).matrix - measured_werner(eps) / 2
        oracle = float(np.abs(np.linalg.eigvalsh(diff)).sum())
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert lp_distance(werner(eps).matrix, measured_werner(eps) / 2, 1.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lp_distance(np.eye(2) / 2, np.eye(3) / 3, 1.0)

    def test_agrees_with_direct_norm_oracles(self):
        rho = random_density(4, 4, 5).matrix
        sig = random_density(4, 3, 6).matrix
        d = sig - rho
        assert lp_distance(rho, sig, 1.0) == pytest.approx(
            np.abs(np.linalg.eigvalsh(d)).sum(), abs=1e-12
        )
        assert lp_distance(rho, sig, 2.0) == pytest.approx(
            np.linalg.norm(d, "fro"), abs=1e-12
        )


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_density(4, 4, 7)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus(self):
        assert fidelity(ZERO, PLUS) == pytest.approx(0.5, abs=1e-12)

    def test_bell_vs_measured(self):
        bell = max_entangled(2).matrix
        sigma = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert fidelity(bell, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        for i in range(10):
            rho = random_density(3, 3, 100 + i)
            sig = random_density(3, 2, 200 + i)
            assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-9)

    def test_pure_states_overlap(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            f = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
            assert f == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=1e-10)

    def test_range_for_normalized_inputs(self):
        for i in range(20):
            f = fidelity(random_density(3, 2, 300 + i), random_density(3, 3, 400 + i))
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_subnormalized_second_argument(self):
        # F(rho, rho/2) = Tr(rho)/2 for pure rho
        assert fidelity(ZERO, ZERO / 2) == pytest.approx(0.5, abs=1e-12)
        rho = random_density(3, 3, 55).matrix
        assert fidelity(rho, rho / 4) == pytest.approx(0.25, abs=1e-10)


class TestBuresHellinger:
    def test_self_distances_zero(self):
        rho = random_density(3, 3, 9)
        assert bures_distance_sq(rho, rho) == pytest.approx(0.0, abs=1e-10)
        assert hellinger_distance_sq(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        assert bures_distance_sq(ZERO, ONE) == pytest.approx(2.0, abs=1e-12)

    def test_bell_vs_measured_bures(self):
        bell = max_entangled(2).matrix
        sigma = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert bures_distance_sq(bell, sigma) == pytest.approx(2 - np.sqrt(2), abs=1e-12)

    def test_hellinger_pure_vs_maximally_mixed(self):
        assert hellinger_distance_sq(ZERO, np.eye(2) / 2) == pytest.approx(
            2 - np.sqrt(2), abs=1e-12
        )

    @pytest.mark.parametrize("eps", [0.1, 0.45, 0.8])
    def test_commuting_pair_coincidence(self, eps):
        rho = werner(eps).matrix
        sig = measured_werner(eps)
        assert abs(bures_distance_sq(rho, sig) - hellinger_distance_sq(rho, sig)) < 1e-10

    def test_noncommuting_pair_differs(self):
        rho = mu_state(0.8)
        obs = spin_observable(0.0, np.pi / 4, subsystem=0, dims=(2, 2))
        sig = phi_map(rho.matrix, obs)
        gap = abs(bures_distance_sq(rho.matrix, sig) - hellinger_distance_sq(rho.matrix, sig))
        assert gap > 1e-6


class TestMetricAxioms:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
    def test_symmetry_identity_triangle(self, kind):
        for i in range(200):
            d = 2 + (i % 3)
            rho = random_density(d, d, 1000 + i).matrix
            sig = random_density(d, max(1, d - 1), 2000 + i).matrix
            tau = random_density(d, d, 3000 + i).matrix
            d_rs = distance(kind, rho, sig)
            assert d_rs == pytest.approx(distance(kind, sig, rho), abs=1e-9)
            assert powered_distance(kind, rho, rho) <= 1e-10 or kind.family in ("bu", "he")
            if kind.family in ("bu", "he"):
                # squared forms are the natively computed quantities
                assert powered_distance(kind.with_power(2.0), rho, rho) <= 1e-10
            if trace_distance(rho, sig) > 1e-6:
                assert d_rs > 1e-12
            assert distance(kind, rho, tau) <= d_rs + distance(kind, sig, tau) + 1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
    def test_unitary_invariance(self, kind):
        for i in range(25):
            d = 2 + (i % 3)
            rho = random_density(d, d, 4000 + i).matrix
            sig = random_density(d, d - 1 or 1, 5000 + i).matrix
            u = haar_unitary(d, 6000 + i)
            before = distance(kind, rho, sig)
            after = distance(kind, u @ rho @ u.conj().T, u @ sig @ u.conj().T)
            assert after == pytest.approx(before, abs=1e-9)


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(max_entangled(3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed(self, d):
        assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(np.log(d), abs=1e-12)

    def test_relative_entropy_plus_vs_mixed(self):
        assert relative_entropy(PLUS, np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-12)

    def test_relative_entropy_nonnegative_zero_iff_equal(self):
        for i in range(20):
            rho = random_density(3, 3, 700 + i)
            sig = random_density(3, 3, 800 + i)
            assert relative_entropy(rho, sig) >= -1e-10
        rho = random_density(3, 3, 900)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_support_violation_is_infinite(self):
        assert relative_entropy(np.eye(2) / 2, ZERO) == float("inf")

    def test_measured_state_entropy_chain(self):
        # S(rho || Phi(rho)) = S(Phi(rho)) - S(rho)
        for i in range(25):
            d_a = 2 + (i % 2)
            rho = random_density(2 * d_a, 2 * d_a, 1100 + i, dims=(d_a, 2))
            obs = computational_observable(d_a, 0, (d_a, 2))
            phi = phi_map(rho.matrix, obs)
            lhs = relative_entropy(rho.matrix, phi)
            rhs = von_neumann_entropy(phi) - von_neumann_entropy(rho)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestRenyi:
    def test_self_divergence_zero(self):
        rho = random_density(3, 3, 1200)
        for alpha in (0.3, 0.5, 2.0, 3.0):
            assert renyi_divergence(rho, rho, alpha) == pytest.approx(0.0, abs=1e-10)
            assert sandwiched_renyi_divergence(rho, rho, alpha) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_commuting_collapse(self):
        for i in range(10):
            d = 2 + (i % 3)
            rng = np.random.default_rng(1300 + i)
            u = haar_unitary(d, 1400 + i)
            w1 = rng.dirichlet(np.ones(d))
            w2 = rng.dirichlet(np.ones(d))
            rho = u @ np.diag(w1).astype(complex) @ u.conj().T
            sig = u @ np.diag(w2).astype(complex) @ u.conj().T
            for alpha in (0.5, 2.0):
                assert renyi_divergence(rho, sig, alpha) == pytest.approx(
                    sandwiched_renyi_divergence(rho, sig, alpha), abs=1e-10
                )

    def test_bures_hellinger_renyi_identities(self):
        for i in range(100):
            d = 2 + (i % 3)
            rho = random_density(d, d, 1500 + i)
            sig = random_density(d, max(1, d - (i % 2)), 1600 + i)
            bures_id = 2 - 2 * np.exp(-0.5 * sandwiched_renyi_divergence(rho, sig, 0.5))
            hell_id = 2 - 2 * np.exp(-0.5 * renyi_divergence(rho, sig, 0.5))
            assert abs(bures_distance_sq(rho, sig) - bures_id) < 1e-9
            assert abs(hellinger_distance_sq(rho, sig) - hell_id) < 1e-9

    def test_alpha_limits_approach_relative_entropy(self):
        for i in range(20):
            d = 2 + (i % 3)
            rho = random_density(d, d, 1700 + i)
            sig = random_density(d, d, 1800 + i)
            ref = relative_entropy(rho, sig)
            for alpha in (1 - 1e-4, 1 + 1e-4):
                assert abs(renyi_divergence(rho, sig, alpha) - ref) < 1e-3
                assert abs(sandwiched_renyi_divergence(rho, sig, alpha) - ref) < 1e-3

    def test_nonnegative_for_normalized(self):
        for i in range(20):
            rho = random_density(3, 3, 1900 + i)
            sig = random_density(3, 3, 2000 + i)
            for alpha in (0.5, 2.0):
                assert renyi_divergence(rho, sig, alpha) >= -1e-10
                assert sandwiched_renyi_divergence(rho, sig, alpha) >= -1e-10

    def test_support_violation_above_one(self):
        assert renyi_divergence(np.eye(2) / 2, ZERO, 2.0) == float("inf")
        assert sandwiched_renyi_divergence(np.eye(2) / 2, ZERO, 2.0) == float("inf")


class TestPropertyChecks:
    def test_trace_all_pass(self):
        reports = check_distance_properties(TRACE, 200, seed=42)
        assert all(r.passed for r in reports)

    def test_hs_contractivity_counterexample(self):
        reports = {r.property: r for r in check_distance_properties(HILBERT_SCHMIDT, 500, seed=42)}
        assert not reports["contractivity"].passed
        assert reports["positive_definiteness"].passed
        assert reports["unitary_invariance"].passed
        assert reports["joint_convexity"].passed

    def test_bures_joint_convexity_power_sensitivity(self):
        base = {r.property: r for r in check_distance_properties(BURES.with_power(1.0), 500, seed=42)}
        squared = {r.property: r for r in check_distance_properties(BURES, 500, seed=42)}
        assert not base["joint_convexity"].passed
        assert squared["joint_convexity"].passed
        assert base["contractivity"].passed and squared["contractivity"].passed

    def test_report_json_schema(self):
        report = check_distance_properties(TRACE, 10, seed=1)[0]
        obj = report.to_json()
        assert set(obj) == {"kind", "property", "trials", "violations", "worst_case", "example_seed"}

    def test_expected_pattern_table(self):
        assert expected_distance_properties(TRACE)["contractivity"]
        assert not expected_distance_properties(HILBERT_SCHMIDT)["contractivity"]
        assert not expected_distance_properties(lp(3.0))["contractivity"]
        assert expected_distance_properties(BURES)["joint_convexity"]
        assert not expected_distance_properties(BURES.with_power(1.0))["joint_convexity"]
