import numpy as np
import pytest

from vqr import linalg, metrics, trials
from vqr.channels import phi_map
from vqr.errors import DimensionMismatch, DomainError, InvalidAlpha, InvalidOrder, OutOfRange
from vqr.metrics import (
    BURES,
    HELLINGER,
    HILBERT_SCHMIDT,
    TRACE,
    DistanceKind,
    bures_distance_sq,
    distance,
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
    random_observable,
    spin_observable,
    werner,
)
from vqr.trials import check_distance_properties, expected_distance_properties

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


    @pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0])
    def test_sandwiched_additive_on_products(self, alpha):
        # sigma^e rho sigma^e of (rho (x) s, Phi(rho) (x) s) has eigenvalues
        # near 1e-15 at alpha = 0.3; an eigenvalue floor dropped them and
        # broke additivity by 8e-5 on this instance.
        rho = random_density(4, 4, 3020240, dims=(2, 2))
        obs = random_observable(2, 3070261, subsystem=0, dims=(2, 2))
        bystander = random_density(2, 2, 3080253).matrix
        phi = phi_map(rho.matrix, obs)
        alone = sandwiched_renyi_divergence(rho.matrix, phi, alpha)
        product = sandwiched_renyi_divergence(
            np.kron(rho.matrix, bystander), np.kron(phi, bystander), alpha
        )
        assert abs(product - alone) < 1e-9


class TestDivergenceCore:
    """Every divergence comes from metrics.divergences: one clipped
    eigendecomposition of each operand, and their amplitudes."""

    KINDS = [metrics.VON_NEUMANN] + [
        make(a)
        for make in (metrics.renyi, metrics.sandwiched_renyi)
        for a in (0.3, 0.5, 1 - 1e-4, 1 + 1e-4, 2.0)
    ]

    @staticmethod
    def one_pair(kind, rho, sigma):
        if kind.family == "vn":
            return relative_entropy(rho, sigma)
        if kind.family == "renyi":
            return renyi_divergence(rho, sigma, kind.alpha)
        return sandwiched_renyi_divergence(rho, sigma, kind.alpha)

    def test_stack_equals_one_pair_calls(self):
        # _random_pair's sigma has rank d - 1, so vn and alpha > 1 are
        # infinite; the full-rank pairs give finite values of every kind.
        for d in (2, 3, 4, 6):
            pairs = [trials._random_pair(900 + 10 * d + k, d) for k in range(3)]
            pairs += [
                (random_density(d, d, 950 + 10 * d + k).matrix,
                 random_density(d, d, 980 + 10 * d + k).matrix)
                for k in range(3)
            ]
            pairs.append((pairs[0][0], pairs[0][0]))
            stacked = metrics.stacked(metrics.divergences, self.KINDS, pairs)
            assert stacked == [
                tuple(self.one_pair(kind, r, s) for kind in self.KINDS) for r, s in pairs
            ]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_agrees_with_dense_scipy_references(self, d):
        from scipy.linalg import fractional_matrix_power, logm, sqrtm

        def power(m, e):
            return np.asarray(fractional_matrix_power(m, e), dtype=complex)

        def reference(kind, rho, sigma):
            if kind.family == "vn":
                return np.trace(rho @ (logm(rho) - logm(sigma))).real
            a = kind.alpha
            if kind.family == "renyi":
                t = np.trace(power(rho, a) @ power(sigma, 1 - a))
            else:
                root = sqrtm(rho)
                t = np.trace(power(root @ power(sigma, (1 - a) / a) @ root, a))
            return np.log(t.real) / (a - 1)

        # At alpha = 1 -+ 1e-4, ln t / (alpha - 1) scales the references'
        # own roundoff by 1e4: their worst gap here is 6.7e-11.
        for k in range(4):
            rho = random_density(d, d, 4100 + 10 * d + k).matrix
            sigma = random_density(d, d, 4200 + 10 * d + k).matrix
            for kind in self.KINDS:
                assert abs(self.one_pair(kind, rho, sigma) - reference(kind, rho, sigma)) < 1e-10

    def test_rank_deficient_sigma_is_infinite_only_for_vn_and_alpha_above_one(self):
        for d in (2, 3, 4, 6):
            rho = random_density(d, d, 4300 + d).matrix
            sigma = random_density(d, d - 1, 4400 + d).matrix
            for kind in self.KINDS:
                value = self.one_pair(kind, rho, sigma)
                if kind.family == "vn" or kind.alpha > 1:
                    assert value == float("inf")
                else:
                    assert np.isfinite(value)
        for kind in self.KINDS:  # orthogonal supports: infinite at every order
            assert self.one_pair(kind, ZERO, ONE) == float("inf")

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("family", ["vn", "renyi", "srenyi"])
    def test_non_psd_operand_raises(self, family, side):
        # Without one clip rule for both spectra, a non-PSD rho gives a
        # finite relative entropy (1.0506 here) and a non-PSD sigma an
        # infinite one.
        operands = [np.diag([1.2, -0.2]), np.eye(2) / 2]
        rho, sigma = operands if side == 0 else operands[::-1]
        for kind in self.KINDS:
            if kind.family == family:
                with pytest.raises(DomainError):
                    self.one_pair(kind, rho, sigma)

    def test_non_psd_entropy_raises(self):
        with pytest.raises(DomainError):
            von_neumann_entropy(np.diag([1.2, -0.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda m: bures_distance_sq(m, np.eye(2) / 2),
    lambda m: von_neumann_entropy(m),
    lambda m: relative_entropy(m, np.eye(2) / 2),
    lambda m: relative_entropy(np.eye(2) / 2, m),
    lambda m: linalg.hermitian_eig(m),
    lambda m: trace_distance(m, np.eye(2) / 2),
    lambda m: fidelity(m, np.eye(2) / 2),
    lambda m: powered_distance(HILBERT_SCHMIDT, m, np.eye(2) / 2),
], ids=["bures", "entropy", "relative", "relative_second", "eig", "trace", "fidelity",
        "powered"])
def test_a_non_finite_entry_raises_out_of_range(call, bad):
    # nan once gave a Bures distance of 0.586 and an entropy of -0.0
    with pytest.raises(OutOfRange, match="non-finite entry"):
        call(np.diag([bad, 1.0]))


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

    @pytest.mark.parametrize("trials", [1, 5, 40])
    def test_each_trial_draws_its_pair_once(self, monkeypatch, trials):
        # the four checks share trial i's (rho, sigma); joint convexity
        # draws one more pair: 4 states a trial
        from vqr.audit import run_property_table

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return random_density(*args, **kwargs)

        monkeypatch.setattr("vqr.trials.random_density", counted)
        run_property_table(trials, 7)
        assert len(calls) == 4 * trials

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


class TestStackedEvaluation:
    """A stack gives each member the bits of its own call: the distances of
    every property-table column, and the von Neumann entropy."""

    def test_stack_equals_one_pair_calls(self):
        from vqr.audit import PROPERTY_COLUMNS

        kinds = [metrics.parse_kind(t).with_power(power) for t, power in PROPERTY_COLUMNS]
        kinds.append(metrics.lp(1.5))
        for d in (2, 3, 4, 6):
            pairs = [trials._random_pair(700 + 10 * d + k, d) for k in range(4)]
            pairs.append((pairs[0][0], pairs[0][0]))
            stacked = metrics.stacked(metrics.powered_distances, kinds, pairs)
            assert stacked == [tuple(metrics.powered_distances(kinds, r, s)) for r, s in pairs]
            assert stacked == [
                tuple(metrics.powered_distance(k, r, s) for k in kinds) for r, s in pairs
            ]

    def test_one_svd_serves_every_schatten_order(self):
        # powered_distances takes one SVD of s - r for every order; each
        # value has the bits of its own schatten_norm, raised to its power
        kinds = [TRACE, HILBERT_SCHMIDT, lp(1.5), lp(3.0), lp(3.0, power=1.0), BURES]
        schatten = [k for k in kinds if k.schatten_p is not None]
        for d in (2, 3, 4, 6):
            pairs = [trials._random_pair(750 + 10 * d + k, d) for k in range(4)]
            rs, ss = (np.stack(side) for side in zip(*pairs))
            for r, s in pairs:
                got = metrics.powered_distances(kinds, r, s)
                assert [got[kinds.index(k)] for k in schatten] == [
                    linalg.schatten_norm(s - r, k.schatten_p) ** k.power for k in schatten
                ]
            got = metrics.powered_distances(kinds, rs, ss)
            for k in schatten:
                norms = linalg.schatten_norm(ss - rs, k.schatten_p)
                assert got[kinds.index(k)] == [norm ** k.power for norm in norms.tolist()]

    def test_entropies_of_a_stack_sum_each_member_alone(self):
        # Rank-deficient states up to d = 12: their clipped null eigenvalues
        # are exact zeros, and a masked sum over the whole stack would add
        # the rest in another order.  The reference sums one spectrum's
        # positive eigenvalues, as the one-matrix entropy always has.
        def alone(m):
            w = np.linalg.eigvalsh((m + m.conj().T) / 2)
            w = np.where((w < 0.0) & (w >= -1e-10), 0.0, w)
            pos = w[w > 0.0]
            return float(-(pos * np.log(pos)).sum())

        for d in (2, 4, 8, 12):
            stack = np.stack(
                [random_density(d, 1 + k % d, 800 + 10 * d + k).matrix for k in range(8)]
            )
            expected = [alone(member) for member in stack]
            assert metrics.entropies(stack).tolist() == expected
            assert [metrics.von_neumann_entropy(member) for member in stack] == expected
