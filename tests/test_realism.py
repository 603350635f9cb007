import gc
import json
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from vqr.channels import (
    build_dilation,
    evolve,
    has_reality,
    measure_nonselective,
    monitor,
    phi_map,
)
from vqr import metrics
from vqr.errors import DimensionMismatch, InvalidOrder
from vqr.metrics import (
    BURES,
    HELLINGER,
    HILBERT_SCHMIDT,
    TRACE,
    VON_NEUMANN,
    hs_distance,
    lp,
    parse_kind,
    relative_entropy,
    renyi,
    sandwiched_renyi,
    trace_distance,
)
from vqr.realism import (
    _conditional_informations,
    _rmax_table,
    conditional_information_entropic,
    conditional_information_geometric,
    delta_conditional_information,
    delta_conditional_information_dilated,
    dilated_gains,
    gains,
    irrealism,
    irrealism_decomposition,
    realism,
    realism_max,
    reports,
)
from vqr.states import (
    DensityMatrix,
    Observable,
    computational_observable,
    max_entangled,
    mu_state,
    random_density,
    random_observable,
    random_pure,
    spin_observable,
    validate_state,
    werner,
)
from vqr.sweeps import SweepSpec, run_rmax_sweep, run_werner_sweep

GEOMETRIC_KINDS = [TRACE, HILBERT_SCHMIDT, BURES, HELLINGER]
ALL_KINDS = GEOMETRIC_KINDS + [lp(1.5), lp(3.0), VON_NEUMANN]
SIGMA_Z_ON_FIRST = computational_observable(2, 0, (2, 2))
PLUS = validate_state(np.full((2, 2), 0.5), (2,))
SZ = computational_observable(2)


def random_instance(seed, i, d_b=2):
    d_a = 2 + (i % 3)
    rho = random_density(d_a * d_b, d_a * d_b - (i % 2), seed, dims=(d_a, d_b))
    obs = random_observable(d_a, seed + 50021, subsystem=0, dims=(d_a, d_b))
    return rho, obs


class TestIrrealism:
    def test_real_state_has_zero_irrealism(self):
        rho = validate_state(np.diag([0.2, 0.3, 0.4, 0.1]), (2, 2))
        assert irrealism(rho, SIGMA_Z_ON_FIRST) == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_ln2(self):
        assert irrealism(PLUS, SZ) == pytest.approx(np.log(2), abs=1e-12)

    def test_bell_state_ln2(self):
        assert irrealism(max_entangled(2), SIGMA_Z_ON_FIRST) == pytest.approx(
            np.log(2), abs=1e-12
        )

    def test_nonnegative_and_matches_relative_entropy(self):
        for i in range(30):
            rho, obs = random_instance(100 + i, i)
            value = irrealism(rho, obs)
            assert value >= -1e-10
            rel = relative_entropy(rho.matrix, phi_map(rho.matrix, obs))
            assert value == pytest.approx(rel, abs=1e-9)

    def test_zero_only_with_reality(self):
        for i in range(20):
            rho, obs = random_instance(200 + i, i)
            if irrealism(rho, obs) <= 1e-9:
                assert has_reality(rho, obs, tol=1e-8)


class TestIrrealismDecomposition:
    def test_product_state_has_zero_discord(self):
        rho_a = random_density(2, 2, 1)
        rho_b = random_density(3, 3, 2)
        rho = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), (2, 3))
        obs = random_observable(2, 3, subsystem=0, dims=(2, 3))
        coherence, discord = irrealism_decomposition(rho, obs)
        assert discord == pytest.approx(0.0, abs=1e-10)
        assert coherence == pytest.approx(irrealism(rho, obs), abs=1e-10)

    def test_bell_state_splits_into_pure_discord(self):
        coherence, discord = irrealism_decomposition(max_entangled(2), SIGMA_Z_ON_FIRST)
        assert coherence == pytest.approx(0.0, abs=1e-12)
        assert discord == pytest.approx(np.log(2), abs=1e-12)

    def test_plus_times_mixed_splits_into_pure_coherence(self):
        rho = DensityMatrix(np.kron(PLUS.matrix, np.eye(2) / 2), (2, 2))
        coherence, discord = irrealism_decomposition(rho, SIGMA_Z_ON_FIRST)
        assert coherence == pytest.approx(np.log(2), abs=1e-12)
        assert discord == pytest.approx(0.0, abs=1e-10)

    def test_parts_sum_to_irrealism_and_are_nonnegative(self):
        for i in range(30):
            rho, obs = random_instance(300 + i, i, d_b=3)
            coherence, discord = irrealism_decomposition(rho, obs)
            assert coherence + discord == pytest.approx(irrealism(rho, obs), abs=1e-9)
            assert coherence >= -1e-9
            assert discord >= -1e-9

    def test_needs_two_subsystems(self):
        with pytest.raises(DimensionMismatch):
            irrealism_decomposition(PLUS, SZ)

    def test_observable_on_second_subsystem(self):
        rho = random_density(6, 6, 40, dims=(3, 2))
        obs = random_observable(2, 41, subsystem=1, dims=(3, 2))
        coherence, discord = irrealism_decomposition(rho, obs)
        assert coherence + discord == pytest.approx(irrealism(rho, obs), abs=1e-9)
        report = realism(rho, obs, BURES)
        assert report.r_value == pytest.approx(
            report.r_max - delta_conditional_information(rho, obs, BURES), abs=1e-12
        )


class TestConditionalInformationEntropic:
    def test_maximally_mixed_environment_is_zero(self):
        rho = random_density(3, 3, 5)
        omega = DensityMatrix(np.kron(rho.matrix, np.eye(4) / 4), (3, 4))
        assert conditional_information_entropic(omega, 1) == pytest.approx(0.0, abs=1e-10)

    def test_pure_environment_gives_ln_d(self):
        rho = random_density(3, 2, 6)
        pure = np.zeros((4, 4), dtype=complex)
        pure[0, 0] = 1.0
        omega = DensityMatrix(np.kron(rho.matrix, pure), (3, 4))
        assert conditional_information_entropic(omega, 1) == pytest.approx(
            np.log(4), abs=1e-10
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled_gives_two_ln_d(self, d):
        assert conditional_information_entropic(max_entangled(d), 1) == pytest.approx(
            2 * np.log(d), abs=1e-10
        )

    def test_bounds_and_decomposition(self):
        # I(E|S) = [ln d_E - S(Omega_E)] + I(E:S), and 0 <= I <= ln(d_E d_S)
        from vqr.metrics import von_neumann_entropy

        for i in range(25):
            omega = random_density(12, 12 - (i % 4), 700 + i, dims=(3, 4))
            value = conditional_information_entropic(omega, 1)
            assert -1e-9 <= value <= np.log(12) + 1e-9
            omega_e = omega.reduced(1)
            omega_s = omega.reduced(0)
            local = np.log(4) - von_neumann_entropy(omega_e)
            mutual = (
                von_neumann_entropy(omega_s)
                + von_neumann_entropy(omega_e)
                - von_neumann_entropy(omega)
            )
            assert value == pytest.approx(local + mutual, abs=1e-9)

    def test_matches_divergence_form(self):
        for i in range(15):
            omega = random_density(8, 8, 800 + i, dims=(2, 4))
            reference = np.kron(omega.reduced(0).matrix, np.eye(4) / 4)
            assert conditional_information_entropic(omega, 1) == pytest.approx(
                relative_entropy(omega.matrix, reference), abs=1e-9
            )


class TestConditionalInformationGeometric:
    def test_zero_reference_for_all_kinds(self):
        rho = random_density(3, 3, 9)
        omega = DensityMatrix(np.kron(rho.matrix, np.eye(3) / 3), (3, 3))
        for kind in GEOMETRIC_KINDS + [lp(1.5)]:
            value = conditional_information_geometric(omega, 1, kind)
            assert value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("d_e", [2, 3, 4])
    def test_initial_state_closed_forms(self, d_e):
        # Omega_0 = rho (x) |e0><e0|: trace kind 2(d-1)/d, Bures 2 - 2/sqrt(d)
        rho = random_density(3, 3, 10 + d_e)
        pure = np.zeros((d_e, d_e), dtype=complex)
        pure[0, 0] = 1.0
        omega0 = DensityMatrix(np.kron(rho.matrix, pure), (3, d_e))
        tr_value = conditional_information_geometric(omega0, 1, TRACE)
        bu_value = conditional_information_geometric(omega0, 1, BURES)
        assert tr_value == pytest.approx(2 * (d_e - 1) / d_e, abs=1e-10)
        assert bu_value == pytest.approx(2 - 2 / np.sqrt(d_e), abs=1e-10)


class TestDeltaConditionalInformation:
    def test_real_state_gives_zero_all_kinds(self):
        rho = validate_state(np.diag([0.2, 0.3, 0.4, 0.1]), (2, 2))
        for kind in ALL_KINDS:
            assert delta_conditional_information(rho, SIGMA_Z_ON_FIRST, kind) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_bell_state_values(self):
        bell = max_entangled(2)
        assert delta_conditional_information(
            bell, SIGMA_Z_ON_FIRST, HILBERT_SCHMIDT
        ) == pytest.approx(0.25, abs=1e-12)
        assert delta_conditional_information(bell, SIGMA_Z_ON_FIRST, BURES) == pytest.approx(
            np.sqrt(2) - 1, abs=1e-12
        )

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.token())
    def test_closed_form_equals_dilated(self, kind):
        for i in range(15):
            rho, obs = random_instance(1000 + i, i, d_b=3)
            closed = delta_conditional_information(rho, obs, kind)
            dilated = delta_conditional_information_dilated(rho, obs, kind)
            assert closed == pytest.approx(dilated, abs=1e-9)


class TestRealismMax:
    def test_closed_values_at_two_outcomes(self):
        assert realism_max(TRACE, 2) == pytest.approx(0.5, abs=1e-9)
        assert realism_max(HILBERT_SCHMIDT, 2) == pytest.approx(0.25, abs=1e-9)
        assert realism_max(BURES, 2) == pytest.approx(np.sqrt(2) - 1, abs=1e-9)
        assert realism_max(HELLINGER, 2) == pytest.approx(np.sqrt(2) - 1, abs=1e-9)
        assert realism_max(VON_NEUMANN, 2) == pytest.approx(np.log(2), abs=1e-12)

    # d_E = 12, 16 and 20 lie past the old dense-pinching ceiling of rmax
    @pytest.mark.parametrize("d", [*range(2, 9), 12, 16, 20])
    def test_matches_analytic_closed_forms(self, d):
        # hand-derived: Tr 2(d-1)/d^2, HS (d-1)/d^2, Bu/He 2(sqrt(d)-1)/d
        assert realism_max(TRACE, d) == pytest.approx(2 * (d - 1) / d**2, abs=1e-10)
        assert realism_max(HILBERT_SCHMIDT, d) == pytest.approx((d - 1) / d**2, abs=1e-10)
        assert realism_max(BURES, d) == pytest.approx(2 * (np.sqrt(d) - 1) / d, abs=1e-10)
        assert realism_max(HELLINGER, d) == pytest.approx(2 * (np.sqrt(d) - 1) / d, abs=1e-10)
        assert realism_max(VON_NEUMANN, d) == pytest.approx(np.log(d), abs=1e-12)
        # the L_p block formula at the maximally entangled state; at p = 1
        # it reduces to the trace form 2(d-1)/d^2
        for p in (1.5, 3.0):
            closed = (
                (1 - 1 / d**2) ** p
                + (d - 1) * d ** (-2 * p)
                + (d - 1) * d ** (1 - 2 * p)
                - ((d - 1) ** p + (d - 1)) / d**p
            )
            assert realism_max(lp(p), d) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("kind", GEOMETRIC_KINDS, ids=lambda k: k.token())
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_restart_search_never_exceeds(self, kind, d):
        # gradient-free safety net: random states plus local hill climbing
        # around the best candidate must not beat the analytic maximizer
        obs = computational_observable(d, 0, (d, d))
        bound = realism_max(kind, d)
        best_value, best_vec = -1.0, None
        for i in range(120):
            if i % 2 == 0:
                rho = random_pure((d, d), seed=2000 + i)
                vec = None
            else:
                rho = random_density(d * d, d * d, 2000 + i, dims=(d, d))
                vec = None
            value = delta_conditional_information(rho, obs, kind)
            assert value <= bound + 1e-6
            if value > best_value:
                best_value = value
                best_vec = rho
        rng = np.random.default_rng(99)
        w, v = np.linalg.eigh(best_vec.matrix)
        psi = v[:, -1]
        for _ in range(60):
            trial = psi + 0.05 * (
                rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            )
            trial /= np.linalg.norm(trial)
            rho = DensityMatrix(np.outer(trial, trial.conj()), (d, d))
            value = delta_conditional_information(rho, obs, kind)
            assert value <= bound + 1e-6
            if value > best_value:
                best_value, psi = value, trial

    def test_the_rmax_sweep_decomposes_each_maximal_pair_once(self, linalg_counts):
        # bu and he share one root product of each d_E's maximal pair
        _rmax_table.clear()
        linalg_counts.reset()
        run_rmax_sweep(SweepSpec("rmax", {"d_max": 4}))
        assert linalg_counts.calls()["eigh"] == 2 * 3

    def test_rejects_small_outcome_count(self):
        # twice: the memo must not swallow the second raise; 2.0 after 2:
        # the memo must not answer a float from the entry of the int
        realism_max(TRACE, 2)
        for _ in range(2):
            with pytest.raises(DimensionMismatch, match=">= 2 outcomes"):
                realism_max(TRACE, 1)
            for d_e in (2.0, 2.5):
                with pytest.raises(DimensionMismatch, match="must be an integer"):
                    realism_max(TRACE, d_e)


@pytest.mark.parametrize("token", ["tr", "hs", "bu", "he", "lp1.5", "vn"])
def test_observable_dims_must_match_state_dims(token):
    # Both spaces are 6-dimensional, so only the dims tell them apart.
    rho = random_density(6, 6, 60, dims=(2, 3))
    obs = random_observable(3, 61, subsystem=0, dims=(3, 2))
    kind = parse_kind(token)
    for call in (delta_conditional_information, delta_conditional_information_dilated, realism):
        with pytest.raises(DimensionMismatch, match="do not match state dims"):
            call(rho, obs, kind)


MIXED_KIND_LISTS = {
    "forward": ["tr", "hs", "bu", "he", "lp1.5", "lp3", "vn"],
    "reverse": ["vn", "lp3", "lp1.5", "he", "bu", "hs", "tr"],
    "repeated": ["he", "tr", "bu", "he", "lp3", "vn", "hs", "bu", "lp1.5", "tr"],
}


class TestKindListHelpers:
    """Each instance's shared pass over a list of kinds gives, kind for kind,
    the same bits as the one-kind functions."""

    @pytest.mark.parametrize("tokens", MIXED_KIND_LISTS.values(), ids=MIXED_KIND_LISTS.keys())
    def test_closed_form_list_equals_one_kind_calls(self, tokens):
        kinds = [parse_kind(token) for token in tokens]
        for i in range(6):
            rho, obs = random_instance(9100 + i, i)
            shared = gains([(rho, obs)], kinds)[0]
            assert shared == [delta_conditional_information(rho, obs, k) for k in kinds]

    @pytest.mark.parametrize("tokens", MIXED_KIND_LISTS.values(), ids=MIXED_KIND_LISTS.keys())
    def test_dilated_list_equals_one_kind_calls(self, tokens):
        kinds = [parse_kind(token) for token in tokens]
        for i in range(4):
            rho, obs = random_instance(9200 + i, i)
            shared = dilated_gains(rho, obs, kinds)
            assert shared == [delta_conditional_information_dilated(rho, obs, k) for k in kinds]

    @pytest.mark.parametrize("tokens", MIXED_KIND_LISTS.values(), ids=MIXED_KIND_LISTS.keys())
    def test_report_list_equals_one_kind_calls(self, tokens):
        kinds = [parse_kind(token) for token in tokens]
        fields = ("kind", "r_value", "r_max", "delta_i", "vqr_detected")
        for i in range(6):
            rho, obs = random_instance(9500 + i, i)
            shared = reports([(rho, obs)], kinds)[0]
            expected = [realism(rho, obs, k) for k in kinds]
            assert len(shared) == len(expected)
            for got, want in zip(shared, expected):
                assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]

    def test_conditional_informations_equal_one_kind_calls(self):
        kinds = [parse_kind(token) for token in MIXED_KIND_LISTS["repeated"]]
        for i in range(3):
            rho, obs = random_instance(9300 + i, i)
            for omega in evolve(build_dilation(rho, obs)):
                expected = [
                    conditional_information_entropic(omega, 2)
                    if kind == VON_NEUMANN
                    else conditional_information_geometric(omega, 2, kind)
                    for kind in kinds
                ]
                assert _conditional_informations([omega], 2, kinds)[0] == expected

    def test_two_stack_conditional_informations_equal_one_omega_calls(self):
        # Omega_0 and Omega_t of one dilation, at d_A = 2..4 and d_B = 2, 3
        kinds = [parse_kind(token) for token in ("tr", "hs", "bu", "he", "vn", "lp1.5", "lp3")]
        for i in range(6):
            rho, obs = random_instance(9700 + i, i, d_b=2 + (i > 2))
            omegas = evolve(build_dilation(rho, obs))
            assert _conditional_informations(omegas, 2, kinds) == [
                _conditional_informations([omega], 2, kinds)[0] for omega in omegas
            ]

    @pytest.mark.parametrize("tokens", MIXED_KIND_LISTS.values(), ids=MIXED_KIND_LISTS.keys())
    def test_mixed_dimension_pair_lists_equal_one_pair_calls(self, tokens):
        # dims (2,2), (3,2), (4,2), (2,3), (3,3) and (4,3): dimension 6 with
        # 3 and with 2 outcomes, and the same pair twice
        kinds = [parse_kind(token) for token in tokens]
        pairs = [random_instance(9600 + i, i, d_b=2 + (i > 5)) for i in range(9)]
        pairs.append(pairs[1])
        stacked = gains(pairs, kinds)
        assert stacked == [gains([pair], kinds)[0] for pair in pairs]
        assert stacked == [
            [delta_conditional_information(rho, obs, k) for k in kinds] for rho, obs in pairs
        ]
        fields = ("kind", "r_value", "r_max", "delta_i", "vqr_detected")
        rows = reports(pairs, kinds)
        assert len(rows) == len(pairs)
        for row, (rho, obs) in zip(rows, pairs):
            assert [[getattr(r, f) for f in fields] for r in row] == [
                [getattr(realism(rho, obs, k), f) for f in fields] for k in kinds
            ]

    def test_empty_pair_list(self):
        kinds = [parse_kind(token) for token in MIXED_KIND_LISTS["forward"]]
        assert gains([], kinds) == []
        assert reports([], kinds) == []

    @pytest.mark.parametrize("position", [0, 3, 7])
    def test_renyi_anywhere_in_the_list_raises(self, position):
        rho, obs = random_instance(9400, 0)
        kinds = [parse_kind(token) for token in MIXED_KIND_LISTS["forward"]]
        kinds.insert(position, renyi(0.5))
        for call in (
            lambda: gains([(rho, obs)], kinds),
            lambda: dilated_gains(rho, obs, kinds),
            lambda: reports([(rho, obs)], kinds),
        ):
            with pytest.raises(InvalidOrder, match="no realism recipe"):
                call()


class TestClosedFormRoute:
    """The closed forms read their distances from metrics.powered_distances:
    tr and the L_p orders share one SVD of Phi/d_E - rho, hs one of
    Phi - rho, and ||Phi||_p^p and ||rho||_p^p one SVD each."""

    def test_one_stack_of_tr_hs_and_two_lp_orders_takes_four_svds(self, linalg_counts):
        calls = linalg_counts.shapes["svd"]
        pairs = [random_instance(9800 + 3 * i, 0) for i in range(5)]
        kinds = [parse_kind(token) for token in ("tr", "hs", "lp1.5", "lp3")]
        linalg_counts.reset()
        gains(pairs, kinds)
        assert calls == [(5, 4, 4)] * 4

    @pytest.mark.parametrize("d_e", [2, 3])
    def test_stacked_columns_equal_one_kind_calls(self, d_e):
        kinds = [parse_kind(token) for token in MIXED_KIND_LISTS["forward"]]
        pairs = [random_instance(9900 + i, d_e - 2 + 3 * i) for i in range(4)]
        assert {obs.outcomes for _, obs in pairs} == {d_e}
        assert gains(pairs, kinds) == [
            [delta_conditional_information(rho, obs, k) for k in kinds] for rho, obs in pairs
        ]

    @pytest.mark.parametrize("token, power", [
        ("tr", 2.0), ("hs", 1.0), ("bu", 1.0), ("he", 1.0), ("lp3", 1.0)])
    def test_non_default_power_raises_and_the_dilation_takes_it(self, token, power):
        # The closed forms hold at the default powers only: at hs^1 the
        # closed form would read 0.0906 where the dilation gives 0.0771.
        rho = random_density(4, 4, 3, dims=(2, 2))
        obs = random_observable(2, 5, 0, (2, 2))
        kind = parse_kind(token).with_power(power)
        message = re.escape(f"no closed form for {kind.label()} ")
        for call in (
            lambda: delta_conditional_information(rho, obs, kind),
            lambda: realism(rho, obs, kind),
            lambda: realism_max(kind, 2),
        ):
            with pytest.raises(InvalidOrder, match=message):
                call()
        assert np.isfinite(delta_conditional_information_dilated(rho, obs, kind))
        omega_t = evolve(build_dilation(rho, obs))[1]
        assert np.isfinite(conditional_information_geometric(omega_t, 2, kind))


@pytest.mark.parametrize("kind", [renyi(0.5), sandwiched_renyi(2.0)], ids=lambda k: k.token())
def test_renyi_divergences_have_no_realism_recipe(kind):
    rho = werner(0.5)
    for call in (
        lambda: realism(rho, SIGMA_Z_ON_FIRST, kind),
        lambda: delta_conditional_information(rho, SIGMA_Z_ON_FIRST, kind),
        lambda: delta_conditional_information_dilated(rho, SIGMA_Z_ON_FIRST, kind),
        lambda: realism_max(kind, 2),
    ):
        with pytest.raises(InvalidOrder, match="no realism recipe"):
            call()


def test_a_token_is_not_a_kind():
    rho = werner(0.5)
    for call in (
        lambda: realism(rho, SIGMA_Z_ON_FIRST, "tr"),
        lambda: realism_max("tr", 2),
        lambda: delta_conditional_information_dilated(rho, SIGMA_Z_ON_FIRST, "tr"),
    ):
        with pytest.raises(InvalidOrder, match="got str 'tr'; metrics.parse_kind"):
            call()


class TestPerKindCallsShareOnePass:
    """Per-kind calls on one (rho, A) pair reuse the intermediates of the
    last gains call, so they do the spectral work of one multi-kind call
    and give its bits."""

    TOKENS = ("tr", "hs", "bu", "he", "vn")

    @staticmethod
    def pair(seed, d=8):
        rho = random_density(d * d, d * d, seed, dims=(d, d))
        return rho, random_observable(d, seed + 1, 0, (d, d))

    def test_five_one_kind_calls_do_the_work_of_one_multi_kind_call(self, linalg_counts):
        kinds = [parse_kind(token) for token in self.TOKENS]
        rho, obs = self.pair(31)
        twin = DensityMatrix(rho.matrix, rho.dims)  # equal values, another identity
        for kind in kinds:
            realism_max(kind, obs.outcomes)
        linalg_counts.reset()
        one_kind = [realism(rho, obs, kind) for kind in kinds]
        per_kind_counts = linalg_counts.calls(), linalg_counts.matrices()
        linalg_counts.reset()
        multi_kind = reports([(twin, obs)], kinds)[0]
        assert per_kind_counts == (linalg_counts.calls(), linalg_counts.matrices())
        assert per_kind_counts[0]["eigh"] > 0
        assert one_kind == multi_kind

    def test_a_cold_table_adds_only_the_cost_of_filling_it(self, linalg_counts):
        # R_max misses are evaluated apart from the pair's workspace, so the
        # pair's own rho and Phi(rho) are decomposed once, cold or warm.
        kinds = [parse_kind(token) for token in self.TOKENS]
        rho, obs = self.pair(31)
        twin = DensityMatrix(rho.matrix, rho.dims)  # equal values, another identity
        _rmax_table.clear()
        linalg_counts.reset()
        for kind in kinds:
            realism_max(kind, obs.outcomes)
        filling = linalg_counts.calls()
        linalg_counts.reset()
        warm = [realism(rho, obs, kind) for kind in kinds]
        warm_counts = linalg_counts.calls()
        _rmax_table.clear()
        linalg_counts.reset()
        cold = [realism(twin, obs, kind) for kind in kinds]
        assert linalg_counts.calls() == {
            name: filling[name] + warm_counts[name] for name in filling}
        assert warm_counts["eigh"] == 2  # sqrt(rho) and sqrt(Phi(rho))
        assert cold == warm

    def test_interleaved_pairs_give_the_same_values(self):
        kinds = [parse_kind(token) for token in self.TOKENS]
        a, b = self.pair(41), self.pair(43)
        expected = {
            name: gains([(DensityMatrix(rho.matrix, rho.dims), obs)], kinds)[0]
            for name, (rho, obs) in (("a", a), ("b", b))}
        for name, (rho, obs) in (("a", a), ("b", b), ("a", a)):
            assert [delta_conditional_information(rho, obs, kind) for kind in kinds] == (
                expected[name])

    def test_the_memo_keeps_the_last_call_only(self):
        rho_a, obs_a = self.pair(51, d=2)
        rho_b, obs_b = self.pair(53, d=2)
        realism(rho_a, obs_a, BURES)
        seen = weakref.ref(rho_a)
        realism(rho_b, obs_b, BURES)
        del rho_a
        gc.collect()
        assert seen() is None

    def test_threads_sharing_the_memo_get_their_own_values(self):
        # from a cleared R_max table, so the first calls also race on its misses
        kinds = [parse_kind(token) for token in self.TOKENS]
        pairs = [self.pair(71 + 2 * i, d=2) for i in range(4)]
        expected = [reports([(DensityMatrix(rho.matrix, rho.dims), obs)], kinds)[0]
                    for rho, obs in pairs]
        wrong = []

        def work(n):
            for i in range(60):
                k = (n + i) % len(pairs)
                rho, obs = pairs[k]
                if [realism(rho, obs, kind) for kind in kinds] != expected[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        _rmax_table.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_a_cold_realism_max_miss_keeps_the_root_product(self, linalg_counts):
        # The R_max miss inside the first call is evaluated apart from the
        # workspace that the second call reuses.
        rho = random_density(8, 8, 61, dims=(4, 2))
        obs = random_observable(4, 62, 0, (4, 2))
        _rmax_table.clear()
        realism_max(HELLINGER, obs.outcomes)
        realism(rho, obs, BURES)  # its R_max misses
        linalg_counts.reset()
        realism(rho, obs, HELLINGER)
        assert linalg_counts.calls()["eigh"] == 0


ONE_ONE_TWO = Observable(
    tuple(np.diag(row).astype(complex) for row in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1])),
    (0.0, 1.0, 2.0), 0, (4, 2))


class TestBlockRootProduct:
    """For an observable of exact 0/1 diagonal projectors, the root product
    sqrt(Phi) sqrt(rho) takes sqrt(Phi) block by block."""

    @pytest.mark.parametrize("obs", [
        computational_observable(2, 0, (2, 3)),
        computational_observable(3, 0, (3, 2)),
        computational_observable(4, 0, (4, 4)),
        ONE_ONE_TWO,
    ], ids=["comp_2x3", "comp_3x2", "comp_4x4", "blocks_112"])
    def test_meets_the_dense_route(self, obs, linalg_counts):
        n = obs.subsystem_dim * obs.dims[1]
        rhos = np.stack([random_density(n, n - i % 3, 12000 + i, dims=obs.dims).matrix
                         for i in range(50)])
        phis = np.stack([phi_map(rho, obs) for rho in rhos])
        blocks = obs.pinching_blocks
        linalg_counts.reset()
        by_block = metrics.Distances(rhos, phis, blocks)
        by_block.root
        # sqrt(rho), then one stacked sqrtm_psd per block size
        assert linalg_counts.shapes["eigh"] == [(50, n, n)] + [
            (50, *indices.shape, indices.shape[1]) for indices in blocks.by_size]
        dense = metrics.Distances(rhos, phis)
        for kind in (BURES, HELLINGER):
            assert np.abs(by_block.powered(kind) - dense.powered(kind)).max() <= 1e-14
        assert len(blocks.by_size) == (2 if obs is ONE_ONE_TWO else 1)

    def test_no_eigh_of_phi_is_the_whole_matrix(self, linalg_counts):
        rho = random_density(256, 256, 12100, dims=(16, 16))
        obs = computational_observable(16, 0, (16, 16))
        realism_max(BURES, 16)
        linalg_counts.reset()
        realism(rho, obs, BURES)
        # sqrt(rho) whole, and Phi's 16 blocks of 16 in one call
        assert linalg_counts.shapes["eigh"] == [(1, 256, 256), (1, 16, 16, 16)]

    def test_mask_and_dense_pairs_in_one_call_keep_their_own_bits(self):
        kinds = [parse_kind(token) for token in ("tr", "hs", "bu", "he", "vn", "lp3")]
        observables = [
            computational_observable(2, 0, (2, 2)),
            spin_observable(0.7, 0.0, 0, (2, 2)),
            spin_observable(0.7, np.pi / 4, 0, (2, 2)),
            random_observable(2, 12201, 0, (2, 2)),
            computational_observable(2, 1, (2, 2)),
        ]
        pairs = [(random_density(4, 4 - i % 2, 12300 + i, dims=(2, 2)), obs)
                 for i, obs in enumerate(observables * 2)]
        together = gains(pairs, kinds)
        alone = [gains([(DensityMatrix(rho.matrix, rho.dims), obs)], kinds)[0]
                 for rho, obs in pairs]
        assert together == alone


class TestRealismReport:
    def test_real_state_reaches_maximum(self):
        rho = validate_state(np.diag([0.2, 0.3, 0.4, 0.1]), (2, 2))
        for kind in ALL_KINDS:
            report = realism(rho, SIGMA_Z_ON_FIRST, kind)
            assert report.r_value == pytest.approx(report.r_max, abs=1e-10)
            assert not report.vqr_detected

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.2, 0.3, 1 / 3])
    def test_werner_trace_plateau(self, eps):
        rng = np.random.default_rng(int(eps * 1000))
        obs = spin_observable(
            rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, (2, 2)
        )
        report = realism(werner(eps), obs, TRACE)
        assert report.r_value == pytest.approx(0.5, abs=1e-10)
        assert report.r_max == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_werner_bures_hellinger_coincide(self, eps):
        bu = realism(werner(eps), SIGMA_Z_ON_FIRST, BURES)
        he = realism(werner(eps), SIGMA_Z_ON_FIRST, HELLINGER)
        assert bu.r_value == pytest.approx(he.r_value, abs=1e-10)

    def test_von_neumann_matches_entropy_form(self):
        for i in range(20):
            rho, obs = random_instance(3000 + i, i)
            report = realism(rho, obs, VON_NEUMANN)
            assert report.r_value == pytest.approx(
                np.log(obs.outcomes) - irrealism(rho, obs), abs=1e-9
            )

    def test_report_identity_and_flags(self):
        for kind in GEOMETRIC_KINDS + [VON_NEUMANN]:
            report = realism(werner(0.8), SIGMA_Z_ON_FIRST, kind)
            assert report.r_value == report.r_max - report.delta_i
            assert report.vqr_detected
            obj = json.loads(json.dumps(report.to_json()))
            assert set(obj) == {"kind", "params", "r_value", "r_max", "delta_i", "vqr_detected"}
            assert obj["kind"] == kind.token()
            assert obj["vqr_detected"] is True

    def test_werner_full_mixing_realism_is_exactly_zero(self):
        # the state route to R_max cancels Delta I to the last bit at eps = 1;
        # a closed-form R_max would leave ~1e-16 here and change the table
        rows = run_werner_sweep(SweepSpec("werner", {"eps_steps": 2}))
        last = {r["kind"]: r["r_value"] for r in rows if r["epsilon"] == 1.0}
        for token in ("tr", "hs", "bu", "he"):
            assert last[token] == 0.0

    def test_lp_reports_are_flagged_unverified(self):
        report = realism(werner(0.8), SIGMA_Z_ON_FIRST, lp(3.0))
        assert report.axioms_unverified
        assert not realism(werner(0.8), SIGMA_Z_ON_FIRST, BURES).axioms_unverified
        for p, flagged in ((1.0, False), (2.0, False), (1.5, True)):
            assert realism(werner(0.8), SIGMA_Z_ON_FIRST, lp(p)).axioms_unverified is flagged

    def test_lp1_and_lp2_are_the_trace_and_hs_quantifiers(self):
        # Why lp1 and lp2 are not flagged: their closed forms reduce to the
        # trace and Hilbert-Schmidt ones (agreement to roundoff, ~1e-15).
        worst = 0.0
        for i in range(50):
            d_a, d_b = 2 + (i % 3), 2 + (i % 2)
            rho = random_density(d_a * d_b, d_a * d_b - (i % 2), 300 + i, dims=(d_a, d_b))
            obs = random_observable(d_a, 400 + i, subsystem=0, dims=(d_a, d_b))
            for p, kind in ((1.0, TRACE), (2.0, HILBERT_SCHMIDT)):
                lp_delta = delta_conditional_information(rho, obs, lp(p))
                worst = max(worst, abs(lp_delta - delta_conditional_information(rho, obs, kind)))
        assert worst < 1e-12


class TestAxiomProperties:
    """Module-level axiom checks on random instances.

    The part-discard check covers the kinds for which it is a theorem
    (trace, Bures, Hellinger: their distances contract under every
    channel).  The Hilbert-Schmidt quantifier provably violates it, which
    is pinned by a dedicated counterexample test below.
    """

    @pytest.mark.parametrize(
        "kind",
        [HILBERT_SCHMIDT, BURES, HELLINGER, VON_NEUMANN],
        ids=lambda k: k.token(),
    )
    def test_axiom1_measurement_monotonicity(self, kind):
        for i in range(40):
            rho, obs = random_instance(4000 + i, i)
            eps = float(np.random.default_rng(4400 + i).uniform())
            d_rho = delta_conditional_information(rho, obs, kind)
            d_mon = delta_conditional_information(monitor(rho, obs, eps), obs, kind)
            d_phi = delta_conditional_information(
                measure_nonselective(rho, obs), obs, kind
            )
            assert d_mon <= d_rho + 1e-10
            assert d_phi <= d_mon + 1e-10
            assert abs(d_phi) <= 1e-10
            if d_rho <= 1e-9:
                assert has_reality(rho, obs, tol=1e-8)

    def test_axiom1_falsified_for_trace_by_plateau(self):
        rho = werner(0.2)
        report = realism(rho, SIGMA_Z_ON_FIRST, TRACE)
        assert report.r_value == pytest.approx(report.r_max, abs=1e-12)
        assert not has_reality(rho, SIGMA_Z_ON_FIRST)

    @pytest.mark.parametrize(
        "kind", [TRACE, BURES, HELLINGER], ids=lambda k: k.token()
    )
    def test_axiom2a_discard_never_reduces_realism(self, kind):
        dimsets = [(2, 2, 2), (3, 2, 2), (2, 3, 2)]
        for i in range(60):
            dims = dimsets[i % 3]
            d = int(np.prod(dims))
            rho = random_density(d, d - (i % 2), 5000 + i, dims=dims)
            obs = random_observable(dims[0], 5500 + i, subsystem=0, dims=dims)
            reduced = rho.reduced((0, 1))
            obs_red = obs.scoped(dims[:2], 0)
            assert delta_conditional_information(
                reduced, obs_red, kind
            ) <= delta_conditional_information(rho, obs, kind) + 1e-10

    def test_axiom2a_hilbert_schmidt_counterexample(self):
        # Discarding an uncorrelated mixed bystander provably reduces the
        # HS quantifier: the squared gain scales with the bystander purity.
        rho = random_density(4, 4, 6000, dims=(2, 2))
        sigma = random_density(2, 2, 6001)
        obs = random_observable(2, 6002, subsystem=0, dims=(2, 2))
        big = DensityMatrix(np.kron(rho.matrix, sigma.matrix), (2, 2, 2))
        obs_big = obs.scoped((2, 2, 2), 0)
        delta_small = delta_conditional_information(rho, obs, HILBERT_SCHMIDT)
        delta_big = delta_conditional_information(big, obs_big, HILBERT_SCHMIDT)
        purity = float(np.real(np.trace(sigma.matrix @ sigma.matrix)))
        assert delta_big == pytest.approx(delta_small * purity, abs=1e-12)
        assert delta_small > delta_big + 1e-6  # discard reduces realism

    @pytest.mark.parametrize(
        "kind", [TRACE, BURES, HELLINGER], ids=lambda k: k.token()
    )
    def test_axiom2b_uncorrelated_part_is_ignored(self, kind):
        for i in range(40):
            rho, obs = random_instance(7000 + i, i)
            sigma = random_density(2, 2, 7500 + i)
            big = DensityMatrix(np.kron(rho.matrix, sigma.matrix), rho.dims + (2,))
            obs_big = obs.scoped(rho.dims + (2,), 0)
            assert delta_conditional_information(
                big, obs_big, kind
            ) == pytest.approx(
                delta_conditional_information(rho, obs, kind), abs=1e-10
            )

    @pytest.mark.parametrize("kind", [HILBERT_SCHMIDT, lp(3.0)], ids=lambda k: k.token())
    def test_axiom2b_fails_for_schatten_kinds(self, kind):
        # product scaling identity: the attached mixed state shrinks the gain
        rho, obs = random_instance(8000, 0)
        sigma = random_density(2, 2, 8001)
        big = DensityMatrix(np.kron(rho.matrix, sigma.matrix), rho.dims + (2,))
        obs_big = obs.scoped(rho.dims + (2,), 0)
        small_delta = delta_conditional_information(rho, obs, kind)
        big_delta = delta_conditional_information(big, obs_big, kind)
        assert big_delta < small_delta - 1e-6
        if kind.family == "hs":
            phi = phi_map(rho.matrix, obs)
            purity = float(np.real(np.trace(sigma.matrix @ sigma.matrix)))
            prod_sq = hs_distance(np.kron(rho.matrix, sigma.matrix),
                                  np.kron(phi, sigma.matrix)) ** 2
            assert prod_sq == pytest.approx(
                hs_distance(rho.matrix, phi) ** 2 * purity, abs=1e-12
            )

    @pytest.mark.parametrize(
        "kind",
        [HILBERT_SCHMIDT, BURES, HELLINGER, VON_NEUMANN],
        ids=lambda k: k.token(),
    )
    def test_axiom3_uncertainty_bound(self, kind):
        r_max = realism_max(kind, 2)
        saturations = 0
        for i in range(40):
            rho = random_density(4, 4 - (i % 2), 9000 + i, dims=(2, 2))
            rng = np.random.default_rng(9500 + i)
            x = spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, (2, 2))
            y = spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, (2, 2))
            total = (r_max - delta_conditional_information(rho, x, kind)) + (
                r_max - delta_conditional_information(rho, y, kind)
            )
            assert total <= 2 * r_max + 1e-9
            if abs(total - 2 * r_max) <= 1e-9:
                saturations += 1
                commutator = np.abs(
                    x.operator() @ y.operator() - y.operator() @ x.operator()
                ).max()
                product = np.kron(np.eye(2) / 2, rho.reduced(1).matrix)
                assert commutator <= 1e-9 or trace_distance(rho.matrix, product) <= 1e-9
        # saturation is possible (commuting pair or free marginal), not typical
        assert saturations <= 5

    def test_axiom3_saturation_when_allowed(self):
        # rho = 1/2 (x) rho_B saturates for every kind
        rho_b = random_density(2, 2, 10_000)
        rho = DensityMatrix(np.kron(np.eye(2) / 2, rho_b.matrix), (2, 2))
        x = spin_observable(0.0, 0.0, 0, (2, 2))
        y = spin_observable(0.0, np.pi / 2, 0, (2, 2))
        for kind in GEOMETRIC_KINDS + [VON_NEUMANN]:
            dx = delta_conditional_information(rho, x, kind)
            dy = delta_conditional_information(rho, y, kind)
            assert abs(dx) < 1e-10 and abs(dy) < 1e-10

    def test_axiom3_falsified_for_trace(self):
        rho = werner(0.2)
        x = spin_observable(0.0, 0.0, 0, (2, 2))
        y = spin_observable(0.0, np.pi / 2, 0, (2, 2))
        dx = delta_conditional_information(rho, x, TRACE)
        dy = delta_conditional_information(rho, y, TRACE)
        assert abs(dx) < 1e-12 and abs(dy) < 1e-12  # saturation
        commutator = np.abs(x.operator() @ y.operator() - y.operator() @ x.operator()).max()
        assert commutator > 1.0
        product = np.kron(np.eye(2) / 2, rho.reduced(1).matrix)
        assert trace_distance(rho.matrix, product) > 0.1

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.token())
    def test_axiom4_concavity_under_mixing(self, kind):
        for i in range(25):
            rng = np.random.default_rng(11_000 + i)
            n = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(n))
            parts = [random_density(4, 4, 12_000 + 7 * i + j, dims=(2, 2)) for j in range(n)]
            obs = random_observable(2, 13_000 + i, subsystem=0, dims=(2, 2))
            mixture = DensityMatrix(
                sum(p * r.matrix for p, r in zip(probs, parts)), (2, 2)
            )
            lhs = delta_conditional_information(mixture, obs, kind)
            rhs = sum(
                p * delta_conditional_information(r, obs, kind)
                for p, r in zip(probs, parts)
            )
            assert lhs <= rhs + 1e-9


class TestSymmetries:
    @pytest.mark.parametrize("phi", [0.0, np.pi / 4, np.pi / 2])
    @pytest.mark.parametrize("mu", [0.3, 0.8])
    def test_mu_state_polar_angle_invariance(self, phi, mu):
        rho = mu_state(mu)
        for kind in (BURES, HELLINGER):
            values = [
                realism(rho, spin_observable(theta, phi, 0, (2, 2)), kind).r_value
                for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False)
            ]
            assert max(values) - min(values) < 1e-9

    @pytest.mark.parametrize("kind", GEOMETRIC_KINDS + [VON_NEUMANN], ids=lambda k: k.token())
    def test_werner_direction_invariance(self, kind):
        rho = werner(0.55)
        rng = np.random.default_rng(21)
        values = [
            realism(
                rho,
                spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, (2, 2)),
                kind,
            ).r_value
            for _ in range(6)
        ]
        assert max(values) - min(values) < 1e-9

    def test_werner_monotone_ordering(self):
        # Bures/Hellinger curves lie above the Hilbert-Schmidt curve (they
        # start at a larger maximum and all meet at zero for eps = 1)
        for eps in np.linspace(0.0, 1.0, 21):
            bu = realism(werner(eps), SIGMA_Z_ON_FIRST, BURES).r_value
            he = realism(werner(eps), SIGMA_Z_ON_FIRST, HELLINGER).r_value
            hs = realism(werner(eps), SIGMA_Z_ON_FIRST, HILBERT_SCHMIDT).r_value
            assert bu == pytest.approx(he, abs=1e-10)
            assert bu >= hs - 1e-12
