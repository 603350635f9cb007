import json

import numpy as np
import pytest

from vqr import linalg, states
from vqr.channels import build_dilation, evolve, measure_nonselective, monitor
from vqr.errors import (
    DimensionMismatch,
    NonProjective,
    NotHermitian,
    NotPSD,
    OutOfRange,
    TraceNotOne,
)
from vqr.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Observable,
    computational_observable,
    density_from_json,
    density_to_json,
    max_entangled,
    mu_state,
    observable_from_json,
    observable_to_json,
    random_density,
    random_observable,
    random_observables,
    random_pure,
    spin_observable,
    validate_observable,
    validate_state,
    werner,
)

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5


class TestValidateState:
    def test_maximally_mixed_valid(self):
        rho = validate_state(np.eye(2) / 2, (2,))
        assert rho.dims == (2,)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne) as err:
            validate_state(np.diag([0.6, 0.6]), (2,))
        assert err.value.trace == pytest.approx(1.2)

    def test_not_psd_reports_eigenvalue(self):
        with pytest.raises(NotPSD) as err:
            validate_state(np.diag([1.2, -0.2]), (2,))
        assert err.value.min_eigenvalue == pytest.approx(-0.2)

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_state(m, (2,))

    def test_dims_must_factor(self):
        with pytest.raises(DimensionMismatch):
            validate_state(np.eye(4) / 4, (3,))
        for dims in ((2.5,), (2.0,)):
            with pytest.raises(DimensionMismatch, match="dims entry must be an integer"):
                DensityMatrix(np.eye(2) / 2, dims)

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.full((2, 2), np.nan),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.array([[0.5, complex(0.0, -np.inf)], [complex(0.0, np.inf), 0.5]]),
        ],
        ids=["one-nan", "all-nan", "inf", "imaginary-inf"],
    )
    def test_non_finite_entry(self, m):
        with pytest.raises(OutOfRange, match="non-finite"):
            validate_state(m, (2,))

    def test_constructor_checks_structure_only(self):
        # Values are checked where a matrix enters vqr, not on every state
        # vqr builds itself.
        rho = DensityMatrix(np.diag([1.2, -0.2]), (2,))
        assert rho.dims == (2,)
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.ones((2, 3)) / 2, (2,))

    def test_matrix_is_read_only(self):
        rho = validate_state(np.eye(2) / 2, (2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.3


class TestWerner:
    def test_eps_zero_is_maximally_mixed(self):
        assert np.allclose(werner(0.0).matrix, np.eye(4) / 4)

    def test_eps_one_is_bell_projector(self):
        assert np.allclose(werner(1.0).matrix, PHI_PLUS, atol=1e-12)

    def test_eps_half_eigenvalues(self):
        w = np.linalg.eigvalsh(werner(0.5).matrix)
        assert np.allclose(np.sort(w), [1 / 8, 1 / 8, 1 / 8, 5 / 8], atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            werner(1.5)

    def test_affine_in_epsilon(self):
        a, b = 0.2, 0.9
        mid = werner((a + b) / 2).matrix
        mix = (werner(a).matrix + werner(b).matrix) / 2
        assert np.abs(mid - mix).max() < 1e-12


class TestMuState:
    def test_mu_one_is_bell(self):
        assert np.allclose(mu_state(1.0).matrix, PHI_PLUS, atol=1e-12)

    def test_mu_zero_is_flip_mixture(self):
        expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        assert np.allclose(mu_state(0.0).matrix, expected, atol=1e-12)

    def test_mu_half_explicit(self):
        expected = np.eye(4) / 4 + 0.125 * np.array(
            [[0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]]
        )
        assert np.allclose(mu_state(0.5).matrix, expected, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            mu_state(-0.1)

    def test_affine_in_mu(self):
        a, b = 0.1, 0.7
        mid = mu_state((a + b) / 2).matrix
        mix = (mu_state(a).matrix + mu_state(b).matrix) / 2
        assert np.abs(mid - mix).max() < 1e-12


class TestMaxEntangled:
    def test_d2_matches_bell(self):
        assert np.allclose(max_entangled(2).matrix, PHI_PLUS, atol=1e-12)

    def test_d3_rank_one_with_mixed_marginal(self):
        rho = max_entangled(3)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho.reduced(1).matrix, np.eye(3) / 3, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_purity_one(self, d):
        assert max_entangled(d).purity() == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            max_entangled(1)


class TestSpinObservable:
    def test_pole_gives_sigma_z_basis(self):
        obs = spin_observable(0.3, 0.0)
        assert np.allclose(obs.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(obs.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_equator_theta_zero_gives_sigma_x(self):
        obs = spin_observable(0.0, np.pi / 2)
        plus = np.full((2, 2), 0.5)
        assert np.abs(obs.projectors[0] - plus).max() < 1e-12

    def test_sigma_y_projectors(self):
        obs = spin_observable(np.pi / 2, np.pi / 2)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.abs(obs.projectors[0] - expected).max() < 1e-12

    def test_completeness_and_orthogonality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            obs = spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            p, q = obs.projectors
            assert np.abs(p + q - np.eye(2)).max() < 1e-12
            assert np.abs(p @ q).max() < 1e-12


class TestComputationalObservable:
    @pytest.mark.parametrize("d", [2, 3])
    def test_projectors(self, d):
        obs = computational_observable(d)
        assert obs.outcomes == d
        for a, p in enumerate(obs.projectors):
            expected = np.zeros((d, d))
            expected[a, a] = 1.0
            assert np.array_equal(p, expected)
            assert np.array_equal(p @ p, p)

    def test_dim_mismatch(self):
        message = r"projector 0 has shape \(3, 3\), subsystem dim is 2"
        with pytest.raises(DimensionMismatch, match=message):
            computational_observable(3, 0, (2, 2))

    def test_subsystem_out_of_range(self):
        with pytest.raises(DimensionMismatch, match=r"subsystem 5 invalid for dims \(2, 2\)"):
            computational_observable(2, 5, (2, 2))
        with pytest.raises(DimensionMismatch, match="subsystem must be an integer, got 0.5"):
            computational_observable(2, 0.5, (2, 2))
        with pytest.raises(DimensionMismatch, match="dims entry must be an integer, got 2.5"):
            computational_observable(2, 0, (2.5, 2))


class TestObservableInvariants:
    def test_rejects_non_idempotent(self):
        half = np.eye(2) / 2
        with pytest.raises(NonProjective):
            validate_observable((half, np.eye(2) - half), (1.0, -1.0), 0, (2,))

    def test_rejects_non_orthogonal(self):
        p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        p_mix = np.diag([1.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(NonProjective):
            validate_observable((p0, p_mix), (1.0, 2.0), 0, (3,))

    def test_rejects_incomplete(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NonProjective):
            validate_observable((p0,), (1.0,), 0, (2,))

    def test_rejects_duplicate_eigenvalues(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(NonProjective):
            validate_observable((p0, p1), (1.0, 1.0), 0, (2,))

    @pytest.mark.parametrize("call, dims", [
        (lambda: Observable((np.eye(2),), (1.0,), 0, (2, 0)), (2, 0)),
        (lambda: computational_observable(2, 0, (2, 0)), (2, 0)),
        (lambda: random_observable(2, 1, 0, (2, -1)), (2, -1)),
        (lambda: observable_from_json(observable_to_json(computational_observable(2, 0, (2, 0)))),
         (2, 0)),
    ], ids=["constructor", "computational", "random", "json_round_trip"])
    def test_dims_below_one_raise(self, call, dims):
        with pytest.raises(DimensionMismatch) as raised:
            call()
        assert str(raised.value) == f"dims must be positive, got {dims}"

    def test_accepts_block_projectors(self):
        p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        p_block = np.diag([0.0, 1.0, 1.0]).astype(complex)
        obs = validate_observable((p0, p_block), (0.0, 1.0), 0, (3,))
        assert obs.outcomes == 2

    def test_rejects_non_finite_projector(self):
        p0 = np.diag([1.0, np.nan]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(NonProjective, match="projector 0 has a non-finite entry"):
            validate_observable((p0, p1), (1.0, -1.0), 0, (2,))

    def test_constructor_checks_structure_only(self):
        # Values are checked where projectors enter vqr, not on every
        # observable vqr builds itself.
        half = np.eye(2) / 2
        obs = Observable((half, half), (1.0, 1.0), 0, (2,))
        assert obs.outcomes == 2
        assert not obs.projectors[0].flags.writeable
        with pytest.raises(DimensionMismatch, match=r"projector 1 has shape \(3, 3\)"):
            Observable((half, np.eye(3)), (1.0, -1.0), 0, (2,))
        with pytest.raises(DimensionMismatch, match="need one eigenvalue per projector"):
            Observable((half, half), (1.0,), 0, (2,))

    @pytest.mark.parametrize(
        "diagonals, error, message",
        [
            # each check runs over the whole stack before the next: NaN in
            # projector 1 beats projector 2 failing idempotency
            ([(1, 0, 0), (0, np.nan, 0), (0, 0, 0.5)], NonProjective,
             "projector 1 has a non-finite entry"),
            # idempotency comes before the overlap of 0 and 2
            ([(1, 0, 0), (0, 0.5, 0), (1, 0, 0)], NonProjective, "projector 1 is not idempotent"),
            # of two overlapping pairs, the lower index is named
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], NonProjective,
             "projectors 0 and 2 are not orthogonal"),
            # structure is checked before any value: a bad shape at 2 comes
            # before 2's values and the completeness check
            ([(1, 0, 0), (0, 0, 0), (np.nan,) * 4], DimensionMismatch,
             r"projector 2 has shape \(4, 4\)"),
            # and before the values of the projectors ahead of it
            ([(np.nan, 0, 0), (0, 1, 0), (0,) * 4], DimensionMismatch,
             r"projector 2 has shape \(4, 4\)"),
            # a later projector's non-finite entry beats an earlier
            # projector failing idempotency
            ([(0.5, 0, 0), (0, np.nan, 0), (0, 0, 1)], NonProjective,
             "projector 1 has a non-finite entry"),
        ],
    )
    def test_first_failure_in_projector_order(self, diagonals, error, message):
        projectors = [np.diag(np.array(diag, dtype=complex)) for diag in diagonals]
        with pytest.raises(error, match=message):
            validate_observable(projectors, (0.0, 1.0, 2.0), 0, (3,))

    @pytest.mark.parametrize(
        "eigenvalues", [(np.nan, 1.0), (np.nan, np.nan), (1.0, np.inf)]
    )
    def test_rejects_non_finite_eigenvalue(self, eigenvalues):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(OutOfRange, match="eigenvalues must be finite"):
            validate_observable((p0, p1), eigenvalues, 0, (2,))

    def test_constructors_yield_valid_observables(self):
        # vqr's own constructors skip the value checks, so their outputs
        # must pass them.
        built = [spin_observable(theta, phi, subsystem, (2, 2))
                 for theta, phi in ((0.0, 0.0), (0.7, 0.4), (2.5, np.pi / 2), (-1.0, np.pi))
                 for subsystem in (0, 1)]
        built += [computational_observable(d, subsystem, dims)
                  for d, subsystem, dims in ((2, 0, None), (3, 0, None), (2, 1, (3, 2)),
                                             (3, 1, (2, 3, 2)), (4, 2, (2, 2, 4)))]
        built += random_observables([(d, seed, 1, (2, d)) for d in (2, 3, 5)
                                     for seed in (4, 9, 31)])
        built += [obs.scoped((3, obs.subsystem_dim), 1) for obs in built]
        for obs in built:
            revalidated = validate_observable(obs.projectors, obs.eigenvalues, obs.subsystem,
                                              obs.dims)
            assert revalidated.dims == obs.dims

    @pytest.mark.parametrize(
        "theta, phi, name",
        [(np.nan, 0.0, "theta"), (-np.inf, 0.0, "theta"), (0.0, np.nan, "phi"),
         (0.0, np.inf, "phi")],
    )
    def test_spin_observable_rejects_non_finite_angle(self, theta, phi, name):
        with pytest.raises(OutOfRange, match=f"^{name} must be finite"):
            spin_observable(theta, phi)

    def test_operator_reconstruction(self):
        obs = spin_observable(0.0, 0.0)
        assert np.allclose(obs.operator(), np.diag([1.0, -1.0]))

    def test_full_projectors_embedding(self):
        obs = computational_observable(2, subsystem=1, dims=(3, 2))
        full = obs.full_projectors
        assert full[0].shape == (6, 6)
        assert np.allclose(sum(full), np.eye(6))


    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "dims, subsystem",
        [((2,), 0), ((2, 2), 0), ((2, 2), 1), ((3, 2, 2), 0), ((3, 2, 2), 1), ((2, 3, 2), 1),
         ((2, 2, 3), 2)],
    )
    def test_full_projectors_have_the_bits_of_kron(self, dims, subsystem, seed):
        # random, computational and (on qubits) spin projectors, whose
        # exact and signed zeros the embedding must keep
        d = dims[subsystem]
        observables = [random_observable(d, seed, subsystem=subsystem, dims=dims),
                       computational_observable(d, subsystem, dims)]
        if d == 2:
            observables.append(spin_observable(0.7 * seed, 0.4 * seed, subsystem, dims))
        eye_l = np.eye(int(np.prod(dims[:subsystem])), dtype=complex)
        eye_r = np.eye(int(np.prod(dims[subsystem + 1:])), dtype=complex)
        for obs in observables:
            for p, full in zip(obs.projectors, obs.full_projectors):
                expected = np.kron(np.kron(eye_l, p), eye_r)
                assert np.array_equal(full.view(float), expected.view(float))
                assert np.array_equal(np.signbit(full.view(float)),
                                      np.signbit(expected.view(float)))
                assert not full.flags.writeable

    def test_mu_state_matches_the_pauli_expansion(self):
        xx_yy = np.kron(PAULI_X, PAULI_X) - np.kron(PAULI_Y, PAULI_Y)
        zz = np.kron(PAULI_Z, PAULI_Z)
        for mu in (0.0, 0.13, 0.5, 0.77, 1.0):
            expected = np.eye(4) / 4 + (mu / 4) * xx_yy + ((2 * mu - 1) / 4) * zz
            assert np.array_equal(mu_state(mu).matrix.view(float), expected.view(float))
            assert np.array_equal(np.signbit(mu_state(mu).matrix.view(float)),
                                  np.signbit(expected.view(float)))


class TestRandomSampling:
    def test_rank_one_is_pure(self):
        rho = random_density(3, 1, seed=5)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_full_rank_qubit(self):
        rho = random_density(2, 2, seed=6)
        assert np.linalg.eigvalsh(rho.matrix).min() > 0.0

    def test_same_seed_same_matrix(self):
        assert np.array_equal(
            random_density(4, 3, seed=42).matrix, random_density(4, 3, seed=42).matrix
        )
        assert np.array_equal(
            random_pure((2, 2), seed=43).matrix, random_pure((2, 2), seed=43).matrix
        )
        a = random_observable(3, seed=44)
        b = random_observable(3, seed=44)
        assert all(np.array_equal(p, q) for p, q in zip(a.projectors, b.projectors))

    def test_block_draws_equal_one_draw_calls(self):
        # d = 2..4 on subsystems 0 and 1, and d = 3 alone, in one call; the
        # reference decomposes each draw alone, as one matrix
        draws = [(2 + k % 3, 5000 + k, k // 3 % 2) for k in range(12)]
        draws = [(d, seed, sub, (d, 2) if sub == 0 else (2, d)) for d, seed, sub in draws]
        draws.append((3, 5100, 0, None))
        for (d, seed, sub, dims), obs in zip(draws, states.random_observables(draws)):
            g = states._ginibre(np.random.default_rng(seed), d, d)
            w, v = linalg.hermitian_eig((g + g.conj().T) / 2)
            reference = [np.outer(v[:, k], v[:, k].conj()) for k in range(d)]
            for alone in (random_observable(d, seed, sub, dims), obs):
                assert (alone.subsystem, alone.dims) == (sub, dims or (d,))
                assert alone.eigenvalues == tuple(w.tolist())
                for p, ref in zip(alone.projectors, reference, strict=True):
                    assert np.array_equal(p.view(float), ref.view(float))
                    assert np.array_equal(np.signbit(p.view(float)), np.signbit(ref.view(float)))

    def test_rank_out_of_range(self):
        with pytest.raises(OutOfRange):
            random_density(2, 3, seed=1)

    def test_mean_approaches_maximally_mixed(self):
        total = np.zeros((2, 2), dtype=complex)
        for i in range(1000):
            total += random_density(2, 2, seed=10_000 + i).matrix
        mean = total / 1000
        deviation = np.abs(np.linalg.eigvalsh(mean - np.eye(2) / 2)).sum()
        assert deviation < 0.05

    def test_random_pure_is_valid_pure_state(self):
        rho = random_pure((2, 3), seed=9)
        assert rho.dims == (2, 3)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_random_pure_rejects_a_zero_dim_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a unitary")

        monkeypatch.setattr(states, "haar_unitary", no_draw)
        with pytest.raises(DimensionMismatch, match=r"dims must be positive, got \(2, 0\)"):
            random_pure((2, 0), 1)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: random_density(4, 4, -1), OutOfRange, "seed must be at least 0, got -1"),
        (lambda: random_observable(2, -1), OutOfRange, "seed must be at least 0, got -1"),
        (lambda: states.haar_unitary(2, -1), OutOfRange, "seed must be at least 0, got -1"),
        (lambda: random_pure((2,), -1), OutOfRange, "seed must be at least 0, got -1"),
        (lambda: random_density(2, 2, 1.5), DimensionMismatch, "seed must be an integer, got 1.5"),
        (lambda: states.haar_unitary(2.5, 1), DimensionMismatch,
         "unitary dimension must be an integer, got 2.5"),
        (lambda: random_observable(2.5, 1), DimensionMismatch,
         "observable dimension must be an integer, got 2.5"),
        (lambda: states.haar_unitary(0, 1), OutOfRange,
         "unitary dimension must be at least 1, got 0"),
        (lambda: random_observable(0, 1), OutOfRange,
         "observable dimension must be at least 1, got 0"),
        (lambda: random_density(0, 1, 1), OutOfRange, "state dimension must be at least 1, got 0"),
        (lambda: computational_observable(0), OutOfRange,
         "observable dimension must be at least 1, got 0"),
        (lambda: computational_observable(-1), OutOfRange,
         "observable dimension must be at least 1, got -1"),
    ], ids=["density_seed", "observable_seed", "unitary_seed", "pure_seed", "float_seed",
            "unitary_float_dim", "observable_float_dim", "unitary_zero_dim",
            "observable_zero_dim", "density_zero_dim", "computational_zero_dim",
            "computational_negative_dim"])
    def test_bad_seeds_and_sizes_raise_named_errors(self, call, error, message):
        # the seed rule is trials.require_trials', through linalg.as_seed
        with pytest.raises(error, match=f"^{message}$"):
            call()

    def test_haar_unitary_is_unitary(self):
        u = states.haar_unitary(5, seed=11)
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12


OBSERVABLE_JSON = observable_to_json(computational_observable(2, 1, (3, 2)))


class TestJsonWireFormat:
    def test_density_schema_and_roundtrip(self):
        rho = werner(0.3)
        obj = density_to_json(rho)
        assert set(obj) == {"dims", "entries"}
        assert obj["dims"] == [2, 2]
        assert len(obj["entries"]) == 16
        assert all(len(pair) == 2 for pair in obj["entries"])
        # row-major [re, im] pairs
        assert obj["entries"][3][0] == pytest.approx(0.15)  # <00|rho|11>
        back = density_from_json(obj)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-15
        assert back.dims == rho.dims

    def test_density_json_validates(self):
        obj = {"dims": [2], "entries": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0]]}
        with pytest.raises(TraceNotOne):
            density_from_json(obj)

    def test_density_json_rejects_nan(self):
        obj = json.loads(
            '{"dims": [2], "entries": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}'
        )
        with pytest.raises(OutOfRange, match="non-finite"):
            density_from_json(obj)

    def test_entry_count_checked(self):
        with pytest.raises(DimensionMismatch):
            density_from_json({"dims": [2], "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize(
        "obj, error, field",
        [
            ({"dims": [1], "entries": [[1]]}, DimensionMismatch, "'entries'"),
            ({"dims": [1], "entries": [["a", 0]]}, OutOfRange, "'entries'"),
            ({"entries": [[1, 0]]}, DimensionMismatch, "'dims'"),
            ({"dims": [1], "entries": None}, DimensionMismatch, "'entries'"),
            ({"dims": ["x"], "entries": [[1, 0]]}, DimensionMismatch, "'dims'"),
        ],
        ids=["short_entry", "string_entry", "no_dims", "null_entries", "string_dims"],
    )
    def test_malformed_density_json_names_the_field(self, obj, error, field):
        with pytest.raises(error, match=field):
            density_from_json(obj)

    @pytest.mark.parametrize(
        "obj, error, field",
        [
            (
                {k: v for k, v in OBSERVABLE_JSON.items() if k != "projectors"},
                DimensionMismatch,
                "'projectors'",
            ),
            ({**OBSERVABLE_JSON, "subsystem": 5}, DimensionMismatch, "'subsystem'"),
            ({**OBSERVABLE_JSON, "eigenvalues": ["a", "b"]}, OutOfRange, "'eigenvalues'"),
        ],
        ids=["no_projectors", "subsystem_out_of_range", "string_eigenvalues"],
    )
    def test_malformed_observable_json_names_the_field(self, obj, error, field):
        with pytest.raises(error, match=field):
            observable_from_json(obj)

    def test_observable_values_are_validated(self):
        half = {"entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
        obj = {**OBSERVABLE_JSON, "projectors": [half, half]}
        with pytest.raises(NonProjective, match="projector 0 is not idempotent"):
            observable_from_json(obj)

    def test_observable_roundtrip(self):
        obs = random_observable(3, seed=17, subsystem=1, dims=(2, 3))
        obj = observable_to_json(obs)
        assert obj["dims"] == [2, 3]
        assert obj["subsystem"] == 1
        back = observable_from_json(obj)
        assert back.eigenvalues == obs.eigenvalues
        assert all(
            np.abs(p - q).max() < 1e-15 for p, q in zip(back.projectors, obs.projectors)
        )


class TestDensityMatrixHelpers:
    def test_reduced_keeps_order(self):
        rho = random_density(12, 12, seed=3, dims=(2, 3, 2))
        sub = rho.reduced((0, 2))
        assert sub.dims == (2, 2)
        assert np.trace(sub.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_reduced_rejects_a_non_integral_keep(self):
        # reduced reads keep by partial_trace's rule: 1.9 is not subsystem 1
        for keep in ([1.9], 1.9, np.array([0.5])):
            with pytest.raises(DimensionMismatch, match="keep index must be an integer"):
                werner(0.3).reduced(keep)
        assert werner(0.3).reduced(np.int64(1)).dims == (2,)

    def test_constructors_yield_valid_states(self):
        # vqr's own constructors skip the value checks, so their outputs
        # must pass them.
        built = [werner(0.7), mu_state(0.4), max_entangled(3), random_density(4, 2, 8)]
        for seed in (3, 8, 21):
            rho = random_density(6, 3, seed, dims=(2, 3))
            obs = random_observable(3, seed + 1, subsystem=1, dims=(2, 3))
            built += [
                rho.reduced(0),
                rho.reduced(1),
                random_pure((2, 3), seed),
                random_density(5, 1, seed),
                measure_nonselective(rho, obs),
                *(monitor(rho, obs, eps) for eps in (0.0, 0.5, 1.0)),
                *evolve(build_dilation(rho, obs)),
            ]
        for rho in built:
            revalidated = validate_state(np.array(rho.matrix), rho.dims)
            assert revalidated.dims == rho.dims
