"""Realism monotones: entropic irrealism and its decomposition, conditional
information (entropic and geometric), and the geometric realism quantifiers
built from the measurement dilation.

Every quantifier follows the recipe R = R_max - delta, where delta is the
gain in environmental conditional information across the measurement
dilation and R_max is attained at a maximally entangled system state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channels, linalg, metrics
from .errors import DimensionMismatch, InvalidOrder
from .metrics import VON_NEUMANN, DistanceKind, Kind
from .states import DensityMatrix, Observable, computational_observable, max_entangled

# Measured information gains above this count as a detected violation.
TOL_VQR = 1e-9


@dataclass(frozen=True)
class ConditionalInfoResult:
    value: float
    kind: Kind
    method: str  # "full_space" or "closed_form"


@dataclass(frozen=True)
class RealismReport:
    """Per-state, per-observable realism record: R = r_max - delta_i."""

    kind: Kind
    r_value: float
    r_max: float
    delta_i: float
    vqr_detected: bool

    @property
    def axioms_unverified(self) -> bool:
        """True for L_p orders outside {1, 2}, whose axiom status is only
        tested empirically; lp1 and lp2 are the trace and Hilbert-Schmidt
        quantifiers."""
        return isinstance(self.kind, DistanceKind) and self.kind.p not in (None, 1.0, 2.0)

    def to_json(self) -> dict:
        params = {}
        if isinstance(self.kind, DistanceKind):
            if self.kind.p is not None:
                params["p"] = self.kind.p
            params["power"] = self.kind.power
        elif self.kind.alpha is not None:
            params["alpha"] = self.kind.alpha
        return {
            "kind": self.kind.token(),
            "params": params,
            "r_value": self.r_value,
            "r_max": self.r_max,
            "delta_i": self.delta_i,
            "vqr_detected": self.vqr_detected,
        }


# --------------------------------------------------------------------------
# Entropic irrealism
# --------------------------------------------------------------------------


def irrealism(rho: DensityMatrix, a: Observable) -> float:
    """S(Phi_A(rho)) - S(rho): the entropy produced by measuring A."""
    measured = channels.measure_nonselective(rho, a)
    return metrics.von_neumann_entropy(measured) - metrics.von_neumann_entropy(rho)


def _mutual_information(rho: DensityMatrix, part: int) -> float:
    rest = [k for k in range(len(rho.dims)) if k != part]
    s_a = metrics.von_neumann_entropy(rho.reduced(part))
    s_b = metrics.von_neumann_entropy(rho.reduced(rest))
    return s_a + s_b - metrics.von_neumann_entropy(rho)


def irrealism_decomposition(rho: DensityMatrix, a: Observable) -> tuple[float, float]:
    """Split irrealism into local coherence plus non-optimized discord.

    Coherence is the irrealism of the reduced state on the measured
    subsystem; discord is the mutual-information loss under measurement.
    The two add up to irrealism(rho, a).
    """
    if len(rho.dims) < 2:
        raise DimensionMismatch("decomposition needs at least two subsystems")
    local = rho.reduced(a.subsystem)
    local_obs = a.scoped((a.subsystem_dim,), 0)
    coherence = irrealism(local, local_obs)
    measured = channels.measure_nonselective(rho, a)
    discord = _mutual_information(rho, a.subsystem) - _mutual_information(
        measured, a.subsystem
    )
    return coherence, discord


# --------------------------------------------------------------------------
# Conditional information
# --------------------------------------------------------------------------


def _split_dims(omega: DensityMatrix, split: int) -> tuple[int, int]:
    if not 1 <= split < len(omega.dims):
        raise DimensionMismatch(
            f"split {split} invalid for {len(omega.dims)} subsystems"
        )
    d_s = int(np.prod(omega.dims[:split]))
    d_e = int(np.prod(omega.dims[split:]))
    return d_s, d_e


def conditional_information_entropic(omega: DensityMatrix, split: int) -> float:
    """I(E|S) = ln d_E - S(Omega) + S(Omega_S), the divergence between
    Omega and Omega_S (x) 1/d_E.

    Subsystems before `split` form S; the rest form E.  The value lies in
    [0, ln(d_E d_S)].
    """
    d_s, d_e = _split_dims(omega, split)
    omega_s = omega.reduced(range(split))
    return (
        float(np.log(d_e))
        - metrics.von_neumann_entropy(omega)
        + metrics.von_neumann_entropy(omega_s)
    )


def conditional_information_geometric(
    omega: DensityMatrix, split: int, kind: DistanceKind
) -> ConditionalInfoResult:
    """Geometric conditional information d^n(Omega, Omega_S (x) 1/d_E)."""
    d_s, d_e = _split_dims(omega, split)
    omega_s = omega.reduced(range(split)).matrix
    reference = np.kron(omega_s, np.eye(d_e, dtype=complex) / d_e)
    value = metrics.powered_distance(kind, omega.matrix, reference)
    return ConditionalInfoResult(value, kind, "full_space")


# --------------------------------------------------------------------------
# Information gain across the measurement dilation
# --------------------------------------------------------------------------


def _delta_lp_closed_form(rho_mat: np.ndarray, phi_mat: np.ndarray, p: float, d_e: int) -> float:
    """Closed-form L_p information gain, as the difference of the two
    block-diagonal conditional informations:

        I_t = d_p^p(rho, Phi/d_E) + (d_E-1)/d_E^p ||Phi||_p^p
        I_0 = ||rho||_p^p [(d_E-1)^p + (d_E-1)] / d_E^p
    """
    d_t = linalg.schatten_norm(rho_mat - phi_mat / d_e, p) ** p
    norm_phi = linalg.schatten_norm(phi_mat, p) ** p
    norm_rho = linalg.schatten_norm(rho_mat, p) ** p
    i_t = d_t + (d_e - 1) / d_e**p * norm_phi
    i_0 = norm_rho * ((d_e - 1) ** p + (d_e - 1)) / d_e**p
    return i_t - i_0


def _entropic(kind: Kind) -> bool:
    """True for von Neumann, False for a distance; the Renyi divergences
    have no realism recipe and raise InvalidOrder."""
    if not isinstance(kind, DistanceKind) and kind != VON_NEUMANN:
        raise InvalidOrder(f"no realism recipe for divergence {kind.token()}")
    return kind == VON_NEUMANN


def delta_conditional_information(
    rho: DensityMatrix, a: Observable, kind: Kind
) -> float:
    """Closed-form information gain Delta I across the measurement dilation
    of `a`, with environment dimension d_E equal to the outcome count.

    Per kind: trace  d_Tr(rho, Phi/d_E) - (d_E-1)/d_E;
    HS (1/d_E) d_HS^2(rho, Phi); Bures (1/sqrt(d_E)) d_Bu^2(rho, Phi);
    Hellinger (1/sqrt(d_E)) d_He^2(rho, Phi); general L_p the block
    formula; von Neumann the irrealism S(Phi(rho)) - S(rho).
    """
    channels._require_same_space(rho, a)
    if _entropic(kind):
        return irrealism(rho, a)
    d_e = a.outcomes
    phi_mat = channels.phi_map(rho.matrix, a)
    if kind.family == "tr":
        return metrics.trace_distance(rho.matrix, phi_mat / d_e) - (d_e - 1) / d_e
    if kind.family == "hs":
        return metrics.hs_distance(rho.matrix, phi_mat) ** 2 / d_e
    if kind.family == "bu":
        return metrics.bures_distance_sq(rho.matrix, phi_mat) / np.sqrt(d_e)
    if kind.family == "he":
        return metrics.hellinger_distance_sq(rho.matrix, phi_mat) / np.sqrt(d_e)
    return _delta_lp_closed_form(rho.matrix, phi_mat, kind.p, d_e)


def delta_conditional_information_dilated(
    rho: DensityMatrix, a: Observable, kind: Kind
) -> float:
    """Full-space information gain: build the dilation, evolve, and
    difference the conditional informations of Omega_t and Omega_0.

    Agrees with the closed form within numerical tolerance; exists as the
    independent route for verification.
    """
    setup = channels.build_dilation(rho, a)
    omega0, omega_t = channels.evolve(setup)
    split = len(rho.dims)
    if _entropic(kind):
        return conditional_information_entropic(
            omega_t, split
        ) - conditional_information_entropic(omega0, split)
    after = conditional_information_geometric(omega_t, split, kind)
    before = conditional_information_geometric(omega0, split, kind)
    return after.value - before.value


@lru_cache(maxsize=256)
def realism_max(kind: Kind, d_e: int) -> float:
    """Largest attainable information gain for a d_E-outcome observable,
    realized by a maximally entangled pair measured in the computational
    basis.  For the von Neumann kind this is ln d_E.  Memoized on
    (kind, d_e); invalid inputs still raise on every call.  The state route
    stays because closed forms round differently (1e-16 for an exact 0)
    and would change the sweep tables.
    """
    if d_e < 2:
        raise DimensionMismatch(f"observable needs >= 2 outcomes, got {d_e}")
    if _entropic(kind):
        return float(np.log(d_e))
    rho = max_entangled(d_e)
    obs = computational_observable(d_e, 0, (d_e, d_e))
    return delta_conditional_information(rho, obs, kind)


def realism(rho: DensityMatrix, a: Observable, kind: Kind) -> RealismReport:
    """Realism report R = R_max - Delta I for the given kind.

    A violation of quantum realism is detected when the information gain
    exceeds TOL_VQR, i.e. when R falls short of R_max.
    """
    r_max = realism_max(kind, a.outcomes)
    delta = delta_conditional_information(rho, a, kind)
    return RealismReport(
        kind=kind,
        r_value=r_max - delta,
        r_max=r_max,
        delta_i=delta,
        vqr_detected=bool(delta > TOL_VQR),
    )
