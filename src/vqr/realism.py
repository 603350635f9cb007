"""Realism monotones: entropic irrealism and its decomposition, conditional
information (entropic and geometric), and the geometric realism quantifiers
built from the measurement dilation.

Every quantifier follows the recipe R = R_max - delta, where delta is the
gain in environmental conditional information across the measurement
dilation and R_max is attained at a maximally entangled system state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import channels, linalg, metrics
from .errors import DimensionMismatch, InvalidOrder
from .metrics import VON_NEUMANN, DistanceKind, DivergenceKind, Kind
from .states import DensityMatrix, Observable, computational_observable, max_entangled

# Measured information gains above this count as a detected violation.
TOL_VQR = 1e-9


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
    return delta_conditional_information(rho, a, VON_NEUMANN)


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


def _conditional_informations(omegas, split: int, kinds) -> list[list[float]]:
    """The conditional information of each Omega of a list with one dims,
    for each kind: the divergence (von Neumann) or the powered distance
    between Omega and Omega_S (x) 1/d_E.  The list is evaluated as one
    stack, with the references formed once for all kinds; one list of
    values per Omega, in input order."""
    dims = omegas[0].dims
    if not 1 <= split < len(dims):
        raise DimensionMismatch(f"split {split} invalid for {len(dims)} subsystems")
    d_e = math.prod(dims[split:])
    maximally_mixed = np.eye(d_e, dtype=complex) / d_e
    matrices = np.stack([omega.matrix for omega in omegas])
    references = np.stack(
        [np.kron(omega.reduced(range(split)).matrix, maximally_mixed) for omega in omegas])
    geometric = [kind for kind in kinds if not _entropic(kind)]
    values = dict(zip(geometric, metrics.powered_distances(geometric, matrices, references)))
    if VON_NEUMANN in kinds:
        values[VON_NEUMANN] = metrics.divergences([VON_NEUMANN], matrices, references)[0]
    return [[values[kind][n] for kind in kinds] for n in range(len(omegas))]


def conditional_information_entropic(omega: DensityMatrix, split: int) -> float:
    """I(E|S) = S(Omega || Omega_S (x) 1/d_E), which equals
    ln d_E - S(Omega) + S(Omega_S).

    Subsystems before `split` form S; the rest form E.  The value lies in
    [0, ln(d_E d_S)].
    """
    return _conditional_informations([omega], split, [VON_NEUMANN])[0][0]


def conditional_information_geometric(
    omega: DensityMatrix, split: int, kind: DistanceKind
) -> float:
    """Geometric conditional information d^n(Omega, Omega_S (x) 1/d_E)."""
    return _conditional_informations([omega], split, [kind])[0][0]


# --------------------------------------------------------------------------
# Information gain across the measurement dilation
# --------------------------------------------------------------------------


def _entropic(kind: Kind) -> bool:
    """True for von Neumann, False for a distance; the Renyi divergences
    have no realism recipe and raise InvalidOrder, as does anything that is
    not a kind."""
    if not isinstance(kind, (DistanceKind, DivergenceKind)):
        raise InvalidOrder(
            f"a realism kind is a DistanceKind or a DivergenceKind, got "
            f"{type(kind).__name__} {kind!r}; metrics.parse_kind reads a token such as 'tr'")
    if not isinstance(kind, DistanceKind) and kind != VON_NEUMANN:
        raise InvalidOrder(f"no realism recipe for divergence {kind.token()}")
    return kind == VON_NEUMANN


class _Gains:
    """The closed-form gains of two (N, d, d) stacks, rho and Phi(rho), with
    d_E outcomes; blocks, the PinchingBlocks of the observable that made
    every Phi or None, go to the root product.  Each intermediate is
    computed on first use and kept, so a kind reads only what it needs and
    later kinds reuse it: tr and the L_p orders read d(rho, Phi/d_E), whose
    SVD they share, and hs, bu and he read d(rho, Phi), hs its SVD and bu
    and he its root product.  The L_p block formula

        I_t = d_p^p(rho, Phi/d_E) + (d_E-1)/d_E^p ||Phi||_p^p
        I_0 = ||rho||_p^p [(d_E-1)^p + (d_E-1)] / d_E^p

    also reads ||Phi||_p^p and ||rho||_p^p, from one SVD of each stack."""

    def __init__(self, rhos: np.ndarray, phis: np.ndarray, d_e: int, blocks=None):
        self.rhos, self.phis, self.d_e, self.blocks = rhos, phis, d_e, blocks

    @cached_property
    def _scaled(self) -> metrics.Distances:
        return metrics.Distances(self.rhos, self.phis / self.d_e, self.blocks)

    @cached_property
    def _direct(self) -> metrics.Distances:
        return metrics.Distances(self.rhos, self.phis, self.blocks)

    @cached_property
    def _singular(self) -> tuple[np.ndarray, np.ndarray]:
        """The singular values of each Phi and of each rho."""
        return tuple(np.linalg.svd(m, compute_uv=False) for m in (self.phis, self.rhos))

    @cached_property
    def _entropy_gain(self) -> np.ndarray:
        return metrics.entropies(self.phis) - metrics.entropies(self.rhos)

    def column(self, kind: Kind) -> np.ndarray:
        """The gain of a kind for each pair: N values.  A distance kind at other
        than its default power raises InvalidOrder: no closed form holds there."""
        if _entropic(kind):
            return self._entropy_gain
        if kind.power != kind.default_power:
            raise InvalidOrder(
                f"no closed form for {kind.label()} (power {kind.power:g}): "
                f"{kind.token()} takes only power {kind.default_power:g}; "
                "delta_conditional_information_dilated takes any power")
        d_e = self.d_e
        d = (self._scaled if kind.family in ("tr", "lp") else self._direct).powered(kind)
        if kind.family == "tr":
            return d - (d_e - 1) / d_e
        if kind.family == "hs":
            return d / d_e
        if kind.family in ("bu", "he"):
            return d / np.sqrt(d_e)
        p = kind.p
        norms_phi, norms_rho = (
            linalg.scalar_power(linalg.schatten_from_singular_values(s, p), p)
            for s in self._singular)
        i_t = d + (d_e - 1) / d_e**p * norms_phi
        i_0 = norms_rho * ((d_e - 1) ** p + (d_e - 1)) / d_e**p
        return i_t - i_0


def _groups(pairs) -> tuple[tuple[list[int], _Gains], ...]:
    """The members and _Gains, from one Phi(rho) per pair, of each group of
    (rho, A) pairs with one matrix dimension, outcome count (a scalar in
    every formula) and pinching blocks (None for a dense observable), in
    order of first appearance; each pair gets the bits it would get alone."""
    groups = {}
    for i, (rho, a) in enumerate(pairs):
        blocks = a.pinching_blocks
        group = rho.dim, a.outcomes, None if blocks is None else blocks.key
        groups.setdefault(group, (blocks, []))[1].append(i)
    return tuple(
        (members, _Gains(
            np.stack([pairs[i][0].matrix for i in members]),
            np.stack([channels.phi_map(pairs[i][0].matrix, pairs[i][1]) for i in members]),
            d_e, blocks))
        for (_, d_e, _), (blocks, members) in groups.items())


# The _groups of the last gains call.  Its key compares the pairs by
# identity (eq=False), a safe key: the inputs hold read-only copies, and the
# entry holds its key, so no identity is reused while the entry is kept.
_last_groups = lru_cache(maxsize=1)(_groups)


def gains(pairs, kinds) -> list[list[float]]:
    """delta_conditional_information of each kind for each (rho, A) pair, one
    list per pair in input order, from _last_groups: a call on the same
    pairs reuses their workspace."""
    for rho, a in pairs:
        channels.require_same_space(rho, a)
    deltas = [None] * len(pairs)
    for members, workspace in _last_groups(tuple(pairs)):
        columns = [workspace.column(kind).tolist() for kind in kinds]
        for j, i in enumerate(members):
            deltas[i] = [column[j] for column in columns]
    return deltas


def delta_conditional_information(
    rho: DensityMatrix, a: Observable, kind: Kind
) -> float:
    """Closed-form information gain Delta I across the measurement dilation
    of `a`, with environment dimension d_E equal to the outcome count.

    Per kind: trace  d_Tr(rho, Phi/d_E) - (d_E-1)/d_E;
    HS (1/d_E) d_HS^2(rho, Phi); Bures (1/sqrt(d_E)) d_Bu^2(rho, Phi);
    Hellinger (1/sqrt(d_E)) d_He^2(rho, Phi); general L_p the block
    formula; von Neumann the irrealism S(Phi(rho)) - S(rho).  Each
    distance takes its default power (tr 1, hs, bu and he 2, lp<p> p);
    another power raises InvalidOrder.

    Per-kind calls on one (rho, a) share their intermediates (Phi(rho),
    the SVDs, the root product): the workspace of the last call is kept,
    on the identities of rho and a, until a call on other objects replaces
    it.  The inputs must stay unmodified for that, which their read-only
    arrays ensure.
    """
    return gains([(rho, a)], [kind])[0][0]


def dilated_gains(rho: DensityMatrix, a: Observable, kinds) -> list[float]:
    """delta_conditional_information_dilated of each kind, from one dilation
    whose Omega_0 and Omega_t are evaluated as one 2-stack."""
    omegas = channels.evolve(channels.build_dilation(rho, a))
    before, after = _conditional_informations(omegas, len(rho.dims), kinds)
    return [t - z for t, z in zip(after, before)]


def delta_conditional_information_dilated(
    rho: DensityMatrix, a: Observable, kind: Kind
) -> float:
    """Full-space information gain: build the dilation, evolve, and
    difference the conditional informations of Omega_t and Omega_0.

    Agrees with the closed form within numerical tolerance; exists as the
    independent route for verification.
    """
    return dilated_gains(rho, a, [kind])[0]


# R_max of each (kind, d_E) evaluated so far, cleared when it is full.
# Threads that race on a miss each evaluate it, to the same bits.
_rmax_table = {}


def r_max(kinds, d_e: int) -> list[float]:
    """realism_max of each kind at d_E.  The kinds missing from the table
    are evaluated together on one maximally entangled pair measured in the
    computational basis, whose intermediates are dropped on return; ln d_E
    for von Neumann.  An invalid d_E or kind raises on every call."""
    d_e = linalg.as_index(d_e, "outcome count")
    if d_e < 2:
        raise DimensionMismatch(f"observable needs >= 2 outcomes, got {d_e}")
    values = {kind: _rmax_table.get((kind, d_e)) for kind in kinds}
    missing = [kind for kind, value in values.items() if value is None]
    geometric = [kind for kind in missing if not _entropic(kind)]
    if geometric:
        [(_, workspace)] = _groups(
            [(max_entangled(d_e), computational_observable(d_e, 0, (d_e, d_e)))])
        values.update((kind, workspace.column(kind).tolist()[0]) for kind in geometric)
    values.update((kind, float(np.log(d_e))) for kind in missing if kind not in geometric)
    if len(_rmax_table) + len(missing) > 256:
        _rmax_table.clear()
    _rmax_table.update(((kind, d_e), values[kind]) for kind in missing)
    return [values[kind] for kind in kinds]


def realism_max(kind: Kind, d_e: int) -> float:
    """Largest attainable information gain for a d_E-outcome observable,
    realized by a maximally entangled pair measured in the computational
    basis.  For the von Neumann kind this is ln d_E.  Kept per (kind, d_E),
    apart from the workspace of delta_conditional_information; invalid
    inputs still raise on every call.  The state route stays because closed
    forms round differently (1e-16 for an exact 0) and would change the
    sweep tables."""
    return r_max([kind], d_e)[0]


def reports(pairs, kinds) -> list[list[RealismReport]]:
    """realism of each kind for each (rho, A) pair, from one gains pass
    over all the pairs and one R_max lookup per outcome count: one list per
    pair, in input order."""
    r_maxes = {d_e: r_max(kinds, d_e) for d_e in {a.outcomes for _, a in pairs}}
    return [
        [
            RealismReport(
                kind=kind,
                r_value=maximum - delta,
                r_max=maximum,
                delta_i=delta,
                vqr_detected=bool(delta > TOL_VQR),
            )
            for kind, maximum, delta in zip(kinds, r_maxes[a.outcomes], deltas)
        ]
        for (_, a), deltas in zip(pairs, gains(pairs, kinds))
    ]


def realism(rho: DensityMatrix, a: Observable, kind: Kind) -> RealismReport:
    """Realism report R = R_max - Delta I for the given kind.

    A violation of quantum realism is detected when the information gain
    exceeds TOL_VQR, i.e. when R falls short of R_max.  Per-kind calls on
    one (rho, a) share their intermediates, as delta_conditional_information
    describes.
    """
    return reports([(rho, a)], [kind])[0][0]
