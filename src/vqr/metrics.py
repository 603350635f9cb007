"""Distances and divergences between quantum states.

Covers the Schatten L_p distances (trace and Hilbert-Schmidt as special
cases), Uhlmann fidelity with the Bures and Hellinger distances, von
Neumann entropy and relative entropy, Renyi and sandwiched Renyi
divergences, and empirical checks of the distance properties (positive
definiteness, unitary invariance, joint convexity, contractivity).

All entropic quantities use the natural logarithm (nats).  Every divergence
comes from one spectral core, _divergences, on one pair or on two stacks.
Infinite divergences (support violations) are returned as float('inf');
an operand with an eigenvalue below -TAU_PSD raises DomainError.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidAlpha, InvalidOrder, OutOfRange
from .channels import phi_map
from .states import DensityMatrix, haar_unitary, random_density, random_observables

# Eigenvalues at or below this are treated as the kernel in support checks.
KERNEL_TOL = 1e-12
# State mass on the other state's kernel above this flags a support violation.
SUPPORT_TOL = 1e-10
# The checks (audit searches, property table, verify groups) evaluate this
# many trials per stacked call.  It bounds their memory: a whole check in
# one stack raised the peak RSS of an audit-200 plus verify-100 pass from
# 40.6 to 45.0 MB, and blocks of 32 keep it at 41.2 MB with most of the
# speed-up (2.0 s a pass against 3.6 s unstacked and 1.6 s whole).
TRIAL_BLOCK = 32

_FAMILIES = ("tr", "hs", "lp", "bu", "he")
_DEFAULT_POWER = {"tr": 1.0, "hs": 2.0, "bu": 2.0, "he": 2.0}


@dataclass(frozen=True)
class DistanceKind:
    """A metric selector: family tr/hs/lp/bu/he, Schatten order p for lp,
    and the power n used downstream (d**n)."""

    family: str
    p: float | None = None
    power: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidOrder(f"unknown distance family {self.family!r}")
        if self.family == "lp":
            if self.p is None or not 1 <= self.p < math.inf:
                raise InvalidOrder(f"lp distance needs a finite p >= 1, got {self.p}")
            object.__setattr__(self, "p", float(self.p))
            if self.power is None:
                object.__setattr__(self, "power", float(self.p))
        else:
            if self.p is not None:
                raise InvalidOrder(f"family {self.family!r} does not take p")
            if self.power is None:
                object.__setattr__(self, "power", _DEFAULT_POWER[self.family])
        if not 0 < self.power < math.inf:
            raise InvalidOrder(f"power must be positive and finite, got {self.power}")

    @property
    def schatten_p(self) -> float | None:
        """Underlying Schatten order for norm-based families."""
        return {"tr": 1.0, "hs": 2.0, "lp": self.p}.get(self.family)

    def with_power(self, power: float) -> "DistanceKind":
        return dataclasses.replace(self, power=float(power))

    def token(self) -> str:
        if self.family == "lp":
            return f"lp{self.p:g}"
        return self.family

    def label(self) -> str:
        """Token annotated with the power, e.g. 'hs^2' or 'lp3^3'; a power of
        1 is omitted, so HILBERT_SCHMIDT.with_power(1).label() is 'hs'.  A
        label is display text, which parse_kind does not invert."""
        if self.power == 1.0:
            return self.token()
        return f"{self.token()}^{self.power:g}"


TRACE = DistanceKind("tr")
HILBERT_SCHMIDT = DistanceKind("hs")
BURES = DistanceKind("bu")
HELLINGER = DistanceKind("he")


def lp(p: float, power: float | None = None) -> DistanceKind:
    return DistanceKind("lp", p=p, power=power)


def _check_alpha(alpha) -> float:
    if alpha is None or not 0 < alpha < math.inf or alpha == 1:
        raise InvalidAlpha(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class DivergenceKind:
    """An entropic selector: von Neumann relative entropy or (sandwiched)
    Renyi divergence of order alpha."""

    family: str
    alpha: float | None = None

    def __post_init__(self):
        if self.family not in ("vn", "renyi", "srenyi"):
            raise InvalidAlpha(f"unknown divergence family {self.family!r}")
        if self.family == "vn":
            if self.alpha is not None:
                raise InvalidAlpha("von Neumann divergence takes no alpha")
        else:
            object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    def token(self) -> str:
        if self.family == "vn":
            return "vn"
        return f"{self.family}{self.alpha:g}"


VON_NEUMANN = DivergenceKind("vn")


def renyi(alpha: float) -> DivergenceKind:
    return DivergenceKind("renyi", alpha)


def sandwiched_renyi(alpha: float) -> DivergenceKind:
    return DivergenceKind("srenyi", alpha)


Kind = DistanceKind | DivergenceKind

_NAMED_KINDS = {
    kind.token(): kind
    for kind in (TRACE, HILBERT_SCHMIDT, BURES, HELLINGER, VON_NEUMANN)
}
_ORDERED_KINDS = {"lp": lp, "renyi": renyi, "srenyi": sandwiched_renyi}


def parse_kind(token: str) -> Kind:
    """The kind of a token (tr, hs, bu, he, vn, lp<p>, renyi<a>, srenyi<a>),
    the inverse of kind.token().  An unreadable token raises OutOfRange; an
    order outside the kind's domain raises InvalidOrder or InvalidAlpha."""
    token = token.strip().lower()
    if token in _NAMED_KINDS:
        return _NAMED_KINDS[token]
    for prefix, make in _ORDERED_KINDS.items():
        if token.startswith(prefix):
            try:
                order = float(token[len(prefix):])
            except ValueError as exc:
                raise OutOfRange(f"cannot parse the order of {token!r}") from exc
            return make(order)
    raise OutOfRange(f"unknown kind token {token!r}")


def _mat(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.matrix
    return linalg.as_square(x)


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    r, s = _mat(rho), _mat(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"operands have shapes {r.shape} and {s.shape}")
    return r, s


# --------------------------------------------------------------------------
# Geometric distances
# --------------------------------------------------------------------------


def lp_distance(rho, sigma, p: float) -> float:
    """Schatten p-distance ||sigma - rho||_p.

    The second argument may be sub-normalized (e.g. a measured state
    divided by an environment dimension).
    """
    r, s = _pair(rho, sigma)
    return linalg.schatten_norm(s - r, p)


def trace_distance(rho, sigma) -> float:
    """||sigma - rho||_1 (no 1/2 factor)."""
    return lp_distance(rho, sigma, 1.0)


def hs_distance(rho, sigma) -> float:
    return lp_distance(rho, sigma, 2.0)


def _root_product(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sqrt(sigma) sqrt(rho), which the fidelity, Bures and Hellinger read;
    of each pair when r and s are stacks."""
    return linalg.sqrtm_psd(s) @ linalg.sqrtm_psd(r)


def _fidelity(root: np.ndarray) -> np.ndarray:
    """The fidelity ||root||_1^2 of each root in a stack (0-d for one)."""
    return linalg.scalar_power(np.linalg.svd(root, compute_uv=False).sum(axis=-1), 2)


def _root_distance_sq(family: str, root: np.ndarray) -> np.ndarray:
    """The squared Bures ("bu") or Hellinger ("he") distance from the root,
    clipped at 0, of each root in a stack (0-d for one)."""
    if family == "bu":
        value = 2.0 - 2.0 * np.sqrt(_fidelity(root))
    else:
        value = 2.0 - 2.0 * np.real(np.trace(root, axis1=-2, axis2=-1))
    return np.where(value > 0.0, value, 0.0)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ||sqrt(sigma) sqrt(rho)||_1^2
    = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    For pure states this reduces to |<psi|phi>|^2.  Sub-normalized inputs
    are accepted; for normalized states F is in [0, 1].
    """
    return float(_fidelity(_root_product(*_pair(rho, sigma))))


def bures_distance_sq(rho, sigma) -> float:
    """Squared Bures distance 2 - 2 sqrt(F)."""
    return float(_root_distance_sq("bu", _root_product(*_pair(rho, sigma))))


def hellinger_distance_sq(rho, sigma) -> float:
    """Squared quantum Hellinger distance 2 - 2 Tr(sqrt(sigma) sqrt(rho))."""
    return float(_root_distance_sq("he", _root_product(*_pair(rho, sigma))))


def distance(kind: DistanceKind, rho, sigma) -> float:
    """The base (power-1) distance selected by kind."""
    return powered_distance(kind.with_power(1.0), rho, sigma)


def _exponent(kind: DistanceKind) -> float:
    """The power of kind's native distance that gives d_kind ** kind.power:
    Bures and Hellinger are computed natively as squares."""
    return kind.power / 2.0 if kind.family in ("bu", "he") else kind.power


def powered_distance(kind: DistanceKind, rho, sigma) -> float:
    """d_kind ** kind.power, computed without a lossy sqrt round-trip."""
    return _powered_distances([kind], *_pair(rho, sigma))[0]


def _powered_distances(kinds, r: np.ndarray, s: np.ndarray) -> list:
    """powered_distance of each kind between the complex matrices r and s,
    or between the members of two (N, d, d) stacks: a float per kind for one
    pair, a list of N floats per kind for stacks.  Each native distance is
    computed once, the Schatten orders from one SVD of s - r and Bures and
    Hellinger from one root product, and raised to each exponent."""
    root = _root_product(r, s) if any(k.family in ("bu", "he") for k in kinds) else None
    singular = None
    natives = {}
    for kind in kinds:
        key = kind.family, kind.p
        if key in natives:
            continue
        if kind.family in ("bu", "he"):
            natives[key] = _root_distance_sq(kind.family, root)
        else:
            if singular is None:
                singular = np.linalg.svd(s - r, compute_uv=False)
            natives[key] = linalg.schatten_from_singular_values(singular, kind.schatten_p)
    return [linalg.scalar_power(natives[k.family, k.p], _exponent(k)).tolist() for k in kinds]


def _stacked(values, kinds, pairs) -> list[tuple]:
    """values(kinds, r, s), _powered_distances or _divergences, of each
    (rho, sigma) pair, evaluated as one stack per matrix dimension: per
    pair, in input order, a tuple of one value per kind."""
    def evaluate(stack):
        return list(zip(*values(kinds, stack[:, 0], stack[:, 1])))

    return linalg.stackwise(evaluate, [np.array(pair, dtype=complex) for pair in pairs])


def _trial_blocks(trials):
    """The trials of a check, an iterable, in lists of TRIAL_BLOCK (the last
    one shorter)."""
    trials = iter(trials)
    while block := list(itertools.islice(trials, TRIAL_BLOCK)):
        yield block


# --------------------------------------------------------------------------
# Entropies and divergences
# --------------------------------------------------------------------------


def _entropies(m: np.ndarray) -> np.ndarray:
    """The von Neumann entropy of each member of a stack (0-d for one
    matrix), from one stacked eigvalsh.  Each member's masked sum stays its
    own: a masked reduction over the stack would sum in another order."""
    w = linalg.clip_roundoff(np.linalg.eigvalsh(linalg.require_hermitian(m)))
    rows = w.reshape(-1, w.shape[-1])
    values = [-(pos * np.log(pos)).sum() for pos in (row[row > 0.0] for row in rows)]
    return np.array(values).reshape(w.shape[:-1])


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr(rho ln rho) in nats, with 0 ln 0 := 0."""
    return float(_entropies(_mat(rho)))


def _divergences(kinds, r: np.ndarray, s: np.ndarray) -> list:
    """Each divergence kind between the complex matrices r and s, or
    between the members of two (N, d, d) stacks: a float per kind for one
    pair, a list of N floats per kind for stacks.

    Every kind reads one eigendecomposition of each operand, with its
    roundoff clipped, rho = U diag(w_r) U^dag and sigma = V diag(w_s) V^dag,
    and the amplitudes A = V^dag U, whose squares |A|^2 map w_r to rho's
    weights <v_j|rho|v_j> on sigma's eigenvectors.  Powers are
    linalg.floored_power's.
    - vn: sum w_r ln w_r - sum_j <v_j|rho|v_j> ln w_s,j;
    - renyi: Tr rho^a sigma^(1-a) = (w_s^(1-a))^T |A|^2 w_r^a;
    - srenyi: Tr (sigma^e rho sigma^e)^a = sum_i s_i^(2a), e = (1-a)/(2a),
      over the singular values s of diag(w_s^e) A diag(sqrt w_r), which are
      those of sigma^e sqrt(rho).  An eigenvalue of sigma^e rho sigma^e near
      1e-15 is a singular value near 3e-8, which the SVD resolves; its a-th
      power (about 3e-5 at a = 0.3) would be lost below an eigenvalue floor.
    A Renyi quasi-entropy t gives ln[t / Tr rho] / (a - 1).  vn and the
    orders a > 1 are infinite where rho has weight above SUPPORT_TOL on
    sigma's kernel (eigenvalues <= KERNEL_TOL).
    """
    (w_r, u_r), (w_s, v_s) = linalg.hermitian_eig(r), linalg.hermitian_eig(s)
    w_r, w_s = linalg.clip_roundoff(w_r), linalg.clip_roundoff(w_s)
    amplitudes = v_s.conj().swapaxes(-1, -2) @ u_r
    overlap = np.abs(amplitudes) ** 2
    kernel = w_s <= KERNEL_TOL
    weights = (overlap * w_r[..., None, :]).sum(axis=-1)
    unsupported = np.where(kernel, weights, 0.0).sum(axis=-1) > SUPPORT_TOL
    trace = np.real(np.trace(r, axis1=-2, axis2=-1))
    values = []
    for kind in kinds:
        alpha = kind.alpha
        if kind.family == "vn":
            own = w_r * np.log(w_r, out=np.zeros_like(w_r), where=w_r > 0.0)
            cross = weights * np.log(w_s, out=np.zeros_like(w_s), where=~kernel)
            value = own.sum(axis=-1) - cross.sum(axis=-1)
        elif kind.family == "renyi":
            powered = (overlap * linalg.floored_power(w_r, alpha)[..., None, :]).sum(axis=-1)
            quasi = (linalg.floored_power(w_s, 1.0 - alpha) * powered).sum(axis=-1)
        else:
            e = (1.0 - alpha) / (2.0 * alpha)
            sandwich = (linalg.floored_power(w_s, e)[..., :, None] * amplitudes
                        * linalg.floored_power(w_r, 0.5)[..., None, :])
            quasi = (np.linalg.svd(sandwich, compute_uv=False) ** (2.0 * alpha)).sum(axis=-1)
        if kind.family != "vn":
            with np.errstate(divide="ignore", invalid="ignore"):  # t = 0: +inf or -inf
                value = np.where(quasi > 0.0, np.log(quasi / trace), -np.inf) / (alpha - 1.0)
        if kind.family == "vn" or alpha > 1:
            value = np.where(unsupported, np.inf, value)
        values.append(value.tolist())
    return values


def relative_entropy(rho, sigma) -> float:
    """S(rho||sigma) = Tr(rho ln rho - rho ln sigma) in nats.

    Returns float('inf') when rho has support on the kernel of sigma.
    """
    return _divergences([VON_NEUMANN], *_pair(rho, sigma))[0]


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Petz-Renyi divergence ln[Tr(rho^a sigma^(1-a)) / Tr rho] / (a - 1)."""
    return _divergences([renyi(alpha)], *_pair(rho, sigma))[0]


def sandwiched_renyi_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence
    ln[Tr((sigma^e rho sigma^e)^a) / Tr rho] / (a - 1) with e = (1-a)/(2a)."""
    return _divergences([sandwiched_renyi(alpha)], *_pair(rho, sigma))[0]


# --------------------------------------------------------------------------
# Empirical property checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    kind: str
    property: str
    trials: int
    violations: int
    worst_case: float
    example_seed: int | None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "property": self.property,
            "trials": self.trials,
            "violations": self.violations,
            "worst_case": self.worst_case,
            "example_seed": self.example_seed,
        }


def _random_pair(seed, d: int) -> tuple[np.ndarray, np.ndarray]:
    rho = random_density(d, d, seed)
    sig = random_density(d, max(1, d - 1), seed + 7919)
    return rho.matrix, sig.matrix


# Each property check is a draw and a finish.  draw(seed, block, shared)
# gives, for each trial i of the block, the trial's (rho, sigma) pairs and
# what else its finish needs; shared holds trial i's _random_pair, drawn
# once for every check.  finish(n, values, extra) turns the values of those
# pairs (one tuple per pair, of one value per _squares_and_trace column:
# the n kinds checked, their squares, then the trace distance) into the
# excess of every kind for each of the trial's probes.  A trial violates
# the property for a kind when one of its excesses is above the check's
# tolerance.


def _squares_and_trace(kinds) -> list:
    """The kinds, then their squares, then the trace distance."""
    return [*kinds, *(k.with_power(2.0) for k in kinds), TRACE]


def _positive_definiteness_draw(seed, block, shared):
    for rho, sig in shared:
        yield [(rho, sig), (rho, rho)], None


def _positive_definiteness_finish(n, values, _):
    # Bures/Hellinger are computed natively as squares; a lower power near
    # zero would amplify O(eps) roundoff to O(sqrt(eps)), so the
    # identity-of-indiscernibles check runs on the squared form.
    pair_values, self_pair = values
    apart = pair_values[-1] > 1e-6
    bads = []
    for value, self_value in zip(pair_values[:n], self_pair[n : 2 * n]):
        bad = max(-value, self_value - 1e-10)
        if apart and value <= 1e-12:
            bad = max(bad, 1e-12 - value)
        bads.append(bad)
    return [bads]


def _unitary_invariance_draw(seed, block, shared):
    for i, (rho, sig) in zip(block, shared):
        u = haar_unitary(len(rho), seed + i + 13)
        yield [(rho, sig), (u @ rho @ u.conj().T, u @ sig @ u.conj().T)], None


def _unitary_invariance_finish(n, values, _):
    before, after = values
    return [[abs(a - b) for a, b in zip(after[:n], before)]]


def _joint_convexity_draw(seed, block, shared):
    """One random joint-convexity probe and one structured probe mixing the
    pairs (rho, rho) and (rho, sigma) with orthogonal pure states; the
    structured case is where first-power Bures and Hellinger convexity
    breaks."""
    for i, (rho1, sig1) in zip(block, shared):
        d = len(rho1)
        rho2, sig2 = _random_pair(seed + i + 104729, d)
        weight = float(np.random.default_rng(seed + i + 3).uniform(0.1, 0.9))
        p0, p1 = (np.diag(np.eye(d, dtype=complex)[k]) for k in (0, 1))
        probes = ((weight, (rho1, sig1), (rho2, sig2)), (0.5, (p0, p0), (p0, p1)))
        pairs = []
        for lam, (r1, s1), (r2, s2) in probes:
            pairs += [(lam * r1 + (1 - lam) * r2, lam * s1 + (1 - lam) * s2), (r1, s1), (r2, s2)]
        yield pairs, [lam for lam, _, _ in probes]


def _joint_convexity_finish(n, values, lams):
    excesses = []
    for k, lam in enumerate(lams):
        mixed, ones, twos = values[3 * k : 3 * k + 3]
        excesses.append([m - (lam * a + (1 - lam) * b) for m, a, b in zip(mixed[:n], ones, twos)])
    return excesses


def _contractivity_draw(seed, block, shared):
    """A random Stinespring channel (a Haar isometry with a dim-2
    environment), a projective-measurement channel, and a bystander-discard
    probe (where HS/L_p contractivity breaks); the block's observables are
    drawn in one call."""
    observables = random_observables(
        (len(rho), seed + i + 101, 0, None) for i, (rho, _) in zip(block, shared))
    for i, (rho, sig), obs in zip(block, shared, observables):
        d = len(rho)
        v = haar_unitary(2 * d, seed + i + 37)[:, :d]  # isometry C^d -> C^d (x) C^2
        eye2 = np.eye(2) / 2
        big = np.kron(rho, eye2), np.kron(sig, eye2)
        maps = (
            (lambda m: linalg.partial_trace(v @ m @ v.conj().T, (d, 2), 0), (rho, sig)),
            (lambda m: phi_map(m, obs), (rho, sig)),
            (lambda m: linalg.partial_trace(m, (d, 2), 0), big),
        )
        yield [(rho, sig)] + [(channel(r), channel(g)) for channel, (r, g) in maps] + [big], None


def _contractivity_finish(n, values, _):
    before, *afters, big_before = values
    return [[a - b for a, b in zip(after[:n], ahead)]
            for after, ahead in zip(afters, (before, before, big_before))]


# Property -> (draw, finish, tolerance).  A report's example_seed is the
# trial of the first violation, except for positive definiteness, where it
# is the trial of the largest one.
_PROPERTY_CHECKS = {
    "positive_definiteness": (_positive_definiteness_draw, _positive_definiteness_finish, 0.0),
    "unitary_invariance": (_unitary_invariance_draw, _unitary_invariance_finish, 1e-9),
    "joint_convexity": (_joint_convexity_draw, _joint_convexity_finish, 1e-10),
    "contractivity": (_contractivity_draw, _contractivity_finish, 1e-10),
}


def _property_reports(kinds, trials: int, seed: int) -> list[list[PropertyReport]]:
    """check_distance_properties of every kind, a block of trials at a time:
    each trial's (rho, sigma) is drawn once for all four properties, and
    every distinct pair the block's probes hold is evaluated once, for
    every kind, in one stacked call.  One list of reports per kind, in
    _PROPERTY_CHECKS order; tallies follow the trials in order."""
    n = len(kinds)
    columns = _squares_and_trace(kinds)
    # violations, worst, example of each kind for each property
    tallies = {name: [[0, 0.0, None] for _ in kinds] for name in _PROPERTY_CHECKS}
    for block in _trial_blocks(range(trials)):
        shared = [_random_pair(seed + i, 2 + (i % 3)) for i in block]
        draws = {name: list(draw(seed, block, shared))
                 for name, (draw, _, _) in _PROPERTY_CHECKS.items()}
        # pairs are the same when they hold the same two arrays
        distinct = {(id(r), id(s)): (r, s)
                    for trial_draws in draws.values()
                    for pairs, _ in trial_draws for r, s in pairs}
        values = dict(zip(distinct, _stacked(_powered_distances, columns, list(distinct.values()))))
        for name, (_, finish, tol) in _PROPERTY_CHECKS.items():
            for i, (pairs, extra) in zip(block, draws[name]):
                hit = [False] * n
                for excesses in finish(n, [values[id(r), id(s)] for r, s in pairs], extra):
                    for k, (tally, excess) in enumerate(zip(tallies[name], excesses)):
                        if excess > tol:
                            hit[k] = True
                            worst_so_far = name == "positive_definiteness" and excess > tally[1]
                            if tally[2] is None or worst_so_far:
                                tally[2] = seed + i
                        tally[1] = max(tally[1], excess)
                for tally, violated in zip(tallies[name], hit):
                    tally[0] += violated
    reports = [[] for _ in kinds]
    for name, name_tallies in tallies.items():
        for kind, kind_reports, (violations, worst, example) in zip(kinds, reports, name_tallies):
            kind_reports.append(
                PropertyReport(kind.label(), name, trials, violations, float(worst), example)
            )
    return reports


def check_distance_properties(
    kind: DistanceKind, trials: int, seed: int
) -> list[PropertyReport]:
    """Empirically test positive definiteness, unitary invariance, joint
    convexity and contractivity of `kind` at its configured power, over
    seeded random instances plus structured probes."""
    return _property_reports([kind], trials, seed)[0]


def expected_distance_properties(kind: DistanceKind) -> dict[str, bool]:
    """The established property pattern for a distance family at a power.

    Joint convexity holds for the Schatten distances at any power >= 1 but
    only for the squares of Bures and Hellinger; contractivity holds for
    trace, Bures and Hellinger (any power) and fails for Hilbert-Schmidt
    and every other L_p order.
    """
    if kind.family in ("tr", "hs", "lp"):
        return {
            "positive_definiteness": True,
            "unitary_invariance": True,
            "joint_convexity": True,
            "contractivity": kind.schatten_p == 1.0,
        }
    return {
        "positive_definiteness": True,
        "unitary_invariance": True,
        "joint_convexity": kind.power >= 2.0,
        "contractivity": True,
    }
