"""Distances and divergences between quantum states.

Covers the Schatten L_p distances (trace and Hilbert-Schmidt as special
cases), Uhlmann fidelity with the Bures and Hellinger distances, von
Neumann entropy and relative entropy, Renyi and sandwiched Renyi
divergences, and empirical checks of the distance properties (positive
definiteness, unitary invariance, joint convexity, contractivity).

All entropic quantities use the natural logarithm (nats).  Infinite
divergences (support violations) are returned as float('inf'), never
raised.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidAlpha, InvalidOrder, OutOfRange
from .states import DensityMatrix, haar_unitary, random_density

# Eigenvalues at or below this are treated as the kernel in support checks.
KERNEL_TOL = 1e-12
# State mass on the other state's kernel above this flags a support violation.
SUPPORT_TOL = 1e-10

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
        """Token annotated with the power, e.g. 'hs^2' or 'bu^1'."""
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


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ||sqrt(sigma) sqrt(rho)||_1^2
    = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    For pure states this reduces to |<psi|phi>|^2.  Sub-normalized inputs
    are accepted; for normalized states F is in [0, 1].
    """
    r, s = _pair(rho, sigma)
    sr = linalg.sqrtm_psd(r)
    ss = linalg.sqrtm_psd(s)
    sv = np.linalg.svd(ss @ sr, compute_uv=False)
    return float(sv.sum() ** 2)


def bures_distance_sq(rho, sigma) -> float:
    """Squared Bures distance 2 - 2 sqrt(F)."""
    return max(0.0, 2.0 - 2.0 * float(np.sqrt(fidelity(rho, sigma))))


def hellinger_distance_sq(rho, sigma) -> float:
    """Squared quantum Hellinger distance 2 - 2 Tr(sqrt(sigma) sqrt(rho))."""
    r, s = _pair(rho, sigma)
    overlap = float(np.real(np.trace(linalg.sqrtm_psd(s) @ linalg.sqrtm_psd(r))))
    return max(0.0, 2.0 - 2.0 * overlap)


def distance(kind: DistanceKind, rho, sigma) -> float:
    """The base (power-1) distance selected by kind."""
    return powered_distance(kind.with_power(1.0), rho, sigma)


def powered_distance(kind: DistanceKind, rho, sigma) -> float:
    """d_kind ** kind.power, computed without a lossy sqrt round-trip."""
    if kind.family == "bu":
        return bures_distance_sq(rho, sigma) ** (kind.power / 2.0)
    if kind.family == "he":
        return hellinger_distance_sq(rho, sigma) ** (kind.power / 2.0)
    return lp_distance(rho, sigma, kind.schatten_p) ** kind.power


# --------------------------------------------------------------------------
# Entropies and divergences
# --------------------------------------------------------------------------


def _clip_roundoff(w: np.ndarray) -> np.ndarray:
    """Eigenvalues in [-TAU_PSD, 0) set to zero."""
    return np.where((w < 0.0) & (w >= -linalg.TAU_PSD), 0.0, w)


def _clipped_eigvalsh(m) -> np.ndarray:
    return _clip_roundoff(np.linalg.eigvalsh(linalg.require_hermitian(m)))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr(rho ln rho) in nats, with 0 ln 0 := 0."""
    w = _clipped_eigvalsh(_mat(rho))
    pos = w[w > 0.0]
    return float(-(pos * np.log(pos)).sum())


def _sigma_spectrum(r: np.ndarray, s: np.ndarray, check_support: bool):
    """sigma's clipped eigenvalues and its eigenvectors, shared by the
    divergences.  With check_support, None instead when rho has mass above
    SUPPORT_TOL on sigma's kernel (eigenvalues <= KERNEL_TOL), where the
    divergence is infinite."""
    w_s, v_s = np.linalg.eigh(linalg.require_hermitian(s))
    w_s = _clip_roundoff(w_s)
    if check_support:
        kernel = v_s[:, w_s <= KERNEL_TOL]
        if float(np.real(np.trace(kernel.conj().T @ r @ kernel))) > SUPPORT_TOL:
            return None
    return w_s, v_s


def relative_entropy(rho, sigma) -> float:
    """S(rho||sigma) = Tr(rho ln rho - rho ln sigma) in nats.

    Returns float('inf') when rho has support on the kernel of sigma.
    """
    r, s = _pair(rho, sigma)
    spectrum = _sigma_spectrum(r, s, check_support=True)
    if spectrum is None:
        return float("inf")
    w_s, v_s = spectrum
    w_r, v_r = np.linalg.eigh(linalg.require_hermitian(r))
    w_r = _clip_roundoff(w_r)
    overlap = np.abs(v_r.conj().T @ v_s) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    pos = w_r > 0.0
    keep = w_s > KERNEL_TOL
    cross = float(w_r[pos] @ (overlap[np.ix_(pos, keep)] @ np.log(w_s[keep])))
    own = float((w_r[pos] * np.log(w_r[pos])).sum())
    return own - cross


def _renyi(r: np.ndarray, alpha: float, t: float) -> float:
    """ln[t / Tr rho] / (alpha - 1) for the quasi-entropy t of order alpha."""
    if t <= 0.0:
        return float("inf") if alpha < 1 else float("-inf")
    return float(np.log(t / float(np.real(np.trace(r)))) / (alpha - 1.0))


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Petz-Renyi divergence ln[Tr(rho^a sigma^(1-a)) / Tr rho] / (a - 1)."""
    alpha = _check_alpha(alpha)
    r, s = _pair(rho, sigma)
    if _sigma_spectrum(r, s, check_support=alpha > 1) is None:
        return float("inf")
    t = np.trace(linalg.powm_psd(r, alpha) @ linalg.powm_psd(s, 1.0 - alpha))
    return _renyi(r, alpha, float(np.real(t)))


def sandwiched_renyi_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence
    ln[Tr((sigma^e rho sigma^e)^a) / Tr rho] / (a - 1) with e = (1-a)/(2a)."""
    alpha = _check_alpha(alpha)
    r, s = _pair(rho, sigma)
    if _sigma_spectrum(r, s, check_support=alpha > 1) is None:
        return float("inf")
    s_pow = linalg.powm_psd(s, (1.0 - alpha) / (2.0 * alpha))
    inner = s_pow @ r @ s_pow
    w = _clipped_eigvalsh((inner + inner.conj().T) / 2)
    return _renyi(r, alpha, float((w[w > linalg.SPECTRAL_FLOOR] ** alpha).sum()))


def divergence(kind: DivergenceKind, rho, sigma) -> float:
    if kind.family == "vn":
        return relative_entropy(rho, sigma)
    if kind.family == "renyi":
        return renyi_divergence(rho, sigma, kind.alpha)
    return sandwiched_renyi_divergence(rho, sigma, kind.alpha)


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


def _stinespring_channel(seed, d: int):
    """Random CPTP map from a Haar isometry with a dim-2 environment."""
    u = haar_unitary(2 * d, seed)
    v = u[:, :d]  # isometry C^d -> C^d (x) C^2

    def channel(m: np.ndarray) -> np.ndarray:
        return linalg.partial_trace(v @ m @ v.conj().T, (d, 2), 0)

    return channel


def _check_positive_definiteness(kind, seed, trials):
    # Bures/Hellinger are computed natively as squares; a lower power near
    # zero would amplify O(eps) roundoff to O(sqrt(eps)), so the
    # identity-of-indiscernibles check runs on the squared form.
    squared = kind.with_power(2.0)
    violations, worst, example = 0, 0.0, None
    for i in range(trials):
        s = seed + i
        d = 2 + (i % 3)
        rho, sig = _random_pair(s, d)
        value = powered_distance(kind, rho, sig)
        self_value = powered_distance(squared, rho, rho)
        bad = max(-value, self_value - 1e-10)
        if trace_distance(rho, sig) > 1e-6 and value <= 1e-12:
            bad = max(bad, 1e-12 - value)
        if bad > 0.0:
            violations += 1
            if example is None or bad > worst:
                example = s
        worst = max(worst, bad)
    return violations, worst, example


def _check_unitary_invariance(kind, seed, trials):
    violations, worst, example = 0, 0.0, None
    for i in range(trials):
        s = seed + i
        d = 2 + (i % 3)
        rho, sig = _random_pair(s, d)
        u = haar_unitary(d, s + 13)
        before = powered_distance(kind, rho, sig)
        after = powered_distance(kind, u @ rho @ u.conj().T, u @ sig @ u.conj().T)
        dev = abs(after - before)
        if dev > 1e-9:
            violations += 1
            example = example if example is not None else s
        worst = max(worst, dev)
    return violations, worst, example


def _jc_probes(seed, i):
    """One random joint-convexity probe and one structured probe mixing the
    pairs (rho, rho) and (rho, sigma) with orthogonal pure states; the
    structured case is where first-power Bures and Hellinger convexity
    breaks."""
    d = 2 + (i % 3)
    rho1, sig1 = _random_pair(seed, d)
    rho2, sig2 = _random_pair(seed + 104729, d)
    lam = float(np.random.default_rng(seed + 3).uniform(0.1, 0.9))
    yield lam, (rho1, sig1), (rho2, sig2)
    p0 = np.zeros((d, d), dtype=complex)
    p1 = np.zeros((d, d), dtype=complex)
    p0[0, 0] = 1.0
    p1[1, 1] = 1.0
    yield 0.5, (p0, p0), (p0, p1)


def _check_joint_convexity(kind, seed, trials):
    violations, worst, example = 0, 0.0, None
    for i in range(trials):
        s = seed + i
        hit = False
        for lam, (r1, s1), (r2, s2) in _jc_probes(s, i):
            lhs = powered_distance(
                kind, lam * r1 + (1 - lam) * r2, lam * s1 + (1 - lam) * s2
            )
            rhs = lam * powered_distance(kind, r1, s1) + (1 - lam) * powered_distance(
                kind, r2, s2
            )
            excess = lhs - rhs
            if excess > 1e-10:
                hit = True
                example = example if example is not None else s
            worst = max(worst, excess)
        violations += int(hit)
    return violations, worst, example


def _contractivity_probes(seed, i):
    """A random Stinespring channel, a projective-measurement channel, and
    a bystander-discard probe (where HS/L_p contractivity breaks)."""
    from .channels import phi_map
    from .states import random_observable

    d = 2 + (i % 3)
    rho, sig = _random_pair(seed, d)
    yield rho, sig, _stinespring_channel(seed + 37, d)

    obs = random_observable(d, seed + 101)
    yield rho, sig, lambda m, o=obs: phi_map(m, o)

    eye2 = np.eye(2) / 2
    yield (
        np.kron(rho, eye2),
        np.kron(sig, eye2),
        lambda m, d=d: linalg.partial_trace(m, (d, 2), 0),
    )


def _check_contractivity(kind, seed, trials):
    violations, worst, example = 0, 0.0, None
    for i in range(trials):
        s = seed + i
        hit = False
        for r, g, channel in _contractivity_probes(s, i):
            before = powered_distance(kind, r, g)
            after = powered_distance(kind, channel(r), channel(g))
            excess = after - before
            if excess > 1e-10:
                hit = True
                example = example if example is not None else s
            worst = max(worst, excess)
        violations += int(hit)
    return violations, worst, example


_PROPERTY_CHECKS = {
    "positive_definiteness": _check_positive_definiteness,
    "unitary_invariance": _check_unitary_invariance,
    "joint_convexity": _check_joint_convexity,
    "contractivity": _check_contractivity,
}

PROPERTY_NAMES = tuple(_PROPERTY_CHECKS)


def check_distance_properties(
    kind: DistanceKind, trials: int, seed: int
) -> list[PropertyReport]:
    """Empirically test positive definiteness, unitary invariance, joint
    convexity and contractivity of `kind` at its configured power, over
    seeded random instances plus structured probes."""
    reports = []
    for name, check in _PROPERTY_CHECKS.items():
        violations, worst, example = check(kind, seed, trials)
        reports.append(
            PropertyReport(kind.label(), name, trials, violations, float(worst), example)
        )
    return reports


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
