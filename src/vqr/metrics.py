"""Distances and divergences between quantum states.

Covers the Schatten L_p distances (trace and Hilbert-Schmidt as special
cases), Uhlmann fidelity with the Bures and Hellinger distances, von
Neumann entropy and relative entropy, and Renyi and sandwiched Renyi
divergences.

All entropic quantities use the natural logarithm (nats).  Every divergence
comes from one spectral core, divergences, on one pair or on two stacks.
Infinite divergences (support violations) are returned as float('inf');
an operand with an eigenvalue below -TAU_PSD raises DomainError.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidAlpha, InvalidOrder, OutOfRange
from .states import DensityMatrix

# Eigenvalues at or below this are treated as the kernel in support checks.
KERNEL_TOL = 1e-12
# State mass on the other state's kernel above this flags a support violation.
SUPPORT_TOL = 1e-10

_FAMILIES = ("tr", "hs", "lp", "bu", "he")


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
        elif self.p is not None:
            raise InvalidOrder(f"family {self.family!r} does not take p")
        if self.power is None:
            object.__setattr__(self, "power", self.default_power)
        if not 0 < self.power < math.inf:
            raise InvalidOrder(f"power must be positive and finite, got {self.power}")

    @property
    def default_power(self) -> float:
        """The power a kind takes when none is given, the one its closed-form
        information gain holds at: 1 for tr, 2 for hs, bu and he, p for lp."""
        return {"tr": 1.0, "hs": 2.0, "bu": 2.0, "he": 2.0}.get(self.family, self.p)

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
    if not (np.isfinite(r).all() and np.isfinite(s).all()):
        raise OutOfRange("operand has a non-finite entry")
    return r, s


# --------------------------------------------------------------------------
# Geometric distances
# --------------------------------------------------------------------------


def lp_distance(rho, sigma, p: float) -> float:
    """Schatten p-distance ||sigma - rho||_p.

    The second argument may be sub-normalized (e.g. a measured state
    divided by an environment dimension).
    """
    return powered_distance(lp(p, 1.0), rho, sigma)


def trace_distance(rho, sigma) -> float:
    """||sigma - rho||_1 (no 1/2 factor)."""
    return powered_distance(TRACE, rho, sigma)


def hs_distance(rho, sigma) -> float:
    return powered_distance(HILBERT_SCHMIDT.with_power(1.0), rho, sigma)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ||sqrt(sigma) sqrt(rho)||_1^2
    = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    For pure states this reduces to |<psi|phi>|^2.  Sub-normalized inputs
    are accepted; for normalized states F is in [0, 1].
    """
    return float(Distances(*_pair(rho, sigma)).fidelity)


def bures_distance_sq(rho, sigma) -> float:
    """Squared Bures distance 2 - 2 sqrt(F)."""
    return powered_distance(BURES, rho, sigma)


def hellinger_distance_sq(rho, sigma) -> float:
    """Squared quantum Hellinger distance 2 - 2 Tr(sqrt(sigma) sqrt(rho))."""
    return powered_distance(HELLINGER, rho, sigma)


def distance(kind: DistanceKind, rho, sigma) -> float:
    """The base (power-1) distance selected by kind."""
    return powered_distance(kind.with_power(1.0), rho, sigma)


def _exponent(kind: DistanceKind) -> float:
    """The power of kind's native distance that gives d_kind ** kind.power:
    Bures and Hellinger are computed natively as squares."""
    return kind.power / 2.0 if kind.family in ("bu", "he") else kind.power


def powered_distance(kind: DistanceKind, rho, sigma) -> float:
    """d_kind ** kind.power, computed without a lossy sqrt round-trip."""
    return powered_distances([kind], *_pair(rho, sigma))[0]


def powered_distances(kinds, r: np.ndarray, s: np.ndarray) -> list:
    """powered_distance of each kind between the complex matrices r and s,
    or between the members of two (N, d, d) stacks: a float per kind for one
    pair, a list of N floats per kind for stacks."""
    distances = Distances(r, s)
    return [distances.powered(kind).tolist() for kind in kinds]


class Distances:
    """The powered distances between the complex matrices r and s, or
    between the members of two (N, d, d) stacks, and their fidelity: the
    one place either is computed.  Each intermediate is computed on first
    use and kept, so kinds asked for later, in this call or another, reuse
    it: the SVD of s - r, which every Schatten order reads, the root
    product and the fidelity, which Bures and Hellinger read, and each
    native distance, which is raised to each kind's exponent.

    blocks, the PinchingBlocks of an observable, says that every s is
    block-diagonal on its index blocks, as a pinching Phi(rho) is; the root
    product then takes sqrt(s) block by block.  None, the one-block
    case, takes it of the whole matrix."""

    def __init__(self, r: np.ndarray, s: np.ndarray, blocks=None):
        self.r, self.s, self.blocks = r, s, blocks
        self._natives = {}

    @functools.cached_property
    def root(self) -> np.ndarray:
        """sqrt(s) sqrt(r) of each pair.  With blocks, the rows of each
        block b are sqrt(s_bb) sqrt(r)[b, :], where s_bb is s on b x b; the
        roots of all blocks of one size are one stacked sqrtm_psd."""
        root_r = linalg.sqrtm_psd(self.r)
        if self.blocks is None:
            return linalg.sqrtm_psd(self.s) @ root_r
        out = np.empty_like(root_r)
        for indices in self.blocks.by_size:
            roots = linalg.sqrtm_psd(self.s[..., indices[:, :, None], indices[:, None, :]])
            out[..., indices, :] = roots @ root_r.take(indices, axis=-2)
        return out

    @functools.cached_property
    def fidelity(self) -> np.ndarray:
        """||root||_1^2 of each pair: 0-d for one pair, N values for stacks."""
        return linalg.scalar_power(np.linalg.svd(self.root, compute_uv=False).sum(axis=-1), 2)

    @functools.cached_property
    def singular(self) -> np.ndarray:
        return np.linalg.svd(self.s - self.r, compute_uv=False)

    def _native(self, kind: DistanceKind) -> np.ndarray:
        """The Schatten norm of s - r, or the squared Bures or Hellinger
        distance, clipped at 0 where roundoff takes it below."""
        key = kind.family, kind.p
        if key not in self._natives:
            if kind.family == "bu":
                value = 2.0 - 2.0 * np.sqrt(self.fidelity)
            elif kind.family == "he":
                value = 2.0 - 2.0 * np.real(np.trace(self.root, axis1=-2, axis2=-1))
            else:
                value = linalg.schatten_from_singular_values(self.singular, kind.schatten_p)
            self._natives[key] = np.where(value > 0.0, value, 0.0)
        return self._natives[key]

    def powered(self, kind: DistanceKind) -> np.ndarray:
        """powered_distance of the kind: 0-d for one pair, N values for
        stacks."""
        return linalg.scalar_power(self._native(kind), _exponent(kind))


def stacked(values, kinds, pairs) -> list[tuple]:
    """values(kinds, r, s), powered_distances or divergences, of each
    (rho, sigma) pair, evaluated as one stack per matrix dimension: per
    pair, in input order, a tuple of one value per kind."""
    def evaluate(stack):
        return list(zip(*values(kinds, stack[:, 0], stack[:, 1])))

    return linalg.stackwise(evaluate, [np.array(pair, dtype=complex) for pair in pairs])


# --------------------------------------------------------------------------
# Entropies and divergences
# --------------------------------------------------------------------------


def entropies(m: np.ndarray) -> np.ndarray:
    """The von Neumann entropy of each member of a stack (0-d for one
    matrix), from one stacked eigvalsh.  Each member's masked sum stays its
    own: a masked reduction over the stack would sum in another order."""
    w = linalg.clip_roundoff(np.linalg.eigvalsh(linalg.require_hermitian(m)))
    rows = w.reshape(-1, w.shape[-1])
    values = [-(pos * np.log(pos)).sum() for pos in (row[row > 0.0] for row in rows)]
    return np.array(values).reshape(w.shape[:-1])


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr(rho ln rho) in nats, with 0 ln 0 := 0."""
    return float(entropies(_mat(rho)))


def divergences(kinds, r: np.ndarray, s: np.ndarray) -> list:
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
    return divergences([VON_NEUMANN], *_pair(rho, sigma))[0]


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Petz-Renyi divergence ln[Tr(rho^a sigma^(1-a)) / Tr rho] / (a - 1)."""
    return divergences([renyi(alpha)], *_pair(rho, sigma))[0]


def sandwiched_renyi_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence
    ln[Tr((sigma^e rho sigma^e)^a) / Tr rho] / (a - 1) with e = (1-a)/(2a)."""
    return divergences([sandwiched_renyi(alpha)], *_pair(rho, sigma))[0]
