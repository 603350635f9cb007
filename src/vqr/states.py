"""Quantum states and observables, the boundary checks for outside states
and observables, named state families, and seeded random sampling.

Basis ordering is row-major over subsystems: a two-qubit state is indexed
|00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NonProjective,
    NotPSD,
    OutOfRange,
    TraceNotOne,
)

TAU_TRACE = 1e-10
PROJECTOR_TOL = 1e-9
# Entries of P_j P_i that the projector check computes at once (16 MB).
OVERLAP_CHUNK = 2**20

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix with subsystem-dimension metadata.

    Construction checks only that the matrix is square and that dims
    factor its size, and keeps a read-only copy.  vqr builds its own states
    this way; a matrix from outside vqr goes through `validate_state`.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        arr = linalg.as_square(self.matrix)
        dims = linalg.as_dims(self.dims, arr.shape[0])
        object.__setattr__(self, "matrix", _frozen(arr))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced(self, keep) -> "DensityMatrix":
        """Partial trace keeping the given subsystem indices, read by
        linalg.as_keep."""
        keep = linalg.as_keep(keep, len(self.dims))
        sub = linalg.partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(sub, tuple(self.dims[k] for k in keep))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def validate_state(m, dims: Sequence[int]) -> DensityMatrix:
    """Check a matrix from outside vqr and wrap it as a density matrix.

    The one place a state's values are checked: linalg.require_hermitian
    raises OutOfRange for a non-finite entry, then NotHermitian; then
    TraceNotOne or NotPSD name the violated invariant and its magnitude.
    """
    rho = DensityMatrix(m, dims)
    hermitian = linalg.require_hermitian(rho.matrix)
    tr = complex(np.trace(rho.matrix))
    if abs(tr - 1.0) > TAU_TRACE:
        raise TraceNotOne(f"state trace is {tr:.12g}, expected 1", float(tr.real))
    w_min = float(np.linalg.eigvalsh(hermitian).min())
    if w_min < -linalg.TAU_PSD:
        raise NotPSD(f"state has eigenvalue {w_min:.3e}", w_min)
    return rho


class PinchingBlocks(NamedTuple):
    """The blocks of a pinching sum_a P_a m P_a whose projectors are exact
    0/1 diagonals: by_size holds one (K, s) array per block size s, in order
    of first appearance, whose rows are the ascending ambient indices of its
    K blocks; kept holds the row-major flat indices of the entries inside
    the blocks, ascending; key is kept's bytes, equal for equal blocks."""

    by_size: tuple[np.ndarray, ...]
    kept: np.ndarray
    key: bytes


@dataclass(frozen=True, eq=False)
class Observable:
    """A d-outcome projective decomposition A = sum_a a_a P_a on one subsystem.

    Projectors are given in the subsystem's own dimension; `subsystem` and
    `dims` say where the observable sits inside the ambient product space.
    Construction checks only the structure: dims by linalg.as_dims, the
    subsystem, one eigenvalue per projector and d x d projectors.  vqr builds its own observables this
    way; projectors from outside vqr go through `validate_observable`.
    """

    projectors: tuple[np.ndarray, ...]
    eigenvalues: tuple[float, ...]
    subsystem: int
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = linalg.as_dims(self.dims)
        sub = linalg.as_index(self.subsystem, "subsystem")
        if not 0 <= sub < len(dims):
            raise DimensionMismatch(f"subsystem {sub} invalid for dims {dims}")
        d = dims[sub]
        projs = [linalg.as_square(p) for p in self.projectors]
        eigs = tuple(float(a) for a in self.eigenvalues)
        if len(projs) != len(eigs) or not projs:
            raise DimensionMismatch("need one eigenvalue per projector")
        for i, p in enumerate(projs):
            if p.shape != (d, d):
                raise DimensionMismatch(f"projector {i} has shape {p.shape}, subsystem dim is {d}")
        stack = np.array(projs, dtype=complex)
        stack.flags.writeable = False
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "subsystem", sub)
        object.__setattr__(self, "dims", dims)

    @property
    def outcomes(self) -> int:
        return len(self.projectors)

    @property
    def subsystem_dim(self) -> int:
        return self.dims[self.subsystem]

    def operator(self) -> np.ndarray:
        """A = sum_a a_a P_a on the observable's own subsystem."""
        d = self.subsystem_dim
        out = np.zeros((d, d), dtype=complex)
        for a, p in zip(self.eigenvalues, self.projectors):
            out += a * p
        return out

    @cached_property
    def full_projectors(self) -> tuple[np.ndarray, ...]:
        """Projectors embedded into the ambient product space,
        (1_left (x) P) (x) 1_right, as read-only views of one stack.

        Each factor is one broadcast product over all the projectors, in
        np.kron's multiplication order and with complex identities, so the
        entries have np.kron's bits, signed zeros included.
        """
        d = self.subsystem_dim
        d_left = math.prod(self.dims[: self.subsystem])
        d_right = math.prod(self.dims[self.subsystem + 1 :])
        n, k = d_left * d * d_right, self.outcomes
        eye_l = np.eye(d_left, dtype=complex)
        eye_r = np.eye(d_right, dtype=complex)
        projs = np.array(self.projectors)
        left = eye_l[None, :, None, :, None] * projs[:, None, :, None, :]
        left = left.reshape(k, d_left * d, d_left * d)
        full = (left[:, :, None, :, None] * eye_r[None, None, :, None, :]).reshape(k, n, n)
        full.flags.writeable = False
        return tuple(full)

    @cached_property
    def pinching_blocks(self) -> PinchingBlocks | None:
        """The blocks that sum_a P_a m P_a keeps of m, or None.

        Defined only when every projector is an exact 0/1 diagonal and
        each subsystem index lies in exactly one of them; then ambient
        basis indices i and j share a block iff the subsystem index
        (i // d_right) % d of each lies in the same projector, and the
        pinching keeps m's entries inside the blocks and zeroes the rest.
        Built from the d x d projectors, never from the embedded ones.
        """
        stack = np.array(self.projectors)
        diag = np.diagonal(stack, axis1=1, axis2=2)
        # every nonzero entry is a diagonal 1 iff the counts agree; then the
        # blocks partition the indices iff each index is in one projector,
        # as in every validated or vqr-built observable
        ones = diag == 1
        if np.count_nonzero(stack) != np.count_nonzero(ones) or not (ones.sum(axis=0) == 1).all():
            return None
        local = ones.argmax(axis=0)
        d_right = math.prod(self.dims[self.subsystem + 1 :])
        index = np.arange(math.prod(self.dims))
        label = local[(index // d_right) % self.subsystem_dim]
        sizes = {}
        for k in range(self.outcomes):
            block = np.flatnonzero(label == k)
            if len(block):  # a zero projector keeps nothing
                sizes.setdefault(len(block), []).append(block)
        by_size = tuple(np.array(blocks) for blocks in sizes.values())
        kept = np.flatnonzero(label[:, None] == label[None, :])
        for indices in (*by_size, kept):
            indices.flags.writeable = False
        return PinchingBlocks(by_size, kept, kept.tobytes())

    def scoped(self, dims: Sequence[int], subsystem: int) -> "Observable":
        """The same projective decomposition placed in another ambient space."""
        return Observable(self.projectors, self.eigenvalues, subsystem, tuple(dims))


def validate_observable(projectors, eigenvalues, subsystem: int, dims: Sequence[int]) -> Observable:
    """Check a projective decomposition from outside vqr and wrap it as an
    observable.

    The one place an observable's values are checked, one check at a time
    after Observable's structure checks: OutOfRange for a non-finite
    eigenvalue, then NonProjective for repeated eigenvalues, a projector
    that is not finite, then not Hermitian, then not idempotent, a pair
    j < i with P_j P_i != 0, or projectors that do not sum to the identity,
    within PROJECTOR_TOL, naming the first projector or pair that fails.
    """
    obs = Observable(projectors, eigenvalues, subsystem, dims)
    eigs = obs.eigenvalues
    if not np.isfinite(eigs).all():
        raise OutOfRange(f"eigenvalues must be finite, got {eigs}")
    if len(set(eigs)) != len(eigs):
        raise NonProjective(f"eigenvalues must be distinct, got {eigs}")
    stack = np.array(obs.projectors)
    # row i holds |P_j P_i| for every j, in chunks of rows of at most
    # OVERLAP_CHUNK entries, which is one chunk for every small observable
    rows = max(1, OVERLAP_CHUNK // stack.size)
    with np.errstate(invalid="ignore", over="ignore"):
        overlaps = np.concatenate([np.abs(stack @ stack[i : i + rows, None]).max(axis=(-2, -1))
                                   for i in range(0, len(stack), rows)])
        checks = (
            (~np.isfinite(stack).all(axis=(-2, -1)), "projector {} has a non-finite entry"),
            (np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > PROJECTOR_TOL,
             "projector {} is not Hermitian"),
            (np.abs(stack @ stack - stack).max(axis=(-2, -1)) > PROJECTOR_TOL,
             "projector {} is not idempotent"),
            (np.tril(overlaps > PROJECTOR_TOL, -1), "projectors {1} and {0} are not orthogonal"),
            ([np.abs(stack.sum(axis=0) - np.eye(obs.subsystem_dim)).max() > PROJECTOR_TOL],
             "projectors do not sum to the identity"),
        )
    for failed, message in checks:
        # the first index, in row-major order, that fails this check
        hits = np.argwhere(failed)
        if len(hits):
            raise NonProjective(message.format(*hits[0]))
    return obs


# --------------------------------------------------------------------------
# Named state families
# --------------------------------------------------------------------------


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_a |aa> over dims [d, d]."""
    d = linalg.as_index(d, "qudit dimension")
    if d < 2:
        raise OutOfRange(f"qudit dimension must be >= 2, got {d}")
    psi = np.zeros(d * d, dtype=complex)
    for a in range(d):
        psi[a * d + a] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(psi, psi.conj()), (d, d))


def werner(epsilon: float) -> DensityMatrix:
    """Isotropic mixture (1-eps) I/4 + eps |phi+><phi+| of two qubits."""
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon must be in [0, 1], got {epsilon}")
    phi = max_entangled(2).matrix
    return DensityMatrix((1 - epsilon) * np.eye(4) / 4 + epsilon * phi, (2, 2))


# The Pauli products of the mu family, XX - YY and ZZ.
_MU_COHERENCE = np.kron(PAULI_X, PAULI_X) - np.kron(PAULI_Y, PAULI_Y)
_MU_COHERENCE.flags.writeable = False
_MU_CORRELATION = np.kron(PAULI_Z, PAULI_Z)
_MU_CORRELATION.flags.writeable = False


def mu_state(mu: float) -> DensityMatrix:
    """Two-qubit family I/4 + (mu/4)(XX - YY) + ((2mu-1)/4) ZZ.

    mu=1 is |phi+><phi+|; mu=0 is the even mixture of |01> and |10>.
    """
    if not 0.0 <= mu <= 1.0:
        raise OutOfRange(f"mu must be in [0, 1], got {mu}")
    m = np.eye(4) / 4 + (mu / 4) * _MU_COHERENCE + ((2 * mu - 1) / 4) * _MU_CORRELATION
    return DensityMatrix(m, (2, 2))


def spin_observable(
    theta: float, phi: float, subsystem: int = 0, dims: Sequence[int] = (2,)
) -> Observable:
    """Spin observable u.sigma for the Bloch direction
    u = (cos(theta) sin(phi), sin(theta) sin(phi), cos(phi)),
    as the two projectors onto its +1/-1 eigenstates.
    """
    for name, angle in (("theta", theta), ("phi", phi)):
        if not np.isfinite(angle):
            raise OutOfRange(f"{name} must be finite, got {angle}")
    ux = np.cos(theta) * np.sin(phi)
    uy = np.sin(theta) * np.sin(phi)
    uz = np.cos(phi)
    a = ux * PAULI_X + uy * PAULI_Y + uz * PAULI_Z
    p_plus = (np.eye(2) + a) / 2
    p_minus = (np.eye(2) - a) / 2
    return Observable((p_plus, p_minus), (1.0, -1.0), subsystem, tuple(dims))


def computational_observable(
    d: int, subsystem: int = 0, dims: Sequence[int] | None = None
) -> Observable:
    """The d rank-1 projectors |a><a| with eigenvalues 0..d-1."""
    d = linalg.as_count(d, "observable dimension")
    dims = (d,) if dims is None else tuple(dims)
    projs = tuple(np.diag(np.eye(d)[a]).astype(complex) for a in range(d))
    return Observable(projs, tuple(float(a) for a in range(d)), subsystem, dims)


# --------------------------------------------------------------------------
# Seeded random sampling
# --------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix.  A
    dimension below 1 or a negative seed raises OutOfRange, a non-integral
    one DimensionMismatch."""
    d = linalg.as_count(d, "unitary dimension")
    rng = np.random.default_rng(linalg.as_seed(seed))
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_density(
    d: int, rank: int, seed, dims: Sequence[int] | None = None
) -> DensityMatrix:
    """Ginibre random state: G G^dag / Tr(G G^dag) with G of shape d x rank."""
    d, rank = linalg.as_count(d, "state dimension"), linalg.as_index(rank, "rank")
    if not 1 <= rank <= d:
        raise OutOfRange(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(linalg.as_seed(seed))
    g = _ginibre(rng, d, rank)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, (d,) if dims is None else tuple(dims))


def random_pure(dims: Sequence[int], seed) -> DensityMatrix:
    """Haar-random pure state: a random unitary applied to |0...0>."""
    dims = linalg.as_dims(dims)
    psi = haar_unitary(math.prod(dims), seed)[:, 0]
    return DensityMatrix(np.outer(psi, psi.conj()), dims)


def random_observable(
    d: int, seed, subsystem: int = 0, dims: Sequence[int] | None = None
) -> Observable:
    """Eigenprojectors of a random Hermitian Gaussian matrix."""
    return random_observables([(d, seed, subsystem, dims)])[0]


def random_observables(draws) -> list[Observable]:
    """random_observable of each (d, seed, subsystem, dims) draw, in order.

    Each draw makes its own seeded Ginibre matrix; their Hermitian parts
    are decomposed as one stack per dimension, which gives each member the
    bits of its own decomposition.
    """
    draws = [(linalg.as_count(d, "observable dimension"), linalg.as_seed(seed), subsystem, dims)
             for d, seed, subsystem, dims in draws]
    hermitian = []
    for d, seed, _, _ in draws:
        g = _ginibre(np.random.default_rng(seed), d, d)
        hermitian.append((g + g.conj().T) / 2)
    decompositions = linalg.stackwise(lambda h: zip(*linalg.hermitian_eig(h)), hermitian)
    return [
        # projector k is the outer product of eigenvector k with itself
        Observable(v.T[:, :, None] * v.T.conj()[:, None, :], w.tolist(), subsystem,
                   (d,) if dims is None else tuple(dims))
        for (d, _, subsystem, dims), (w, v) in zip(draws, decompositions)
    ]


# --------------------------------------------------------------------------
# JSON wire format: {dims, entries as [re, im] pairs row-major}
# --------------------------------------------------------------------------


def matrix_to_entries(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def _field(obj, key: str):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise DimensionMismatch(f"JSON object has no {key!r} field") from None


def _json_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise DimensionMismatch(f"{name} must be a list, got {value!r}")
    return list(value)


def _json_dims(obj) -> tuple[int, ...]:
    return linalg.as_dims(_json_list(_field(obj, "dims"), "'dims'"), name="'dims'")


def matrix_from_entries(entries, dim: int) -> np.ndarray:
    """The dim x dim matrix of row-major [re, im] pairs; a malformed pair
    raises DimensionMismatch, a non-numeric part OutOfRange."""
    pairs = _json_list(entries, "'entries'")
    flat = np.empty(len(pairs), dtype=complex)
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise DimensionMismatch(f"'entries'[{k}] is not a [re, im] pair: {pair!r}")
        try:
            flat[k] = complex(*pair)
        except (TypeError, OverflowError):
            raise OutOfRange(f"'entries'[{k}] is not a pair of numbers: {pair!r}") from None
    if flat.size != dim * dim:
        raise DimensionMismatch(f"{flat.size} entries cannot fill a {dim}x{dim} matrix")
    return flat.reshape(dim, dim)


def density_to_json(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "entries": matrix_to_entries(rho.matrix)}


def density_from_json(obj: dict) -> DensityMatrix:
    """Read a state; malformed fields raise DimensionMismatch or OutOfRange
    naming the field, and the state's values go through validate_state."""
    dims = _json_dims(obj)
    dim = math.prod(dims)
    return validate_state(matrix_from_entries(_field(obj, "entries"), dim), dims)


def observable_to_json(obs: Observable) -> dict:
    return {
        "dims": list(obs.dims),
        "subsystem": obs.subsystem,
        "eigenvalues": list(obs.eigenvalues),
        "projectors": [{"entries": matrix_to_entries(p)} for p in obs.projectors],
    }


def observable_from_json(obj: dict) -> Observable:
    """Read an observable; malformed fields raise DimensionMismatch or
    OutOfRange naming the field, and the observable's values go through
    validate_observable."""
    dims = _json_dims(obj)
    sub = linalg.as_index(_field(obj, "subsystem"), "'subsystem'")
    if not 0 <= sub < len(dims):
        raise DimensionMismatch(f"'subsystem' {sub} invalid for 'dims' {list(dims)}")
    d = dims[sub]
    projs = tuple(
        matrix_from_entries(_field(p, "entries"), d)
        for p in _json_list(_field(obj, "projectors"), "'projectors'")
    )
    raw = _json_list(_field(obj, "eigenvalues"), "'eigenvalues'")
    try:
        eigs = tuple(float(a) for a in raw)
    except (TypeError, ValueError):
        raise OutOfRange(f"'eigenvalues' must be numbers, got {raw!r}") from None
    return validate_observable(projs, eigs, sub, dims)
