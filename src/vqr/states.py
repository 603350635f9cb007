"""Quantum states and observables, the boundary check for outside states,
named state families, and seeded random sampling.

Basis ordering is row-major over subsystems: a two-qubit state is indexed
|00>, |01>, |10>, |11>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NonProjective,
    NotHermitian,
    NotPSD,
    OutOfRange,
    TraceNotOne,
)

TAU_TRACE = 1e-10
PROJECTOR_TOL = 1e-9

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
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims) or int(np.prod(dims)) != arr.shape[0]:
            raise DimensionMismatch(
                f"dims {dims} do not factor a {arr.shape[0]}-dim matrix"
            )
        object.__setattr__(self, "matrix", _frozen(arr))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced(self, keep) -> "DensityMatrix":
        """Partial trace keeping the given subsystem indices."""
        if isinstance(keep, (int, np.integer)):
            keep = (int(keep),)
        keep = tuple(sorted({int(k) for k in keep}))
        sub = linalg.partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(sub, tuple(self.dims[k] for k in keep))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def validate_state(m, dims: Sequence[int]) -> DensityMatrix:
    """Check a matrix from outside vqr and wrap it as a density matrix.

    The one place a state's values are checked: raises OutOfRange for a
    non-finite entry, then NotHermitian, TraceNotOne or NotPSD naming the
    violated invariant and its magnitude.
    """
    rho = DensityMatrix(m, dims)
    arr = rho.matrix
    if not np.isfinite(arr).all():
        raise OutOfRange("state has a non-finite entry")
    defect = linalg.hermiticity_defect(arr)
    if defect > linalg.TAU_HERM:
        raise NotHermitian(f"state is not Hermitian (defect {defect:.3e})", defect)
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > TAU_TRACE:
        raise TraceNotOne(f"state trace is {tr:.12g}, expected 1", float(tr.real))
    w_min = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2).min())
    if w_min < -linalg.TAU_PSD:
        raise NotPSD(f"state has eigenvalue {w_min:.3e}", w_min)
    return rho


@dataclass(frozen=True, eq=False)
class Observable:
    """A d-outcome projective decomposition A = sum_a a_a P_a on one subsystem.

    Projectors are given in the subsystem's own dimension; `subsystem` and
    `dims` say where the observable sits inside the ambient product space.
    """

    projectors: tuple[np.ndarray, ...]
    eigenvalues: tuple[float, ...]
    subsystem: int
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        sub = int(self.subsystem)
        if not 0 <= sub < len(dims):
            raise DimensionMismatch(f"subsystem {sub} invalid for dims {dims}")
        d = dims[sub]
        projs = tuple(_frozen(linalg.as_square(p)) for p in self.projectors)
        eigs = tuple(float(a) for a in self.eigenvalues)
        if len(projs) != len(eigs) or not projs:
            raise DimensionMismatch("need one eigenvalue per projector")
        if not np.isfinite(eigs).all():
            raise OutOfRange(f"eigenvalues must be finite, got {eigs}")
        if len(set(eigs)) != len(eigs):
            raise NonProjective(f"eigenvalues must be distinct, got {eigs}")
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (d, d):
                raise DimensionMismatch(
                    f"projector {i} has shape {p.shape}, subsystem dim is {d}"
                )
            if not np.isfinite(p).all():
                raise NonProjective(f"projector {i} has a non-finite entry")
            if linalg.hermiticity_defect(p) > PROJECTOR_TOL:
                raise NonProjective(f"projector {i} is not Hermitian")
            if np.abs(p @ p - p).max() > PROJECTOR_TOL:
                raise NonProjective(f"projector {i} is not idempotent")
            for j in range(i):
                if np.abs(projs[j] @ p).max() > PROJECTOR_TOL:
                    raise NonProjective(f"projectors {j} and {i} are not orthogonal")
            total += p
        if np.abs(total - np.eye(d)).max() > PROJECTOR_TOL:
            raise NonProjective("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projs)
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
        """Projectors embedded into the ambient product space."""
        d_left = int(np.prod(self.dims[: self.subsystem], initial=1))
        d_right = int(np.prod(self.dims[self.subsystem + 1 :], initial=1))
        eye_l, eye_r = np.eye(d_left), np.eye(d_right)
        return tuple(
            _frozen(linalg.kron_all(eye_l, p, eye_r)) for p in self.projectors
        )

    def scoped(self, dims: Sequence[int], subsystem: int) -> "Observable":
        """The same projective decomposition placed in another ambient space."""
        return Observable(self.projectors, self.eigenvalues, subsystem, tuple(dims))


# --------------------------------------------------------------------------
# Named state families
# --------------------------------------------------------------------------


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_a |aa> over dims [d, d]."""
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


def mu_state(mu: float) -> DensityMatrix:
    """Two-qubit family I/4 + (mu/4)(XX - YY) + ((2mu-1)/4) ZZ.

    mu=1 is |phi+><phi+|; mu=0 is the even mixture of |01> and |10>.
    """
    if not 0.0 <= mu <= 1.0:
        raise OutOfRange(f"mu must be in [0, 1], got {mu}")
    m = (
        np.eye(4) / 4
        + (mu / 4) * (np.kron(PAULI_X, PAULI_X) - np.kron(PAULI_Y, PAULI_Y))
        + ((2 * mu - 1) / 4) * np.kron(PAULI_Z, PAULI_Z)
    )
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
    dims = (d,) if dims is None else tuple(dims)
    if dims[subsystem] != d:
        raise DimensionMismatch(
            f"subsystem {subsystem} has dim {dims[subsystem]}, observable wants {d}"
        )
    projs = tuple(np.diag(np.eye(d)[a]).astype(complex) for a in range(d))
    return Observable(projs, tuple(float(a) for a in range(d)), subsystem, dims)


# --------------------------------------------------------------------------
# Seeded random sampling
# --------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_density(
    d: int, rank: int, seed, dims: Sequence[int] | None = None
) -> DensityMatrix:
    """Ginibre random state: G G^dag / Tr(G G^dag) with G of shape d x rank."""
    if not 1 <= rank <= d:
        raise OutOfRange(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, d, rank)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, (d,) if dims is None else tuple(dims))


def random_pure(dims: Sequence[int], seed) -> DensityMatrix:
    """Haar-random pure state: a random unitary applied to |0...0>."""
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    psi = haar_unitary(n, seed)[:, 0]
    return DensityMatrix(np.outer(psi, psi.conj()), dims)


def random_observable(
    d: int, seed, subsystem: int = 0, dims: Sequence[int] | None = None
) -> Observable:
    """Eigenprojectors of a random Hermitian Gaussian matrix."""
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, d, d)
    w, v = linalg.hermitian_eig((g + g.conj().T) / 2)
    projs = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(d))
    return Observable(
        projs, tuple(float(x) for x in w), subsystem, (d,) if dims is None else tuple(dims)
    )


# --------------------------------------------------------------------------
# JSON wire format: {dims, entries as [re, im] pairs row-major}
# --------------------------------------------------------------------------


def matrix_to_entries(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def matrix_from_entries(entries, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    if flat.size != dim * dim:
        raise DimensionMismatch(f"{flat.size} entries cannot fill a {dim}x{dim} matrix")
    return flat.reshape(dim, dim)


def density_to_json(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "entries": matrix_to_entries(rho.matrix)}


def density_from_json(obj: dict) -> DensityMatrix:
    dims = tuple(int(d) for d in obj["dims"])
    dim = int(np.prod(dims))
    return validate_state(matrix_from_entries(obj["entries"], dim), dims)


def observable_to_json(obs: Observable) -> dict:
    return {
        "dims": list(obs.dims),
        "subsystem": obs.subsystem,
        "eigenvalues": list(obs.eigenvalues),
        "projectors": [{"entries": matrix_to_entries(p)} for p in obs.projectors],
    }


def observable_from_json(obj: dict) -> Observable:
    dims = tuple(int(d) for d in obj["dims"])
    sub = int(obj["subsystem"])
    d = dims[sub]
    projs = tuple(matrix_from_entries(p["entries"], d) for p in obj["projectors"])
    return Observable(projs, tuple(float(a) for a in obj["eigenvalues"]), sub, dims)
