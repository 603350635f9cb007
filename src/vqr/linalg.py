"""Dense complex linear algebra: Hermitian eigendecompositions, spectral
functions, Schatten norms, Kronecker products and partial traces.

All routines are pure functions on immutable inputs; nothing here keeps
global state.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidOrder,
    NotHermitian,
    NumericalFailure,
)

# Hermiticity check: max entrywise |m - m^dag|.
TAU_HERM = 1e-9
# Eigenvalues in [-TAU_PSD, 0) are roundoff zeros; anything below is an error.
TAU_PSD = 1e-10
# Eigendecomposition reconstruction tolerance is EIG_TOL_PER_DIM * dim.
EIG_TOL_PER_DIM = 1e-10
# Eigenvalue clusters with consecutive gaps below this share one QR pass.
DEGENERACY_GAP = 1e-9
# Spectral roots treat eigenvalues below this as exact zeros: sqrt would
# otherwise amplify O(eps) noise in the null space of rank-deficient
# operators to O(sqrt(eps)).
SPECTRAL_FLOOR = 1e-14


def as_square(m) -> np.ndarray:
    """Coerce to a square complex ndarray without reshaping."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermiticity_defect(m) -> float:
    """Max entrywise deviation of m from its adjoint."""
    arr = as_square(m)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr - arr.conj().T).max())


def require_hermitian(m) -> np.ndarray:
    defect = hermiticity_defect(m)
    if defect > TAU_HERM:
        raise NotHermitian(f"matrix is not Hermitian (defect {defect:.3e} > {TAU_HERM:.1e})", defect)
    arr = as_square(m)
    return (arr + arr.conj().T) / 2


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns matching eigenvalues


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Each phase is the scalar conj(p)/|p| of the column's pivot p: dividing
    the pivots as one array rounds some phases differently, and would
    change the bits of every eigenvector downstream.
    """
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    phases = [np.conj(p) / abs(p) if abs(p) > 0 else 1.0 for p in pivots]
    return v * np.array(phases, dtype=v.dtype)


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Returns real eigenvalues in ascending order and orthonormal
    eigenvectors as columns.  Within each degenerate cluster (consecutive
    gaps below DEGENERACY_GAP) the basis is re-fixed by a QR pass in index
    order, and every column phase is pinned, so the output is a
    deterministic function of the input.
    """
    h = require_hermitian(m)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc

    # Re-orthonormalize degenerate clusters deterministically.
    n = len(w)
    start = 0
    for k in range(1, n + 1):
        if k == n or w[k] - w[k - 1] > DEGENERACY_GAP:
            if k - start > 1:
                q, r = np.linalg.qr(v[:, start:k])
                signs = np.sign(np.real(np.diag(r)))
                signs[signs == 0] = 1.0
                v[:, start:k] = q * signs
            start = k
    v = _fix_phases(v)

    recon = (v * w) @ v.conj().T
    norm = np.linalg.norm(h)
    tol_eig = EIG_TOL_PER_DIM * n
    if np.linalg.norm(recon - h) > tol_eig * max(1.0, norm):
        raise NumericalFailure("eigendecomposition failed reconstruction check")
    return EigenDecomposition(np.real(w), v)


def matrix_function(m, f: Callable, clip_psd: bool = False) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix spectrally.

    Returns V diag(f(lambda)) V^dag.  With clip_psd=True, eigenvalues in
    [-TAU_PSD, 0) are clipped to zero first and anything more negative is a
    DomainError; use this for sqrt, log and fractional powers of nominal
    density matrices.
    """
    w, v = hermitian_eig(m)
    if clip_psd:
        if w.min(initial=0.0) < -TAU_PSD:
            raise DomainError(
                f"eigenvalue {w.min():.3e} below -{TAU_PSD:.1e}; refusing to clip"
            )
        w = np.where(w < 0.0, 0.0, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            fw = np.asarray(f(w), dtype=float)
        except (TypeError, ValueError):
            fw = np.array([float(f(x)) for x in w])
    if fw.shape != w.shape or not np.all(np.isfinite(fw)):
        raise DomainError("function is not finite on the (clipped) spectrum")
    return (v * fw) @ v.conj().T


def sqrtm_psd(m) -> np.ndarray:
    """Square root of a PSD Hermitian matrix (roundoff negatives clipped,
    eigenvalues below SPECTRAL_FLOOR treated as exact zeros)."""
    return powm_psd(m, 0.5)


def powm_psd(m, alpha: float) -> np.ndarray:
    """PSD matrix power with the 0**alpha := 0 convention.

    Eigenvalues below SPECTRAL_FLOOR count as zeros.  For alpha < 0 this
    is the pseudo-power: the kernel (below TAU_PSD) stays zero and the
    power acts on the support only.
    """
    floor = TAU_PSD if alpha < 0 else SPECTRAL_FLOOR

    def f(w):
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        pos = w > floor
        out[pos] = w[pos] ** alpha
        return out

    return matrix_function(m, f, clip_psd=True)


def schatten_norm(m, p: float) -> float:
    """Schatten p-norm (Tr |X|^p)^(1/p) for finite p >= 1, via singular
    values."""
    if not 1 <= p < math.inf:
        raise InvalidOrder(f"Schatten order must be a finite p >= 1, got {p}")
    arr = as_square(m)
    s = np.linalg.svd(arr, compute_uv=False)
    if p == 1:
        return float(s.sum())
    return float((s**p).sum() ** (1.0 / p))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(as_square(a), as_square(b))


def kron_all(*ms) -> np.ndarray:
    out = as_square(ms[0])
    for m in ms[1:]:
        out = np.kron(out, as_square(m))
    return out


def partial_trace(m, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out all subsystems not listed in keep.

    dims lists the subsystem dimensions whose product must equal the matrix
    dimension; keep is a subsystem index or a collection of them.  Kept
    subsystems stay in ascending index order.
    """
    arr = as_square(m)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims) or math.prod(dims) != arr.shape[0]:
        raise DimensionMismatch(
            f"subsystem dims {dims} do not factor a {arr.shape[0]}-dim matrix"
        )
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted({int(k) for k in keep}))
    n = len(dims)
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise DimensionMismatch(f"keep={keep} invalid for {n} subsystems")
    if len(keep) == n:
        return arr.copy()

    keep_set = set(keep)
    t = arr.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep_set else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(t, row + col, out)
    d_keep = math.prod(dims[i] for i in keep)
    return reduced.reshape(d_keep, d_keep)
