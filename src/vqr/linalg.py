"""Dense complex linear algebra: Hermitian eigendecompositions, spectral
functions, Schatten norms, Kronecker products and partial traces.

All routines are pure functions on immutable inputs; nothing here keeps
global state.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidOrder,
    NotHermitian,
    NumericalFailure,
    OutOfRange,
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


def as_index(value, name: str) -> int:
    """An integer, such as a dimension, by operator.index: anything else,
    2.5 or 2.0 too, raises DimensionMismatch naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}") from None


def as_count(value, name: str) -> int:
    """A sampler's dimension or a trial count, by as_index; below 1 is OutOfRange."""
    value = as_index(value, name)
    if value < 1:
        raise OutOfRange(f"{name} must be at least 1, got {value}")
    return value


def as_dims(dims, size: int | None = None, name: str = "dims") -> tuple[int, ...]:
    """Subsystem dimensions: each entry by as_index, and DimensionMismatch
    for one below 1 or, when size is given, for a product other than size."""
    entry = f"{name} entry"
    dims = tuple(as_index(d, entry) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"{name} must be positive, got {dims}")
    if size is not None and math.prod(dims) != size:
        raise DimensionMismatch(f"{name} {dims} do not factor a {size}-dim matrix")
    return dims


def as_seed(seed) -> int:
    """A random seed, by as_index; a negative one raises OutOfRange."""
    seed = as_index(seed, "seed")
    if seed < 0:
        raise OutOfRange(f"seed must be at least 0, got {seed}")
    return seed


def as_keep(keep, n: int) -> tuple[int, ...]:
    """The subsystem indices of keep, one index or a collection of them,
    each by as_index, sorted and distinct; none at all, or one outside
    [0, n), raises DimensionMismatch."""
    indices = keep if np.iterable(keep) else (keep,)
    keep = tuple(sorted({as_index(k, "keep index") for k in indices}))
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise DimensionMismatch(f"keep={keep} invalid for {n} subsystems")
    return keep


def as_stack(m) -> np.ndarray:
    """Coerce to a complex ndarray of square matrices, one (d, d) or a stack
    (..., d, d) with d >= 1, without reshaping; a stack may be empty."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or not arr.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix of size >= 1, got shape {arr.shape}")
    return arr


def as_square(m) -> np.ndarray:
    """as_stack of one (d, d) matrix."""
    arr = as_stack(m)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _adjoint(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def _defect(arr: np.ndarray, adjoint: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):  # inf - inf: a nan defect
        return float(np.abs(arr - adjoint).max()) if arr.size else 0.0


def require_hermitian(m) -> np.ndarray:
    """The Hermitian part of m, or of each member of a stack; NotHermitian
    when the largest defect in the stack is above TAU_HERM, OutOfRange when
    it is not finite, which any non-finite entry makes it."""
    arr = as_stack(m)
    adjoint = _adjoint(arr)
    defect = _defect(arr, adjoint)
    if not defect <= TAU_HERM:
        if not math.isfinite(defect):
            raise OutOfRange("matrix has a non-finite entry")
        raise NotHermitian(f"matrix is not Hermitian (defect {defect:.3e} > {TAU_HERM:.1e})", defect)
    return (arr + adjoint) / 2


def scalar_power(x, e: float) -> np.ndarray:
    """x ** e value by value with Python's float pow, shaped like x.

    The vectorized power (SIMD on some CPUs) rounds some values differently
    from the scalar pow, so a stack would not give the bits of its members
    computed one at a time.  At e = 1 it returns a copy, since t ** 1.0 is t.
    """
    x = np.asarray(x, dtype=float)
    if e == 1.0:
        return x.copy()
    return np.array([t ** e for t in x.ravel().tolist()]).reshape(x.shape)


def stackwise(f: Callable, matrices: Sequence[np.ndarray]) -> list:
    """f of each array in a list, evaluated as one stack per shape: f takes
    a stack (N, ...) and returns N results, which come back in input order.
    """
    groups = {}
    for n, m in enumerate(matrices):
        groups.setdefault(m.shape, []).append(n)
    out = [None] * len(matrices)
    for members in groups.values():
        for n, value in zip(members, f(np.stack([matrices[n] for n in members]))):
            out[n] = value
    return out


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns matching eigenvalues


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive,
    in every member of a stack.

    Each phase is conj(p)/hypot(Re p, Im p) of the column's pivot p, which
    has the bits of the scalar conj(p)/abs(p); np.abs of a complex array
    rounds some magnitudes differently, and would change the bits of every
    eigenvector downstream.  A zero pivot keeps phase 1.
    """
    n = v.shape[-1]
    flat = v.reshape(-1, n, n)
    rows = np.argmax(np.abs(flat), axis=-2)
    pivots = flat[np.arange(len(flat))[:, None], rows, np.arange(n)]
    size = np.hypot(pivots.real, pivots.imag)
    phases = np.divide(np.conj(pivots), size, out=np.ones_like(pivots), where=size > 0)
    return v * phases.reshape(v.shape[:-2] + (1, n))


def _fix_clusters(v: np.ndarray, joined: np.ndarray) -> np.ndarray:
    """Re-orthonormalize every degenerate cluster by a QR pass in index
    order, with the signs of R's diagonal pinned positive.

    The phase fix that follows rotates every column, so the pin changes no
    value, but it does change signed zeros: multiplying by (+1 + 0j) turns
    some -0.0 parts into +0.0, which exactly degenerate inputs (identity,
    block projectors) show in their eigenvectors.

    joined[..., k] says columns k and k + 1 share a cluster.  Every cluster
    of one size, across the whole stack, goes into one stacked QR.
    """
    n = v.shape[-1]
    flat = v.reshape(-1, n, n)
    joined = joined.reshape(-1, n - 1)
    # a run of joined gaps k..l is the cluster of columns k..l+1
    first = joined.copy()
    first[:, 1:] &= ~joined[:, :-1]
    last = joined.copy()
    last[:, :-1] &= ~joined[:, 1:]
    members, starts = np.nonzero(first)
    sizes = np.nonzero(last)[1] + 2 - starts
    for size in set(sizes.tolist()):
        pick = sizes == size
        # the (K, n, size) column blocks of the K clusters of this size
        blocks = (
            members[pick, None, None],
            np.arange(n)[:, None],
            starts[pick, None, None] + np.arange(size),
        )
        q, r = np.linalg.qr(flat[blocks])
        signs = np.sign(np.real(np.diagonal(r, axis1=-2, axis2=-1)))
        signs[signs == 0] = 1.0
        flat[blocks] = q * signs[:, None, :]
    return flat.reshape(v.shape)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each member of a fresh (C-ordered) stack."""
    return np.sqrt(np.square(x.view(float)).sum(axis=(-2, -1)))


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each member of a
    stack (..., d, d).

    Returns real eigenvalues in ascending order and orthonormal
    eigenvectors as columns.  Within each degenerate cluster (consecutive
    gaps below DEGENERACY_GAP) the basis is re-fixed by a QR pass in index
    order, and every column phase is pinned, so the output is a
    deterministic function of the input.  Each member gets the bits it
    would get on its own.
    """
    # _frobenius views h as float, which needs a unit-stride last axis
    h = np.ascontiguousarray(require_hermitian(m))
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc

    joined = ~(w[..., 1:] - w[..., :-1] > DEGENERACY_GAP)
    if joined.any():
        v = _fix_clusters(v, joined)
    v = _fix_phases(v)

    recon = (v * w[..., None, :]) @ _adjoint(v)
    tol_eig = EIG_TOL_PER_DIM * h.shape[-1]
    if not np.all(_frobenius(recon - h) <= tol_eig * np.maximum(1.0, _frobenius(h))):
        raise NumericalFailure("eigendecomposition failed reconstruction check")
    return EigenDecomposition(w, v)


def clip_roundoff(w: np.ndarray) -> np.ndarray:
    """Eigenvalues with those in [-TAU_PSD, 0) set to zero; anything more
    negative is a DomainError."""
    if w.min(initial=0.0) < -TAU_PSD:
        raise DomainError(f"eigenvalue {w.min():.3e} below -{TAU_PSD:.1e}; refusing to clip")
    return np.where(w < 0.0, 0.0, w)


def matrix_function(m, f: Callable, clip_psd: bool = False) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix, or to each member
    of a stack, spectrally.

    Returns V diag(f(lambda)) V^dag.  With clip_psd=True the eigenvalues
    go through clip_roundoff first; use this for sqrt, log and fractional
    powers of nominal density matrices.
    """
    w, v = hermitian_eig(m)
    if clip_psd:
        w = clip_roundoff(w)
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            fw = np.asarray(f(w), dtype=float)
        except (TypeError, ValueError):
            fw = np.array([float(f(x)) for x in w.ravel()]).reshape(w.shape)
    if fw.shape != w.shape or not np.all(np.isfinite(fw)):
        raise DomainError("function is not finite on the (clipped) spectrum")
    return (v * fw[..., None, :]) @ _adjoint(v)


def _require_finite_power(alpha: float) -> None:
    """InvalidOrder for a non-finite power: 1 ** nan is 1, so a nan power
    would give a silent number."""
    if not math.isfinite(alpha):
        raise InvalidOrder(f"matrix power must be finite, got {alpha}")


def floored_power(w, alpha: float) -> np.ndarray:
    """w ** alpha of clipped eigenvalues, 0 where w is at or below
    SPECTRAL_FLOOR, or TAU_PSD for the pseudo-power of alpha < 0.  A
    non-finite alpha raises InvalidOrder."""
    _require_finite_power(alpha)
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    pos = w > (TAU_PSD if alpha < 0 else SPECTRAL_FLOOR)
    out[pos] = w[pos] ** alpha
    return out


def sqrtm_psd(m) -> np.ndarray:
    """Square root of a PSD Hermitian matrix, or of each member of a stack
    (roundoff negatives clipped, eigenvalues below SPECTRAL_FLOOR treated as
    exact zeros)."""
    return powm_psd(m, 0.5)


def powm_psd(m, alpha: float) -> np.ndarray:
    """PSD matrix power floored_power(lambda, alpha), on one matrix or each
    member of a stack; a non-finite alpha raises InvalidOrder before the
    decomposition."""
    _require_finite_power(alpha)
    return matrix_function(m, lambda w: floored_power(w, alpha), clip_psd=True)


def schatten_norm(m, p: float):
    """Schatten p-norm (Tr |X|^p)^(1/p) for finite p >= 1, via singular
    values: a float for one matrix, an array of them for a stack.  The
    order is checked before the SVD."""
    if not 1 <= p < math.inf:
        raise InvalidOrder(f"Schatten order must be a finite p >= 1, got {p}")
    arr = as_stack(m)
    norms = schatten_from_singular_values(np.linalg.svd(arr, compute_uv=False), p)
    return float(norms) if arr.ndim == 2 else norms


def schatten_from_singular_values(s: np.ndarray, p: float) -> np.ndarray:
    """The Schatten p-norm of each matrix whose singular values are the
    last axis of s, so one SVD serves every order.  p is not checked here:
    schatten_norm checks it, and DistanceKind checks every kind's order."""
    return s.sum(axis=-1) if p == 1 else scalar_power((s**p).sum(axis=-1), 1.0 / p)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(as_square(a), as_square(b))


def partial_trace(m, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out all subsystems not listed in keep.

    dims lists the subsystem dimensions whose product must equal the matrix
    dimension; keep is a subsystem index or a collection of them, read by
    as_keep.  Kept subsystems stay in ascending index order.
    """
    arr = as_square(m)
    dims = as_dims(dims, arr.shape[0])
    n = len(dims)
    keep = as_keep(keep, n)
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
