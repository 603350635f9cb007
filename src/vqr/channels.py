"""Quantum operations: non-selective projective measurement, monitoring,
the reality predicate, and the shift-register measurement dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, OutOfRange
from .states import DensityMatrix, Observable

REALITY_TOL = 1e-9
UNITARY_TOL = 1e-9
DILATION_TOL = 1e-9


def phi_map(m: np.ndarray, a: Observable) -> np.ndarray:
    """Non-selective projective measurement sum_a P_a m P_a on a raw matrix.

    The matrix must live in the observable's ambient space; it need not be
    a normalized state, but a non-finite entry raises OutOfRange.

    Two paths give the same bits on finite matrices:
    - when every projector is an exact 0/1 diagonal (computational, block
      and axis-aligned spin observables), the pinching keeps the entries
      inside the blocks and zeroes the rest, so it copies those entries;
    - otherwise it sums the 2 d_E dense products P_a m P_a over the
      embedded projectors.
    Both leave every zero as +0.0.
    """
    m = linalg.as_square(m)
    n = math.prod(a.dims)
    if m.shape[0] != n:
        raise DimensionMismatch(
            f"matrix dim {m.shape[0]} does not match observable ambient dim {n}"
        )
    if not np.isfinite(m).all():
        raise OutOfRange("matrix to measure has a non-finite entry")
    blocks = a.pinching_blocks
    if blocks is not None:
        out = np.zeros(m.size, dtype=complex)
        # + 0.0 turns a kept -0.0 into +0.0, as the dense sum does
        out[blocks.kept] = m.ravel()[blocks.kept] + 0.0
        return out.reshape(m.shape)
    out = np.zeros_like(m)
    for p in a.full_projectors:
        out += p @ m @ p
    return out


def require_same_space(rho: DensityMatrix, a: Observable):
    """DimensionMismatch unless the observable's dims are the state's."""
    if tuple(a.dims) != tuple(rho.dims):
        raise DimensionMismatch(
            f"observable dims {a.dims} do not match state dims {rho.dims}"
        )


def measure_nonselective(rho: DensityMatrix, a: Observable) -> DensityMatrix:
    """Apply the measurement channel of `a` to a state.

    Idempotent, unital, and the identity on states that already have
    reality for `a`.
    """
    require_same_space(rho, a)
    return DensityMatrix(phi_map(rho.matrix, a), rho.dims)


def monitor(rho: DensityMatrix, a: Observable, eps: float) -> DensityMatrix:
    """Monitoring map (1-eps) rho + eps Phi_A(rho)."""
    if not 0.0 <= eps <= 1.0:
        raise OutOfRange(f"monitoring strength must be in [0, 1], got {eps}")
    require_same_space(rho, a)
    mixed = (1.0 - eps) * rho.matrix + eps * phi_map(rho.matrix, a)
    return DensityMatrix(mixed, rho.dims)


def has_reality(rho: DensityMatrix, a: Observable, tol: float = REALITY_TOL) -> bool:
    """True iff the measurement of `a` leaves rho unchanged in trace norm,
    within tol; a tol that is negative or not finite raises OutOfRange."""
    if not 0.0 <= tol < math.inf:
        raise OutOfRange(f"reality tolerance must be finite and >= 0, got {tol}")
    require_same_space(rho, a)
    return linalg.schatten_norm(rho.matrix - phi_map(rho.matrix, a), 1.0) <= tol


@dataclass(frozen=True, eq=False)
class DilationSetup:
    """A system-environment unitary realizing a measurement channel.

    Tracing the environment out of U (rho (x) |e0><e0|) U^dag gives the
    non-selective measurement of the observable, and U leaves
    Phi_A(rho) (x) 1/d_E invariant.  omegas holds the global states
    (Omega_0, Omega_t) and residuals the two contract residuals, reduction
    and invariance, all formed once by build_dilation.
    """

    system_state: DensityMatrix
    observable: Observable
    environment_dim: int
    unitary: np.ndarray
    omegas: tuple[DensityMatrix, DensityMatrix]
    residuals: tuple[float, float]


def build_dilation(rho: DensityMatrix, a: Observable) -> DilationSetup:
    """Construct the shift-register dilation U = sum_a P_a (x) X^a.

    The environment dimension d_E is the number of outcomes, and X is the
    cyclic shift X |e_k> = |e_{k+1 mod d_E}>.  U is unitary for any complete
    set of orthogonal projectors, rank-1 or not: U^dag U = sum_a P_a (x) 1.
    The global states Omega_0 = rho (x) |e0><e0| and Omega_t =
    U Omega_0 U^dag are formed once, and U is verified against the
    contracts: reduction, max entrywise |Tr_E Omega_t - Phi_A(rho)|, and
    invariance, max entrywise
    |U (Phi_A(rho) (x) 1/d_E) U^dag - Phi_A(rho) (x) 1/d_E|.
    """
    require_same_space(rho, a)
    d_e = a.outcomes
    shift = np.roll(np.eye(d_e, dtype=complex), 1, axis=0)
    d_s = rho.dim
    u = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
    power = np.eye(d_e, dtype=complex)
    for p_full in a.full_projectors:
        u += np.kron(p_full, power)
        power = shift @ power
    u.flags.writeable = False

    if np.abs(u.conj().T @ u - np.eye(d_s * d_e)).max() > UNITARY_TOL:
        raise DimensionMismatch("constructed dilation is not unitary")

    ground = np.zeros((d_e, d_e), dtype=complex)
    ground[0, 0] = 1.0
    omega0 = np.kron(rho.matrix, ground)
    omega_t = u @ omega0 @ u.conj().T
    dims = rho.dims + (d_e,)
    phi = phi_map(rho.matrix, a)
    reduced = linalg.partial_trace(omega_t, dims, range(len(rho.dims)))
    fixed = np.kron(phi, np.eye(d_e, dtype=complex) / d_e)
    moved = u @ fixed @ u.conj().T
    reduction = float(np.abs(reduced - phi).max())
    invariance = float(np.abs(moved - fixed).max())
    if reduction > DILATION_TOL or invariance > DILATION_TOL:
        raise DimensionMismatch(
            f"dilation contract violated: reduction {reduction:.3e}, "
            f"invariance {invariance:.3e}"
        )
    omegas = DensityMatrix(omega0, dims), DensityMatrix(omega_t, dims)
    return DilationSetup(rho, a, d_e, u, omegas, (reduction, invariance))


def evolve(setup: DilationSetup) -> tuple[DensityMatrix, DensityMatrix]:
    """Global states before and after the measurement interaction.

    Returns (Omega_0, Omega_t) with Omega_0 = rho (x) |e0><e0| and
    Omega_t = U Omega_0 U^dag, both on dims = system dims + (d_E,), as
    build_dilation formed them.
    """
    return setup.omegas
