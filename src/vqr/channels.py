"""Quantum operations: non-selective projective measurement, monitoring,
the reality predicate, and the shift-register measurement dilation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, OutOfRange
from .states import DensityMatrix, Observable, _frozen

REALITY_TOL = 1e-9
UNITARY_TOL = 1e-9
DILATION_TOL = 1e-9


def phi_map(m: np.ndarray, a: Observable) -> np.ndarray:
    """Non-selective projective measurement sum_a P_a m P_a on a raw matrix.

    The matrix must live in the observable's ambient space; it need not be
    a normalized state.
    """
    m = linalg.as_square(m)
    projs = a.full_projectors
    if projs[0].shape != m.shape:
        raise DimensionMismatch(
            f"matrix dim {m.shape[0]} does not match observable ambient dim "
            f"{projs[0].shape[0]}"
        )
    out = np.zeros_like(m)
    for p in projs:
        out += p @ m @ p
    return out


def _require_same_space(rho: DensityMatrix, a: Observable):
    if tuple(a.dims) != tuple(rho.dims):
        raise DimensionMismatch(
            f"observable dims {a.dims} do not match state dims {rho.dims}"
        )


def measure_nonselective(rho: DensityMatrix, a: Observable) -> DensityMatrix:
    """Apply the measurement channel of `a` to a state.

    Idempotent, unital, and the identity on states that already have
    reality for `a`.
    """
    _require_same_space(rho, a)
    return DensityMatrix(phi_map(rho.matrix, a), rho.dims)


def monitor(rho: DensityMatrix, a: Observable, eps: float) -> DensityMatrix:
    """Monitoring map (1-eps) rho + eps Phi_A(rho)."""
    if not 0.0 <= eps <= 1.0:
        raise OutOfRange(f"monitoring strength must be in [0, 1], got {eps}")
    _require_same_space(rho, a)
    mixed = (1.0 - eps) * rho.matrix + eps * phi_map(rho.matrix, a)
    return DensityMatrix(mixed, rho.dims)


def has_reality(rho: DensityMatrix, a: Observable, tol: float = REALITY_TOL) -> bool:
    """True iff the measurement of `a` leaves rho unchanged in trace norm."""
    _require_same_space(rho, a)
    return linalg.schatten_norm(rho.matrix - phi_map(rho.matrix, a), 1.0) <= tol


@dataclass(frozen=True, eq=False)
class DilationSetup:
    """A system-environment unitary realizing a measurement channel.

    Tracing the environment out of U (rho (x) |e0><e0|) U^dag gives the
    non-selective measurement of the observable, and U leaves
    Phi_A(rho) (x) 1/d_E invariant.
    """

    system_state: DensityMatrix
    observable: Observable
    environment_dim: int
    unitary: np.ndarray
    env_ground: int = 0


def _shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift X |e_k> = |e_{k+1 mod d}>."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def build_dilation(
    rho: DensityMatrix, a: Observable, env_ground: int = 0
) -> DilationSetup:
    """Construct the shift-register dilation U = sum_a P_a (x) X^a.

    Requires rank-1 projectors on the measured subsystem, so the number of
    outcomes equals both the subsystem dimension and the environment
    dimension.  The returned unitary is verified against the reduction and
    invariance contracts.
    """
    _require_same_space(rho, a)
    d_e = a.outcomes
    if d_e != a.subsystem_dim:
        raise DimensionMismatch(
            f"dilation needs rank-1 projectors: {d_e} outcomes on a "
            f"{a.subsystem_dim}-dim subsystem"
        )
    if not 0 <= env_ground < d_e:
        raise OutOfRange(f"env_ground must be in [0, {d_e}), got {env_ground}")

    shift = _shift_matrix(d_e)
    d_s = rho.dim
    u = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
    power = np.eye(d_e, dtype=complex)
    for p_full in a.full_projectors:
        u += np.kron(p_full, power)
        power = shift @ power

    if np.abs(u.conj().T @ u - np.eye(d_s * d_e)).max() > UNITARY_TOL:
        raise DimensionMismatch("constructed dilation is not unitary")

    setup = DilationSetup(rho, a, d_e, _frozen(u), env_ground)
    reduction = dilation_reduction_residual(setup)
    invariance = dilation_invariance_residual(setup)
    if reduction > DILATION_TOL or invariance > DILATION_TOL:
        raise DimensionMismatch(
            f"dilation contract violated: reduction {reduction:.3e}, "
            f"invariance {invariance:.3e}"
        )
    return setup


def evolve(setup: DilationSetup) -> tuple[DensityMatrix, DensityMatrix]:
    """Global states before and after the measurement interaction.

    Returns (Omega_0, Omega_t) with Omega_0 = rho (x) |e0><e0| and
    Omega_t = U Omega_0 U^dag, both on dims = system dims + (d_E,).
    """
    rho = setup.system_state
    d_e = setup.environment_dim
    ground = np.zeros((d_e, d_e), dtype=complex)
    ground[setup.env_ground, setup.env_ground] = 1.0
    dims = rho.dims + (d_e,)
    omega0 = np.kron(rho.matrix, ground)
    omega_t = setup.unitary @ omega0 @ setup.unitary.conj().T
    return DensityMatrix(omega0, dims), DensityMatrix(omega_t, dims)


def dilation_reduction_residual(setup: DilationSetup) -> float:
    """Max entrywise |Tr_E[U (rho (x) |e0><e0|) U^dag] - Phi_A(rho)|."""
    rho = setup.system_state
    d_e = setup.environment_dim
    ground = np.zeros((d_e, d_e), dtype=complex)
    ground[setup.env_ground, setup.env_ground] = 1.0
    omega_t = setup.unitary @ np.kron(rho.matrix, ground) @ setup.unitary.conj().T
    n_sys = len(rho.dims)
    reduced = linalg.partial_trace(omega_t, rho.dims + (d_e,), range(n_sys))
    return float(np.abs(reduced - phi_map(rho.matrix, setup.observable)).max())


def dilation_invariance_residual(setup: DilationSetup) -> float:
    """Max entrywise |U (Phi_A(rho) (x) 1/d_E) U^dag - Phi_A(rho) (x) 1/d_E|."""
    rho = setup.system_state
    d_e = setup.environment_dim
    fixed = np.kron(
        phi_map(rho.matrix, setup.observable), np.eye(d_e, dtype=complex) / d_e
    )
    moved = setup.unitary @ fixed @ setup.unitary.conj().T
    return float(np.abs(moved - fixed).max())
