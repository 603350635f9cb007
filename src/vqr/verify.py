"""Identity-verification suite.

Checks, over seeded random instances, the algebraic identities the realism
machinery rests on: the measurement-pinching trace identity, the
Hilbert-Schmidt purity-loss identity, the closed-form/full-space agreement
of the information gain for every distance kind, the Renyi expressions of
the squared Bures and Hellinger distances, the divergences' limit toward
relative entropy, and the dilation reduction/invariance contracts.

Each identity yields one row with the maximum residual over its trials and
its own tolerance.
"""

from __future__ import annotations

import numpy as np

from . import linalg, metrics
from .channels import build_dilation, dilation_residuals, phi_map
from .errors import OutOfRange
from .realism import _deltas, _dilated_deltas
from .states import random_density, random_observable

DEFAULT_TOL = 1e-9
LIMIT_TOL = 1e-3

# Identities checked against a tolerance other than DEFAULT_TOL.
_TOLERANCES = {
    "renyi_limit_to_relative_entropy": LIMIT_TOL,
    "sandwiched_limit_to_relative_entropy": LIMIT_TOL,
    "dilation_reduction": 1e-10,
    "dilation_invariance": 1e-10,
}

_PINCHING_FUNCTIONS = {
    "identity": lambda w: w,
    "square": lambda w: w**2,
    "sqrt": np.sqrt,
    "exp": np.exp,
}


def _instance(seed, i, max_d_a=3):
    d_a = 2 + (i % (max_d_a - 1))
    d_b = 2 + (i % 2)
    d = d_a * d_b
    rho = random_density(d, d - (i % 2), seed, dims=(d_a, d_b))
    a = random_observable(d_a, seed + 50021, subsystem=0, dims=(d_a, d_b))
    return rho, a


def _pinching_group(s, i):
    """Pinching trace identity Tr(rho f(Phi(sigma))) = Tr(Phi(rho) f(Phi(sigma)))
    for each f, and the Hilbert-Schmidt purity loss
    ||rho||_2^2 - ||Phi(rho)||_2^2 = ||rho - Phi(rho)||_2^2."""
    rho, a = _instance(s, i)
    sigma = random_density(rho.dim, rho.dim, s + 777, dims=rho.dims)
    phi = phi_map(rho.matrix, a)
    phi_sigma = phi_map(sigma.matrix, a)
    for fname, f in _PINCHING_FUNCTIONS.items():
        f_phi_sigma = linalg.matrix_function(phi_sigma, f, clip_psd=True)
        lhs = np.trace(rho.matrix @ f_phi_sigma)
        rhs = np.trace(phi @ f_phi_sigma)
        yield f"pinching_trace_identity_{fname}", abs(complex(lhs - rhs))
    lhs = linalg.schatten_norm(rho.matrix, 2) ** 2 - linalg.schatten_norm(phi, 2) ** 2
    rhs = linalg.schatten_norm(rho.matrix - phi, 2) ** 2
    yield "hs_purity_loss_identity", abs(lhs - rhs)


def _closed_form_group(s, i):
    """Closed-form against full-dilation information gain for each kind."""
    rho, a = _instance(s, i, max_d_a=4)
    kinds = [metrics.parse_kind(token) for token in ("tr", "hs", "bu", "he", "lp1.5", "lp3")]
    closed_forms = _deltas([(rho, a)], kinds)[0]
    for kind, closed, full in zip(kinds, closed_forms, _dilated_deltas(rho, a, kinds)):
        yield f"information_gain_closed_form_{kind.token()}", abs(closed - full)


def _renyi_group(s, i):
    """d_Bu^2 = 2 - 2 exp(-D~_1/2 / 2) and d_He^2 = 2 - 2 exp(-D_1/2 / 2)."""
    d = 2 + (i % 3)
    rho = random_density(d, d, s)
    sigma = random_density(d, max(1, d - (i % 2)), s + 104729)
    for name, distance_sq, div in (
        ("bures_from_sandwiched_renyi_half", metrics.bures_distance_sq,
         metrics.sandwiched_renyi_divergence),
        ("hellinger_from_renyi_half", metrics.hellinger_distance_sq, metrics.renyi_divergence),
    ):
        rhs = 2.0 - 2.0 * np.exp(-0.5 * div(rho, sigma, 0.5))
        yield name, abs(distance_sq(rho, sigma) - rhs)


def _limit_group(s, i):
    """Both Renyi divergences tend to the relative entropy as alpha -> 1."""
    d = 2 + (i % 3)
    rho = random_density(d, d, s)
    sigma = random_density(d, d, s + 104729)
    reference = metrics.relative_entropy(rho, sigma)
    for name, div in (
        ("renyi_limit_to_relative_entropy", metrics.renyi_divergence),
        ("sandwiched_limit_to_relative_entropy", metrics.sandwiched_renyi_divergence),
    ):
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            yield name, abs(div(rho, sigma, alpha) - reference)


def _dilation_group(s, i):
    """The dilation's reduction and invariance contracts."""
    rho, a = _instance(s, i, max_d_a=4)
    reduction, invariance = dilation_residuals(build_dilation(rho, a))
    yield "dilation_reduction", reduction
    yield "dilation_invariance", invariance


# Each group draws trial i's instances once, at its own offset from the
# seed, and yields (identity, residual) for every identity it checks.
_GROUPS = (
    (0, _pinching_group),
    (1000, _closed_form_group),
    (2000, _renyi_group),
    (3000, _limit_group),
    (4000, _dilation_group),
)


def _max_residuals(group, trials, seed) -> dict[str, float]:
    """The worst residual of each of the group's identities over the trials."""
    worst = {}
    for i in range(trials):
        for identity, residual in group(seed + i, i):
            worst[identity] = max(worst.get(identity, 0.0), residual)
    return worst


def run_verify(trials: int, seed: int) -> dict:
    """Run the whole identity suite; one row per identity.  A trial count
    below 1 raises OutOfRange."""
    if trials < 1:
        raise OutOfRange(f"trials must be at least 1, got {trials}")
    rows = []
    for offset, group in _GROUPS:
        for identity, residual in _max_residuals(group, trials, seed + offset).items():
            tolerance = _TOLERANCES.get(identity, DEFAULT_TOL)
            rows.append({"identity": identity, "trials": trials, "max_residual": float(residual),
                         "tolerance": tolerance, "pass": bool(residual < tolerance)})
    return {"seed": seed, "trials": trials, "identities": rows, "pass": all(r["pass"] for r in rows)}
