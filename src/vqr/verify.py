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
from .channels import (
    build_dilation,
    dilation_invariance_residual,
    dilation_reduction_residual,
    phi_map,
)
from .realism import (
    delta_conditional_information,
    delta_conditional_information_dilated,
)
from .states import random_density, random_observable

DEFAULT_TOL = 1e-9
LIMIT_TOL = 1e-3

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


def _pinching_identity_residual(fname, trials, seed):
    f = _PINCHING_FUNCTIONS[fname]
    worst = 0.0
    for i in range(trials):
        s = seed + i
        rho, a = _instance(s, i)
        sigma = random_density(rho.dim, rho.dim, s + 777, dims=rho.dims)
        f_phi_sigma = linalg.matrix_function(phi_map(sigma.matrix, a), f, clip_psd=True)
        lhs = np.trace(rho.matrix @ f_phi_sigma)
        rhs = np.trace(phi_map(rho.matrix, a) @ f_phi_sigma)
        worst = max(worst, abs(complex(lhs - rhs)))
    return worst


def _purity_loss_residual(trials, seed):
    worst = 0.0
    for i in range(trials):
        s = seed + i
        rho, a = _instance(s, i)
        phi = phi_map(rho.matrix, a)
        lhs = (
            linalg.schatten_norm(rho.matrix, 2) ** 2
            - linalg.schatten_norm(phi, 2) ** 2
        )
        rhs = linalg.schatten_norm(rho.matrix - phi, 2) ** 2
        worst = max(worst, abs(lhs - rhs))
    return worst


def _closed_form_residual(kind, trials, seed):
    worst = 0.0
    for i in range(trials):
        s = seed + i
        rho, a = _instance(s, i, max_d_a=4)
        closed = delta_conditional_information(rho, a, kind)
        full = delta_conditional_information_dilated(rho, a, kind)
        worst = max(worst, abs(closed - full))
    return worst


def _renyi_identity_residual(which, trials, seed):
    worst = 0.0
    for i in range(trials):
        s = seed + i
        d = 2 + (i % 3)
        rho = random_density(d, d, s)
        sigma = random_density(d, max(1, d - (i % 2)), s + 104729)
        if which == "bures":
            lhs = metrics.bures_distance_sq(rho, sigma)
            div = metrics.sandwiched_renyi_divergence(rho, sigma, 0.5)
        else:
            lhs = metrics.hellinger_distance_sq(rho, sigma)
            div = metrics.renyi_divergence(rho, sigma, 0.5)
        rhs = 2.0 - 2.0 * np.exp(-0.5 * div)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _alpha_limit_residual(which, trials, seed):
    fn = (
        metrics.renyi_divergence
        if which == "renyi"
        else metrics.sandwiched_renyi_divergence
    )
    worst = 0.0
    for i in range(trials):
        s = seed + i
        d = 2 + (i % 3)
        rho = random_density(d, d, s)
        sigma = random_density(d, d, s + 104729)
        reference = metrics.relative_entropy(rho, sigma)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            worst = max(worst, abs(fn(rho, sigma, alpha) - reference))
    return worst


def _dilation_residual(which, trials, seed):
    worst = 0.0
    for i in range(trials):
        s = seed + i
        rho, a = _instance(s, i, max_d_a=4)
        setup = build_dilation(rho, a)
        if which == "reduction":
            worst = max(worst, dilation_reduction_residual(setup))
        else:
            worst = max(worst, dilation_invariance_residual(setup))
    return worst


def run_verify(trials: int, seed: int) -> dict:
    """Run the whole identity suite; one row per identity."""
    rows = []

    def add(identity, residual, tolerance=DEFAULT_TOL, n=None):
        rows.append(
            {
                "identity": identity,
                "trials": trials if n is None else n,
                "max_residual": float(residual),
                "tolerance": tolerance,
                "pass": bool(residual < tolerance),
            }
        )

    for fname in _PINCHING_FUNCTIONS:
        add(f"pinching_trace_identity_{fname}", _pinching_identity_residual(fname, trials, seed))
    add("hs_purity_loss_identity", _purity_loss_residual(trials, seed))
    for token in ("tr", "hs", "bu", "he", "lp1.5", "lp3"):
        add(
            f"information_gain_closed_form_{token}",
            _closed_form_residual(metrics.parse_kind(token), trials, seed + 1000),
        )
    add("bures_from_sandwiched_renyi_half", _renyi_identity_residual("bures", trials, seed + 2000))
    add("hellinger_from_renyi_half", _renyi_identity_residual("hellinger", trials, seed + 2000))
    add(
        "renyi_limit_to_relative_entropy",
        _alpha_limit_residual("renyi", trials, seed + 3000),
        tolerance=LIMIT_TOL,
    )
    add(
        "sandwiched_limit_to_relative_entropy",
        _alpha_limit_residual("sandwiched", trials, seed + 3000),
        tolerance=LIMIT_TOL,
    )
    add("dilation_reduction", _dilation_residual("reduction", trials, seed + 4000), 1e-10)
    add("dilation_invariance", _dilation_residual("invariance", trials, seed + 4000), 1e-10)

    return {
        "seed": seed,
        "trials": trials,
        "identities": rows,
        "pass": all(r["pass"] for r in rows),
    }
