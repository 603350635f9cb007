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
from .channels import build_dilation, phi_map
from .errors import OutOfRange
from .realism import _deltas, _dilated_deltas
from .states import random_density, random_observables

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


def _instances(seed, block, max_d_a=3):
    """Trial i's (rho, A) for each i of the block, drawn at seed + i, with
    the block's observables drawn in one call."""
    dims = [(2 + (i % (max_d_a - 1)), 2 + (i % 2)) for i in block]
    observables = random_observables(
        (d_a, seed + i + 50021, 0, (d_a, d_b)) for i, (d_a, d_b) in zip(block, dims))
    return [
        (random_density(d_a * d_b, d_a * d_b - (i % 2), seed + i, dims=(d_a, d_b)), a)
        for i, (d_a, d_b), a in zip(block, dims, observables)
    ]


def _pinching_group(seed, block):
    """Pinching trace identity Tr(rho f(Phi(sigma))) = Tr(Phi(rho) f(Phi(sigma)))
    for each f, and the Hilbert-Schmidt purity loss
    ||rho||_2^2 - ||Phi(rho)||_2^2 = ||rho - Phi(rho)||_2^2; f(Phi(sigma))
    and the norms of the block are evaluated as one stack per dimension."""
    rhos, phis, phi_sigmas = [], [], []
    for i, (rho, a) in zip(block, _instances(seed, block)):
        sigma = random_density(rho.dim, rho.dim, seed + i + 777, dims=rho.dims)
        rhos.append(rho.matrix)
        phis.append(phi_map(rho.matrix, a))
        phi_sigmas.append(phi_map(sigma.matrix, a))
    f_phi_sigmas = [
        linalg.stackwise(lambda m, f=f: linalg.matrix_function(m, f, clip_psd=True), phi_sigmas)
        for f in _PINCHING_FUNCTIONS.values()
    ]
    norms = [
        linalg.stackwise(lambda m: linalg.schatten_norm(m, 2).tolist(), ms)
        for ms in (rhos, phis, [rho - phi for rho, phi in zip(rhos, phis)])
    ]
    for n, (rho, phi) in enumerate(zip(rhos, phis)):
        for fname, f_phi_sigma in zip(_PINCHING_FUNCTIONS, f_phi_sigmas):
            lhs = np.trace(rho @ f_phi_sigma[n])
            rhs = np.trace(phi @ f_phi_sigma[n])
            yield f"pinching_trace_identity_{fname}", abs(complex(lhs - rhs))
        norm_rho, norm_phi, norm_diff = (norm[n] for norm in norms)
        yield "hs_purity_loss_identity", abs(norm_rho**2 - norm_phi**2 - norm_diff**2)


def _closed_form_group(seed, block):
    """Closed-form against full-dilation information gain for each kind:
    one _deltas pass for the closed forms of the block, and per instance
    one dilation, whose Omega_0 and Omega_t are evaluated as one 2-stack.
    The block's dilations are not stacked: its 48 x 48 Omegas in one stack
    saved about 0.1 s of an audit-200 plus verify-100 pass but raised its
    peak RSS from 41.2 to 44.6 MB."""
    instances = _instances(seed, block, max_d_a=4)
    kinds = [metrics.parse_kind(token) for token in ("tr", "hs", "bu", "he", "lp1.5", "lp3")]
    for (rho, a), closed_forms in zip(instances, _deltas(instances, kinds)):
        for kind, closed, full in zip(kinds, closed_forms, _dilated_deltas(rho, a, kinds)):
            yield f"information_gain_closed_form_{kind.token()}", abs(closed - full)


def _divergence_pairs(seed, block, deficient):
    """Trial i's (rho, sigma) at dimension d = 2 + i % 3; when deficient,
    sigma has rank d - 1 on odd trials (but at least 1)."""
    pairs = []
    for i in block:
        d = 2 + (i % 3)
        rank = max(1, d - (i % 2)) if deficient else d
        pairs.append((random_density(d, d, seed + i).matrix,
                      random_density(d, rank, seed + i + 104729).matrix))
    return pairs


def _renyi_group(seed, block):
    """d_Bu^2 = 2 - 2 exp(-D~_1/2 / 2) and d_He^2 = 2 - 2 exp(-D_1/2 / 2),
    from one stacked pass of distances and one of divergences."""
    pairs = _divergence_pairs(seed, block, deficient=True)
    distances = metrics._stacked(
        metrics._powered_distances, [metrics.BURES, metrics.HELLINGER], pairs)
    divergences = metrics._stacked(
        metrics._divergences, [metrics.sandwiched_renyi(0.5), metrics.renyi(0.5)], pairs)
    for squares, halves in zip(distances, divergences):
        for name, distance_sq, div in zip(
            ("bures_from_sandwiched_renyi_half", "hellinger_from_renyi_half"), squares, halves
        ):
            yield name, abs(distance_sq - (2.0 - 2.0 * np.exp(-0.5 * div)))


def _limit_group(seed, block):
    """Both Renyi divergences tend to the relative entropy as alpha -> 1;
    the relative entropy and the four orders near 1 come from one pass."""
    pairs = _divergence_pairs(seed, block, deficient=False)
    orders = [make(alpha) for make in (metrics.renyi, metrics.sandwiched_renyi)
              for alpha in (1.0 - 1e-4, 1.0 + 1e-4)]
    for reference, *values in metrics._stacked(
            metrics._divergences, [metrics.VON_NEUMANN, *orders], pairs):
        for kind, value in zip(orders, values):
            name = "renyi" if kind.family == "renyi" else "sandwiched"
            yield f"{name}_limit_to_relative_entropy", abs(value - reference)


def _dilation_group(seed, block):
    """The dilation's reduction and invariance contracts, read from each
    instance's dilation, which checks them when it is built; the block's
    instances are drawn at once."""
    for rho, a in _instances(seed, block, max_d_a=4):
        reduction, invariance = build_dilation(rho, a).residuals
        yield "dilation_reduction", reduction
        yield "dilation_invariance", invariance


# Each group takes a block of trials, draws trial i's instances once at
# seed + i (the group's own offset from the run's seed is in the seed it
# gets) and yields (identity, residual) for every identity it checks,
# trial by trial.
_GROUPS = (
    (0, _pinching_group),
    (1000, _closed_form_group),
    (2000, _renyi_group),
    (3000, _limit_group),
    (4000, _dilation_group),
)


def _max_residuals(group, trials, seed) -> dict[str, float]:
    """The worst residual of each of the group's identities over the
    trials, taken TRIAL_BLOCK trials at a time."""
    worst = {}
    for block in metrics._trial_blocks(range(trials)):
        for identity, residual in group(seed, block):
            worst[identity] = max(worst.get(identity, 0.0), residual)
    return worst


def run_verify(trials: int, seed: int) -> dict:
    """Run the whole identity suite; one row per identity.  A trial count
    below 1 or a negative seed raises OutOfRange."""
    if trials < 1:
        raise OutOfRange(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise OutOfRange(f"seed must be at least 0, got {seed}")
    rows = []
    for offset, group in _GROUPS:
        for identity, residual in _max_residuals(group, trials, seed + offset).items():
            tolerance = _TOLERANCES.get(identity, DEFAULT_TOL)
            rows.append({"identity": identity, "trials": trials, "max_residual": float(residual),
                         "tolerance": tolerance, "pass": bool(residual < tolerance)})
    return {"seed": seed, "trials": trials, "identities": rows, "pass": all(r["pass"] for r in rows)}
