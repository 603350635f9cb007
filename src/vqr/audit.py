"""Axiom audit for the realism quantifiers.

Runs seeded empirical checks of the four monotone axioms (measurement
monotonicity, part discard, uncorrelated part, uncertainty-type bound,
mixing) for each distance kind, alongside the distance-property checks,
and compares the outcome against the nominal reference pattern.

The nominal pattern marks the Hilbert-Schmidt quantifier as passing the
part-discard axiom.  That cell is not attainable: attaching an
uncorrelated mixed bystander scales the squared Hilbert-Schmidt gain by
the bystander's purity, so discarding the bystander reverses that and
lowers the quantifier.  The audit reports the counterexample and flags
the cell as a known deviation from the nominal table.
"""

from __future__ import annotations

import numpy as np

from . import metrics
from .channels import has_reality, measure_nonselective, monitor
from .metrics import DistanceKind, check_distance_properties, expected_distance_properties
from .realism import TOL_VQR, delta_conditional_information, realism_max
from .states import (
    DensityMatrix,
    random_density,
    random_observable,
    spin_observable,
    werner,
)

AXIOMS = ("axiom1", "axiom2a", "axiom2b", "axiom3", "axiom4")
AUDIT_KINDS = ("tr", "hs", "lp3", "bu", "he")

# Nominal expected verdicts per (kind, axiom): the published check/cross
# pattern.  "?" cells for general L_p are audited empirically only.
NOMINAL_PATTERN = {
    "tr": {
        "axiom1": "counterexample",
        "axiom2a": "pass",
        "axiom2b": "pass",
        "axiom3": "counterexample",
        "axiom4": "pass",
    },
    "hs": {
        "axiom1": "pass",
        "axiom2a": "pass",
        "axiom2b": "counterexample",
        "axiom3": "pass",
        "axiom4": "pass",
    },
    "lp3": {
        "axiom1": "unverified",
        "axiom2a": "unverified",
        "axiom2b": "counterexample",
        "axiom3": "unverified",
        "axiom4": "pass",
    },
    "bu": {a: "pass" for a in AXIOMS},
    "he": {a: "pass" for a in AXIOMS},
}

# Cells whose honest empirical verdict is known to differ from the nominal
# pattern, with the reason.  See module docstring.
KNOWN_DEVIATIONS = {
    ("hs", "axiom2a"): (
        "discarding an uncorrelated mixed bystander lowers the quantifier: "
        "d_HS^2(rho (x) sigma, Phi(rho) (x) sigma) = d_HS^2(rho, Phi(rho)) "
        "* Tr(sigma^2) < d_HS^2(rho, Phi(rho)) for mixed sigma"
    ),
}

# L_p axiom cells are audited without an established verdict; their
# empirical outcome is reported under the "unverified" tag.
UNVERIFIED_CELLS = {("lp3", "axiom1"), ("lp3", "axiom2a"), ("lp3", "axiom3")}

_CHAIN_TOL = 1e-10
_EQUALITY_TOL = 1e-10
_SUM_TOL = 1e-9


def _delta(rho, a, kind):
    return delta_conditional_information(rho, a, kind)


# --------------------------------------------------------------------------
# Per-axiom counterexample searches.  Each returns (witness, seed) for the
# first violation found, or (None, None).
# --------------------------------------------------------------------------


def _bipartite_instance(seed, i):
    dims = [(2, 2), (2, 3), (3, 2)][i % 3]
    d = dims[0] * dims[1]
    rho = random_density(d, d - (i % 2), seed, dims=dims)
    a = random_observable(dims[0], seed + 50021, subsystem=0, dims=dims)
    return rho, a


def _check_axiom1(kind: DistanceKind, seed: int, trials: int):
    def probe(rho, a, label, probe_seed):
        rng = np.random.default_rng(probe_seed + 11)
        eps = float(rng.uniform())
        d_rho = _delta(rho, a, kind)
        d_mon = _delta(monitor(rho, a, eps), a, kind)
        d_phi = _delta(measure_nonselective(rho, a), a, kind)
        if d_rho > realism_max(kind, a.outcomes) + _CHAIN_TOL:
            return f"{label}: realism negative (delta {d_rho:.6g} > r_max)"
        if d_mon > d_rho + _CHAIN_TOL or d_phi > d_mon + _CHAIN_TOL:
            return f"{label}: monitoring chain not monotone"
        if abs(d_phi) > _CHAIN_TOL:
            return f"{label}: measured state not at maximum realism"
        if d_rho <= TOL_VQR and not has_reality(rho, a, tol=1e-8):
            return (
                f"{label}: maximum realism reached although the state is not "
                "invariant under measurement"
            )
        return None

    for eps in (0.2, 0.05, 0.1, 0.15, 0.25, 0.3):
        obs = spin_observable(0.0, 0.0, subsystem=0, dims=(2, 2))
        witness = probe(werner(eps), obs, f"werner({eps:g}) with sigma_z", seed)
        if witness:
            return witness, -1
    for i in range(trials):
        s = seed + i
        rho, a = _bipartite_instance(s, i)
        witness = probe(rho, a, f"random bipartite (trial {i})", s)
        if witness:
            return witness, s
    return None, None


def _check_axiom2a(kind: DistanceKind, seed: int, trials: int):
    # Structured probe: an uncorrelated mixed bystander, then discard it.
    rho = random_density(4, 4, seed + 1, dims=(2, 2))
    sigma = random_density(2, 2, seed + 2)
    big = DensityMatrix(np.kron(rho.matrix, sigma.matrix), (2, 2, 2))
    a_small = random_observable(2, seed + 3, subsystem=0, dims=(2, 2))
    a_big = a_small.scoped((2, 2, 2), 0)
    if _delta(rho, a_small, kind) > _delta(big, a_big, kind) + _CHAIN_TOL:
        return "product state rho_AB (x) sigma with mixed sigma, discard sigma", -1

    dimsets = [(2, 2, 2), (3, 2, 2), (2, 3, 2)]
    for i in range(trials):
        s = seed + i
        dims = dimsets[i % 3]
        d = int(np.prod(dims))
        rho = random_density(d, d - (i % 2), s, dims=dims)
        a = random_observable(dims[0], s + 50021, subsystem=0, dims=dims)
        reduced = rho.reduced((0, 1))
        a_red = a.scoped(dims[:2], 0)
        if _delta(reduced, a_red, kind) > _delta(rho, a, kind) + _CHAIN_TOL:
            return f"random tripartite state, dims {dims} (trial {i})", s
    return None, None


def _check_axiom2b(kind: DistanceKind, seed: int, trials: int):
    for i in range(trials):
        s = seed + i
        rho, a = _bipartite_instance(s, i)
        sigma = random_density(2, 2, s + 60013)
        big = DensityMatrix(np.kron(rho.matrix, sigma.matrix), rho.dims + (2,))
        a_big = a.scoped(rho.dims + (2,), a.subsystem)
        if abs(_delta(big, a_big, kind) - _delta(rho, a, kind)) > _EQUALITY_TOL:
            return f"attach uncorrelated mixed qubit (trial {i})", s
    return None, None


def _forbidden_saturation(kind, rho, x, y, r_max):
    total = 2 * r_max - _delta(rho, x, kind) - _delta(rho, y, kind)
    if total > 2 * r_max + _SUM_TOL:
        return "sum exceeds twice the maximum"
    if abs(total - 2 * r_max) > _SUM_TOL:
        return None
    commutator = np.abs(x.operator() @ y.operator() - y.operator() @ x.operator()).max()
    d_a = x.subsystem_dim
    rest = [k for k in range(len(rho.dims)) if k != x.subsystem]
    rho_b = rho.reduced(rest).matrix
    product = np.kron(np.eye(d_a, dtype=complex) / d_a, rho_b)
    if commutator <= 1e-9 or metrics.trace_distance(rho.matrix, product) <= 1e-9:
        return None
    return "saturation with non-commuting observables on a correlated state"


def _check_axiom3(kind: DistanceKind, seed: int, trials: int):
    r_max = realism_max(kind, 2)
    x = spin_observable(0.0, 0.0, subsystem=0, dims=(2, 2))
    y = spin_observable(0.0, np.pi / 2, subsystem=0, dims=(2, 2))
    reason = _forbidden_saturation(kind, werner(0.2), x, y, r_max)
    if reason:
        return f"werner(0.2) with sigma_z and sigma_x: {reason}", -1
    for i in range(trials):
        s = seed + i
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        d = dims[0] * dims[1]
        rho = random_density(d, d - (i % 3 == 0), s, dims=dims)
        rng = np.random.default_rng(s + 70001)
        x = spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, dims)
        y = spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, dims)
        reason = _forbidden_saturation(kind, rho, x, y, r_max)
        if reason:
            return f"random qubit pair (trial {i}): {reason}", s
    return None, None


def _check_axiom4(kind: DistanceKind, seed: int, trials: int):
    for i in range(trials):
        s = seed + i
        rng = np.random.default_rng(s + 80021)
        n = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(n))
        parts = [random_density(4, 4, s + 90001 + j, dims=(2, 2)) for j in range(n)]
        a = random_observable(2, s + 90500, subsystem=0, dims=(2, 2))
        mixture = DensityMatrix(
            sum(p * r.matrix for p, r in zip(probs, parts)), (2, 2)
        )
        lhs = _delta(mixture, a, kind)
        rhs = sum(p * _delta(r, a, kind) for p, r in zip(probs, parts))
        if lhs > rhs + _SUM_TOL:
            return f"ensemble of {n} random states (trial {i})", s
    return None, None


_AXIOM_CHECKS = {
    "axiom1": _check_axiom1,
    "axiom2a": _check_axiom2a,
    "axiom2b": _check_axiom2b,
    "axiom3": _check_axiom3,
    "axiom4": _check_axiom4,
}


def run_axiom_cell(kind_token: str, axiom: str, trials: int, seed: int) -> dict:
    """Audit a single (kind, axiom) cell and return its row."""
    kind = metrics.parse_kind(kind_token)
    cell_seed = seed + 1_000_000 * (AXIOMS.index(axiom) + 1)
    witness, witness_seed = _AXIOM_CHECKS[axiom](kind, cell_seed, trials)
    empirical = "counterexample" if witness else "pass"
    verdict = "unverified" if (kind_token, axiom) in UNVERIFIED_CELLS else empirical
    row = {
        "kind": kind_token,
        "axiom": axiom,
        "verdict": verdict,
        "empirical": empirical,
        "witness_seed": witness_seed,
        "witness": witness,
    }
    expected = NOMINAL_PATTERN[kind_token][axiom]
    row["expected"] = expected
    row["matches_nominal"] = verdict == expected
    if (kind_token, axiom) in KNOWN_DEVIATIONS:
        row["known_deviation"] = KNOWN_DEVIATIONS[(kind_token, axiom)]
    return row


# Table of distance-property columns audited against the published
# property table: family token and the power to test.
PROPERTY_COLUMNS = (
    ("tr", None),
    ("hs", 1.0),
    ("hs", 2.0),
    ("lp3", 1.0),
    ("lp3", 3.0),
    ("bu", 1.0),
    ("bu", 2.0),
    ("he", 1.0),
    ("he", 2.0),
)


def run_property_table(trials: int, seed: int) -> list[dict]:
    """Audit the distance-property pattern for each tabulated column."""
    rows = []
    for token, power in PROPERTY_COLUMNS:
        kind = metrics.parse_kind(token)
        if power is not None:
            kind = kind.with_power(power)
        expected = expected_distance_properties(kind)
        for report in check_distance_properties(kind, trials, seed):
            rows.append(
                {
                    **report.to_json(),
                    "expected_pass": expected[report.property],
                    "matches_nominal": report.passed == expected[report.property],
                }
            )
    return rows


def run_audit(trials: int, seed: int, property_trials: int | None = None) -> dict:
    """Full audit: all (kind, axiom) cells plus the distance-property table.

    pattern_match is true only when every axiom verdict equals the nominal
    table and every property outcome equals the published property table;
    the known part-discard deviation therefore makes it false.
    """
    axiom_rows = [
        run_axiom_cell(kind, axiom, trials, seed)
        for kind in AUDIT_KINDS
        for axiom in AXIOMS
    ]
    property_rows = run_property_table(
        trials if property_trials is None else property_trials, seed
    )
    mismatches = [
        {"kind": r["kind"], "axiom": r["axiom"], "verdict": r["verdict"], "expected": r["expected"]}
        for r in axiom_rows
        if not r["matches_nominal"]
    ] + [
        {"kind": r["kind"], "property": r["property"], "expected_pass": r["expected_pass"]}
        for r in property_rows
        if not r["matches_nominal"]
    ]
    return {
        "seed": seed,
        "trials": trials,
        "axioms": axiom_rows,
        "properties": property_rows,
        "mismatches": mismatches,
        "pattern_match": not mismatches,
    }
