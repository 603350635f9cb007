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
from .errors import OutOfRange
from .realism import TOL_VQR, gains, realism_max
from .states import (
    DensityMatrix,
    random_density,
    random_observable,
    random_observables,
    spin_observable,
    werner,
)
from .trials import (
    expected_distance_properties,
    property_reports,
    random_instances,
    require_trials,
    trial_blocks,
)

AXIOMS = ("axiom1", "axiom2a", "axiom2b", "axiom3", "axiom4")
AUDIT_KINDS = ("tr", "hs", "lp3", "bu", "he")

# Nominal expected verdicts per (kind, axiom): the published check/cross
# pattern.  The "unverified" L_p cells are audited without an established
# verdict; their empirical outcome is reported under that tag.
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

_CHAIN_TOL = 1e-10
_EQUALITY_TOL = 1e-10
_SUM_TOL = 1e-9
# The dims cycle of the trials of the bipartite searches.
_BIPARTITE = ((2, 2), (2, 3), (3, 2))


# --------------------------------------------------------------------------
# Per-axiom counterexample searches.  Each yields the axiom's cases in
# order as (seed, (witness, pairs)): the seed reported with a witness (-1
# for a structured probe), the case's (state, observable) pairs, and
# witness(kind, *gains), which judges the gains of those pairs for one kind
# and returns a witness or None.
# --------------------------------------------------------------------------


def _monitoring_chain(rho, a, label, probe_seed):
    eps = float(np.random.default_rng(probe_seed + 11).uniform())
    monitored = monitor(rho, a, eps)
    measured = measure_nonselective(rho, a)

    def witness(kind, d_rho, d_mon, d_phi):
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

    return witness, ((rho, a), (monitored, a), (measured, a))


def _axiom1_cases(seed, trials):
    obs = spin_observable(0.0, 0.0, subsystem=0, dims=(2, 2))
    for eps in (0.2, 0.05, 0.1, 0.15, 0.25, 0.3):
        yield -1, _monitoring_chain(werner(eps), obs, f"werner({eps:g}) with sigma_z", seed)
    for block in trial_blocks(range(trials)):
        for i, (rho, a) in zip(block, random_instances(seed, block, _BIPARTITE)):
            s = seed + i
            yield s, _monitoring_chain(rho, a, f"random bipartite (trial {i})", s)


def _bystander(label, small, big, two_sided=False):
    """Witness `label` when discarding the bystander, from the (state,
    observable) pair `big` to `small`, raises the gain or, two-sided,
    changes it at all."""
    def witness(kind, d_small, d_big):
        if two_sided:
            return label if abs(d_big - d_small) > _EQUALITY_TOL else None
        return label if d_small > d_big + _CHAIN_TOL else None

    return witness, (small, big)


def _axiom2a_cases(seed, trials):
    # Structured probe: an uncorrelated mixed bystander, then discard it.
    rho = random_density(4, 4, seed + 1, dims=(2, 2))
    sigma = random_density(2, 2, seed + 2)
    big = DensityMatrix(np.kron(rho.matrix, sigma.matrix), (2, 2, 2))
    a_small = random_observable(2, seed + 3, subsystem=0, dims=(2, 2))
    label = "product state rho_AB (x) sigma with mixed sigma, discard sigma"
    big_pair = (big, a_small.scoped((2, 2, 2), 0))
    yield -1, _bystander(label, (rho, a_small), big_pair)

    for block in trial_blocks(range(trials)):
        instances = random_instances(seed, block, ((2, 2, 2), (3, 2, 2), (2, 3, 2)))
        for i, (rho, a) in zip(block, instances):
            label = f"random tripartite state, dims {rho.dims} (trial {i})"
            small = (rho.reduced((0, 1)), a.scoped(rho.dims[:2], 0))
            yield seed + i, _bystander(label, small, (rho, a))


def _axiom2b_cases(seed, trials):
    for block in trial_blocks(range(trials)):
        for i, (rho, a) in zip(block, random_instances(seed, block, _BIPARTITE)):
            s = seed + i
            sigma = random_density(2, 2, s + 60013)
            big = DensityMatrix(np.kron(rho.matrix, sigma.matrix), rho.dims + (2,))
            a_big = a.scoped(rho.dims + (2,), a.subsystem)
            label = f"attach uncorrelated mixed qubit (trial {i})"
            yield s, _bystander(label, (rho, a), (big, a_big), two_sided=True)


def _forbidden_saturation(label, rho, x, y):
    def witness(kind, d_x, d_y):
        r_max = realism_max(kind, 2)
        total = 2 * r_max - d_x - d_y
        if total > 2 * r_max + _SUM_TOL:
            return f"{label}: sum exceeds twice the maximum"
        if abs(total - 2 * r_max) > _SUM_TOL:
            return None
        commutator = np.abs(x.operator() @ y.operator() - y.operator() @ x.operator()).max()
        d_a = x.subsystem_dim
        rest = [k for k in range(len(rho.dims)) if k != x.subsystem]
        rho_b = rho.reduced(rest).matrix
        product = np.kron(np.eye(d_a, dtype=complex) / d_a, rho_b)
        if commutator <= 1e-9 or metrics.trace_distance(rho.matrix, product) <= 1e-9:
            return None
        return f"{label}: saturation with non-commuting observables on a correlated state"

    return witness, ((rho, x), (rho, y))


def _axiom3_cases(seed, trials):
    x = spin_observable(0.0, 0.0, subsystem=0, dims=(2, 2))
    y = spin_observable(0.0, np.pi / 2, subsystem=0, dims=(2, 2))
    yield -1, _forbidden_saturation("werner(0.2) with sigma_z and sigma_x", werner(0.2), x, y)
    for i in range(trials):
        s = seed + i
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        d = dims[0] * dims[1]
        rho = random_density(d, d - (i % 3 == 0), s, dims=dims)
        rng = np.random.default_rng(s + 70001)
        x = spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, dims)
        y = spin_observable(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), 0, dims)
        yield s, _forbidden_saturation(f"random qubit pair (trial {i})", rho, x, y)


def _mixing(label, probs, parts, a):
    """Witness `label` when the gain of the mixture exceeds the average
    gain of its parts."""
    mixture = DensityMatrix(sum(p * r.matrix for p, r in zip(probs, parts)), (2, 2))

    def witness(kind, lhs, *part_gains):
        rhs = sum(p * d for p, d in zip(probs, part_gains))
        return label if lhs > rhs + _SUM_TOL else None

    return witness, ((mixture, a), *((r, a) for r in parts))


def _axiom4_cases(seed, trials):
    for block in trial_blocks(range(trials)):
        observables = random_observables((2, seed + i + 90500, 0, (2, 2)) for i in block)
        for i, a in zip(block, observables):
            s = seed + i
            rng = np.random.default_rng(s + 80021)
            n = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(n))
            parts = [random_density(4, 4, s + 90001 + j, dims=(2, 2)) for j in range(n)]
            yield s, _mixing(f"ensemble of {n} random states (trial {i})", probs, parts, a)


_AXIOM_CASES = {
    "axiom1": _axiom1_cases,
    "axiom2a": _axiom2a_cases,
    "axiom2b": _axiom2b_cases,
    "axiom3": _axiom3_cases,
    "axiom4": _axiom4_cases,
}


def _first_witnesses(axiom: str, tokens, trials: int, seed: int) -> list[tuple]:
    """Search one axiom for every kind at once, a block of cases at a time:
    one gains pass gives the gains of every pair of the block for the
    kinds still without a witness, then the cases are judged in order, so
    every kind gets the (witness, witness_seed) of its own first failing
    case, or (None, None).  The search stops after the block in which the
    last kind finds its witness."""
    kinds = [metrics.parse_kind(token) for token in tokens]
    found = [(None, None)] * len(kinds)
    cell_seed = seed + 1_000_000 * (AXIOMS.index(axiom) + 1)
    for block in trial_blocks(_AXIOM_CASES[axiom](cell_seed, trials)):
        open_ = [k for k, (witness, _) in enumerate(found) if witness is None]
        values = iter(gains([pair for _, (_, pairs) in block for pair in pairs],
                            [kinds[k] for k in open_]))
        for case_seed, (witness, pairs) in block:
            case_gains = [next(values) for _ in pairs]
            for j, k in enumerate(open_):
                if found[k][0] is None:
                    verdict = witness(kinds[k], *(pair_gains[j] for pair_gains in case_gains))
                    if verdict:
                        found[k] = (verdict, case_seed)
        if all(witness for witness, _ in found):
            break
    return found


def _cell_row(kind_token: str, axiom: str, witness, witness_seed) -> dict:
    empirical = "counterexample" if witness else "pass"
    expected = NOMINAL_PATTERN[kind_token][axiom]
    verdict = "unverified" if expected == "unverified" else empirical
    row = {"kind": kind_token, "axiom": axiom, "verdict": verdict, "empirical": empirical,
           "witness_seed": witness_seed, "witness": witness, "expected": expected,
           "matches_nominal": verdict == expected}
    if (kind_token, axiom) in KNOWN_DEVIATIONS:
        row["known_deviation"] = KNOWN_DEVIATIONS[(kind_token, axiom)]
    return row


def run_axiom_cell(kind_token: str, axiom: str, trials: int, seed: int) -> dict:
    """Audit a single (kind, axiom) cell and return its row.  A kind token
    without a nominal pattern, an axiom outside AXIOMS, a trial count below 1
    or a negative seed raises OutOfRange."""
    if kind_token not in NOMINAL_PATTERN:
        raise OutOfRange(f"no nominal pattern for kind {kind_token!r}; "
                         f"audited kinds are {', '.join(NOMINAL_PATTERN)}")
    if axiom not in AXIOMS:
        raise OutOfRange(f"unknown axiom {axiom!r}; axioms are {', '.join(AXIOMS)}")
    require_trials(seed, trials=trials)
    return _cell_row(kind_token, axiom, *_first_witnesses(axiom, [kind_token], trials, seed)[0])


# Table of distance-property columns audited against the published
# property table: family token and the power to test.
PROPERTY_COLUMNS = (
    ("tr", 1.0),
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
    """Audit the distance-property pattern for each tabulated column; each
    probe is drawn once and evaluated for every column.  A trial count
    below 1 or a negative seed raises OutOfRange."""
    require_trials(seed, trials=trials)
    kinds = [metrics.parse_kind(token).with_power(power) for token, power in PROPERTY_COLUMNS]
    rows = []
    for kind, reports in zip(kinds, property_reports(kinds, trials, seed)):
        expected = expected_distance_properties(kind)
        for report in reports:
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

    Each axiom is searched for all AUDIT_KINDS at once.  pattern_match is
    true only when every axiom verdict equals the nominal table and every
    property outcome equals the published property table; the known
    part-discard deviation therefore makes it false.  Trial counts below 1
    and a negative seed raise OutOfRange.
    """
    if property_trials is None:
        property_trials = trials
    require_trials(seed, trials=trials, property_trials=property_trials)
    cells = {
        (token, axiom): _cell_row(token, axiom, *found)
        for axiom in AXIOMS
        for token, found in zip(AUDIT_KINDS, _first_witnesses(axiom, AUDIT_KINDS, trials, seed))
    }
    axiom_rows = [cells[token, axiom] for token in AUDIT_KINDS for axiom in AXIOMS]
    property_rows = run_property_table(property_trials, seed)
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
