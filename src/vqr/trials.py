"""Seeded trials of the checks, and the empirical distance-property checks.

The audit searches, the property table and the verify groups share one
trial policy: trial i of a check draws its instances at seed + i, its
count and seed are checked by require_trials at the entry point, and its
trials are evaluated TRIAL_BLOCK at a time (trial_blocks), each block in
stacked calls.  The property checks test positive definiteness, unitary
invariance, joint convexity and contractivity of each distance kind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import phi_map
from .metrics import TRACE, DistanceKind, powered_distances, stacked
from .states import haar_unitary, random_density, random_observables

# The checks (audit searches, property table, verify groups) evaluate this
# many trials per stacked call.  It bounds their memory: a whole check in
# one stack raised the peak RSS of an audit-200 plus verify-100 pass from
# 40.6 to 45.0 MB, and blocks of 32 keep it at 41.2 MB with most of the
# speed-up (2.0 s a pass against 3.6 s unstacked and 1.6 s whole).
TRIAL_BLOCK = 32


def require_trials(seed: int, **counts: int) -> None:
    """The rule of every check's entry point: each trial count, named by its
    keyword, by linalg.as_count, and the seed by linalg.as_seed."""
    for name, count in counts.items():
        linalg.as_count(count, name)
    linalg.as_seed(seed)


def random_instances(seed, block, dims_cycle) -> list[tuple]:
    """The (rho, A) of each trial i of a block, at the dims
    dims_cycle[i % len(dims_cycle)]: rho drawn at seed + i with rank
    d - i % 2, and A on subsystem 0 at seed + i + 50021, the block's
    observables in one call."""
    dims = [dims_cycle[i % len(dims_cycle)] for i in block]
    observables = random_observables(
        (d[0], seed + i + 50021, 0, d) for i, d in zip(block, dims))
    return [(random_density(math.prod(d), math.prod(d) - (i % 2), seed + i, dims=d), a)
            for i, d, a in zip(block, dims, observables)]


def trial_blocks(trials):
    """The trials of a check, an iterable, in lists of TRIAL_BLOCK (the last
    one shorter)."""
    trials = iter(trials)
    while block := list(itertools.islice(trials, TRIAL_BLOCK)):
        yield block


# --------------------------------------------------------------------------
# Empirical property checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    kind: str
    property: str
    trials: int
    violations: int
    worst_case: float
    example_seed: int | None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "property": self.property,
            "trials": self.trials,
            "violations": self.violations,
            "worst_case": self.worst_case,
            "example_seed": self.example_seed,
        }


def _random_pair(seed, d: int) -> tuple[np.ndarray, np.ndarray]:
    rho = random_density(d, d, seed)
    sig = random_density(d, max(1, d - 1), seed + 7919)
    return rho.matrix, sig.matrix


# Each property check is a draw and a finish.  draw(seed, block, shared)
# gives, for each trial i of the block, the trial's (rho, sigma) pairs and
# what else its finish needs; shared holds trial i's _random_pair, drawn
# once for every check.  finish(n, values, extra) turns the values of those
# pairs (one tuple per pair, of one value per _squares_and_trace column:
# the n kinds checked, their squares, then the trace distance) into the
# excess of every kind for each of the trial's probes.  A trial violates
# the property for a kind when one of its excesses is above the check's
# tolerance.


def _squares_and_trace(kinds) -> list:
    """The kinds, then their squares, then the trace distance."""
    return [*kinds, *(k.with_power(2.0) for k in kinds), TRACE]


def _positive_definiteness_draw(seed, block, shared):
    for rho, sig in shared:
        yield [(rho, sig), (rho, rho)], None


def _positive_definiteness_finish(n, values, _):
    # Bures/Hellinger are computed natively as squares; a lower power near
    # zero would amplify O(eps) roundoff to O(sqrt(eps)), so the
    # identity-of-indiscernibles check runs on the squared form.
    pair_values, self_pair = values
    apart = pair_values[-1] > 1e-6
    bads = []
    for value, self_value in zip(pair_values[:n], self_pair[n : 2 * n]):
        bad = max(-value, self_value - 1e-10)
        if apart and value <= 1e-12:
            bad = max(bad, 1e-12 - value)
        bads.append(bad)
    return [bads]


def _unitary_invariance_draw(seed, block, shared):
    for i, (rho, sig) in zip(block, shared):
        u = haar_unitary(len(rho), seed + i + 13)
        yield [(rho, sig), (u @ rho @ u.conj().T, u @ sig @ u.conj().T)], None


def _unitary_invariance_finish(n, values, _):
    before, after = values
    return [[abs(a - b) for a, b in zip(after[:n], before)]]


def _joint_convexity_draw(seed, block, shared):
    """One random joint-convexity probe and one structured probe mixing the
    pairs (rho, rho) and (rho, sigma) with orthogonal pure states; the
    structured case is where first-power Bures and Hellinger convexity
    breaks."""
    for i, (rho1, sig1) in zip(block, shared):
        d = len(rho1)
        rho2, sig2 = _random_pair(seed + i + 104729, d)
        weight = float(np.random.default_rng(seed + i + 3).uniform(0.1, 0.9))
        p0, p1 = (np.diag(np.eye(d, dtype=complex)[k]) for k in (0, 1))
        probes = ((weight, (rho1, sig1), (rho2, sig2)), (0.5, (p0, p0), (p0, p1)))
        pairs = []
        for lam, (r1, s1), (r2, s2) in probes:
            pairs += [(lam * r1 + (1 - lam) * r2, lam * s1 + (1 - lam) * s2), (r1, s1), (r2, s2)]
        yield pairs, [lam for lam, _, _ in probes]


def _joint_convexity_finish(n, values, lams):
    excesses = []
    for k, lam in enumerate(lams):
        mixed, ones, twos = values[3 * k : 3 * k + 3]
        excesses.append([m - (lam * a + (1 - lam) * b) for m, a, b in zip(mixed[:n], ones, twos)])
    return excesses


def _contractivity_draw(seed, block, shared):
    """A random Stinespring channel (a Haar isometry with a dim-2
    environment), a projective-measurement channel, and a bystander-discard
    probe (where HS/L_p contractivity breaks); the block's observables are
    drawn in one call."""
    observables = random_observables(
        (len(rho), seed + i + 101, 0, None) for i, (rho, _) in zip(block, shared))
    for i, (rho, sig), obs in zip(block, shared, observables):
        d = len(rho)
        v = haar_unitary(2 * d, seed + i + 37)[:, :d]  # isometry C^d -> C^d (x) C^2
        eye2 = np.eye(2) / 2
        big = np.kron(rho, eye2), np.kron(sig, eye2)
        maps = (
            (lambda m: linalg.partial_trace(v @ m @ v.conj().T, (d, 2), 0), (rho, sig)),
            (lambda m: phi_map(m, obs), (rho, sig)),
            (lambda m: linalg.partial_trace(m, (d, 2), 0), big),
        )
        yield [(rho, sig)] + [(channel(r), channel(g)) for channel, (r, g) in maps] + [big], None


def _contractivity_finish(n, values, _):
    before, *afters, big_before = values
    return [[a - b for a, b in zip(after[:n], ahead)]
            for after, ahead in zip(afters, (before, before, big_before))]


# Property -> (draw, finish, tolerance).  A report's example_seed is the
# trial of the first violation, except for positive definiteness, where it
# is the trial of the largest one.
_PROPERTY_CHECKS = {
    "positive_definiteness": (_positive_definiteness_draw, _positive_definiteness_finish, 0.0),
    "unitary_invariance": (_unitary_invariance_draw, _unitary_invariance_finish, 1e-9),
    "joint_convexity": (_joint_convexity_draw, _joint_convexity_finish, 1e-10),
    "contractivity": (_contractivity_draw, _contractivity_finish, 1e-10),
}


def property_reports(kinds, trials: int, seed: int) -> list[list[PropertyReport]]:
    """check_distance_properties of every kind, a block of trials at a time:
    each trial's (rho, sigma) is drawn once for all four properties, and
    every distinct pair the block's probes hold is evaluated once, for
    every kind, in one stacked call.  One list of reports per kind, in
    _PROPERTY_CHECKS order; tallies follow the trials in order."""
    n = len(kinds)
    columns = _squares_and_trace(kinds)
    # violations, worst, example of each kind for each property
    tallies = {name: [[0, 0.0, None] for _ in kinds] for name in _PROPERTY_CHECKS}
    for block in trial_blocks(range(trials)):
        shared = [_random_pair(seed + i, 2 + (i % 3)) for i in block]
        draws = {name: list(draw(seed, block, shared))
                 for name, (draw, _, _) in _PROPERTY_CHECKS.items()}
        # pairs are the same when they hold the same two arrays
        distinct = {(id(r), id(s)): (r, s)
                    for trial_draws in draws.values()
                    for pairs, _ in trial_draws for r, s in pairs}
        values = dict(zip(distinct, stacked(powered_distances, columns, list(distinct.values()))))
        for name, (_, finish, tol) in _PROPERTY_CHECKS.items():
            for i, (pairs, extra) in zip(block, draws[name]):
                hit = [False] * n
                for excesses in finish(n, [values[id(r), id(s)] for r, s in pairs], extra):
                    for k, (tally, excess) in enumerate(zip(tallies[name], excesses)):
                        if excess > tol:
                            hit[k] = True
                            worst_so_far = name == "positive_definiteness" and excess > tally[1]
                            if tally[2] is None or worst_so_far:
                                tally[2] = seed + i
                        tally[1] = max(tally[1], excess)
                for tally, violated in zip(tallies[name], hit):
                    tally[0] += violated
    reports = [[] for _ in kinds]
    for name, name_tallies in tallies.items():
        for kind, kind_reports, (violations, worst, example) in zip(kinds, reports, name_tallies):
            kind_reports.append(
                PropertyReport(kind.label(), name, trials, violations, float(worst), example)
            )
    return reports


def check_distance_properties(
    kind: DistanceKind, trials: int, seed: int
) -> list[PropertyReport]:
    """Empirically test positive definiteness, unitary invariance, joint
    convexity and contractivity of `kind` at its configured power, over
    seeded random instances plus structured probes.  A trial count below 1
    or a negative seed raises OutOfRange."""
    require_trials(seed, trials=trials)
    return property_reports([kind], trials, seed)[0]


def expected_distance_properties(kind: DistanceKind) -> dict[str, bool]:
    """The established property pattern for a distance family at a power.

    Joint convexity holds for the Schatten distances at any power >= 1 but
    only for the squares of Bures and Hellinger; contractivity holds for
    trace, Bures and Hellinger (any power) and fails for Hilbert-Schmidt
    and every other L_p order.
    """
    if kind.family in ("tr", "hs", "lp"):
        return {
            "positive_definiteness": True,
            "unitary_invariance": True,
            "joint_convexity": True,
            "contractivity": kind.schatten_p == 1.0,
        }
    return {
        "positive_definiteness": True,
        "unitary_invariance": True,
        "joint_convexity": kind.power >= 2.0,
        "contractivity": True,
    }
