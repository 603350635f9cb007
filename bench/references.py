"""Independent checks of the program's outputs, with numpy and scipy only.

Nothing here imports vqr.  Each `check_*` function takes one output text
and returns a list of problems, empty when the output is correct.

Values are compared with the absolute tolerance TOL = 1e-9.  The CSV
tables carry 12 significant digits, so on values below ln 16 their
rounding is under 2e-12; the closed forms below match the program to about
5e-15.  TOL leaves room for any exact reformulation and still rejects an
error of 1e-6.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np
import scipy.linalg

TOL = 1e-9
# A realism value is a violation when its information gain exceeds this
# (TOL_VQR in the README's realism recipe).
VQR_THRESHOLD = 1e-9


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------


def rmax_closed_form(kind: str, d: int) -> float:
    """R_max of a d-outcome observable, attained by a maximally entangled
    pair measured in the computational basis."""
    if kind == "tr":
        return 2.0 * (d - 1) / d**2
    if kind == "hs":
        return (d - 1) / d**2
    if kind in ("bu", "he"):
        return 2.0 * (math.sqrt(d) - 1.0) / d
    if kind == "vn":
        return math.log(d)
    raise ValueError(f"no closed form for kind {kind!r}")


def _entropy(spectrum) -> float:
    w = np.asarray(spectrum, dtype=float)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def werner_delta(kind: str, eps: float) -> float:
    """Information gain of sigma_z on qubit A for the Werner state
    (1 - eps) I/4 + eps |phi+><phi+|."""
    if kind == "tr":
        return max(0.0, (3 * eps - 1) / 4)
    if kind == "hs":
        return eps**2 / 4
    if kind in ("bu", "he"):
        t = (
            math.sqrt((1 + 3 * eps) * (1 + eps))
            + math.sqrt((1 - eps) * (1 + eps))
            + 2 * (1 - eps)
        ) / 4
        return (2 - 2 * t) / math.sqrt(2)
    if kind == "vn":
        measured = [(1 + eps) / 4] * 2 + [(1 - eps) / 4] * 2
        state = [(1 + 3 * eps) / 4] + [(1 - eps) / 4] * 3
        return _entropy(measured) - _entropy(state)
    raise ValueError(f"no Werner closed form for kind {kind!r}")


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix from scipy's Hermitian eigensolver, with
    roundoff eigenvalues (below 1e-14) set to zero."""
    w, v = scipy.linalg.eigh((m + m.conj().T) / 2)
    w = np.where(w > 1e-14, w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def _bures_hellinger(rho: np.ndarray, phi: np.ndarray, d_e: int, sqrt) -> dict[str, float]:
    sqrt_rho = sqrt(rho)
    fidelity = float(np.real(np.trace(sqrt(sqrt_rho @ phi @ sqrt_rho)))) ** 2
    overlap = float(np.real(np.trace(sqrt(phi) @ sqrt_rho)))
    return {
        "bu": (2 - 2 * math.sqrt(fidelity)) / math.sqrt(d_e),
        "he": (2 - 2 * overlap) / math.sqrt(d_e),
    }


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def mu_delta(mu: float, phi: float) -> dict[str, float]:
    """Bures and Hellinger information gains of the spin observable at polar
    angle 0 and azimuth phi on qubit A, for the state
    I/4 + (mu/4)(XX - YY) + ((2 mu - 1)/4) ZZ.

    The state has rank 3 or less, so the square roots come from psd_sqrt:
    scipy.linalg.sqrtm would lose half the digits on its zero eigenvalues.
    """
    x, y, z = PAULI["x"], PAULI["y"], PAULI["z"]
    rho = np.eye(4) / 4 + (mu / 4) * (np.kron(x, x) - np.kron(y, y)) + ((2 * mu - 1) / 4) * np.kron(z, z)
    spin = np.sin(phi) * x + np.cos(phi) * z
    projectors = [np.kron((np.eye(2) + sign * spin) / 2, np.eye(2)) for sign in (1, -1)]
    measured = sum(p @ rho @ p for p in projectors)
    return _bures_hellinger(rho, measured, 2, psd_sqrt)


def pinching_delta(kind: str, rho: np.ndarray, d: int, rank: int) -> float:
    """Information gain of the computational basis of subsystem 0 on a state
    of dims (d, d), recomputed from the pinching Phi(rho).

    Bures and Hellinger use scipy.linalg.sqrtm on full-rank states.  On a
    rank-1 state sqrtm loses half the digits of the zero eigenvalues, so
    there the pure-state forms are used: with p_a the weight of outcome a,
    F(rho, Phi) = sum p_a^2 and Tr(sqrt(Phi) rho) = sum p_a^(3/2).
    """
    block = np.arange(d * d) // d
    phi = np.where(block[:, None] == block[None, :], rho, 0.0)
    if kind == "tr":
        diff = rho - phi / d
        trace_norm = np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum()
        return float(trace_norm - (d - 1) / d)
    if kind == "hs":
        return float(np.sum(np.abs(rho - phi) ** 2) / d)
    if kind == "vn":
        return _entropy(np.linalg.eigvalsh(phi)) - _entropy(np.linalg.eigvalsh(rho))
    if kind not in ("bu", "he"):
        raise ValueError(f"no pinching reference for kind {kind!r}")
    if rank == 1:
        p = np.real(np.diag(rho)).reshape(d, d).sum(axis=1)
        gains = {
            "bu": (2 - 2 * math.sqrt(np.sum(p**2))) / math.sqrt(d),
            "he": (2 - 2 * np.sum(p**1.5)) / math.sqrt(d),
        }
    else:
        gains = _bures_hellinger(rho, phi, d, scipy.linalg.sqrtm)
    return float(gains[kind])


# --------------------------------------------------------------------------
# Sweep tables
# --------------------------------------------------------------------------


def spec_hash(experiment: str, grid: dict, kinds, seed: int) -> str:
    """The 12-hex-digit stamp every row of a sweep table carries."""
    payload = json.dumps(
        {"experiment": experiment, "grid": grid, "kinds": list(kinds), "seed": seed},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _parse_table(text: str, fields: list[str], expected_rows: int, problems: list[str]) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != fields:
        problems.append(f"header {header} != {fields}")
        return []
    rows = [dict(zip(fields, row)) for row in reader]
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
        return []
    return rows


def _close(label: str, got: float, want: float, problems: list[str]) -> None:
    if not abs(got - want) <= TOL:
        problems.append(f"{label}: {got!r} differs from {want!r} by {got - want:.3e}")


def check_werner(text: str, grid: dict, kinds, seed: int) -> list[str]:
    problems: list[str] = []
    fields = ["spec_hash", "epsilon", "kind", "r_value", "r_max", "delta_i"]
    keys = [(e, k) for e in np.linspace(0.0, 1.0, grid["eps_steps"]) for k in kinds]
    stamp = spec_hash("werner", grid, kinds, seed)
    for row, (eps, kind) in zip(_parse_table(text, fields, len(keys), problems), keys):
        label = f"werner eps={eps:.12g} {kind}"
        if row["spec_hash"] != stamp or row["kind"] != kind:
            problems.append(f"{label}: row is {row}")
            continue
        r_value, r_max, delta = (float(row[f]) for f in ("r_value", "r_max", "delta_i"))
        _close(f"{label} epsilon", float(row["epsilon"]), float(eps), problems)
        _close(f"{label} r_max", r_max, rmax_closed_form(kind, 2), problems)
        _close(f"{label} delta_i", delta, werner_delta(kind, float(eps)), problems)
        _close(f"{label} r_value", r_value, rmax_closed_form(kind, 2) - werner_delta(kind, float(eps)), problems)
    return problems


def check_mu(text: str, grid: dict, kinds, seed: int) -> list[str]:
    """Every value against mu_delta, 0 <= Delta I <= R_max for every row, and
    Bures = Hellinger at phi = 0."""
    problems: list[str] = []
    fields = ["spec_hash", "mu", "phi", "kind", "r_value"]
    keys = [
        (m, phi, k) for m in np.linspace(0.0, 1.0, grid["mu_steps"]) for phi in grid["phis"] for k in kinds
    ]
    stamp = spec_hash("mu", grid, kinds, seed)
    at_phi0: dict[float, dict[str, float]] = {}
    for row, (mu, phi, kind) in zip(_parse_table(text, fields, len(keys), problems), keys):
        label = f"mu={mu:.12g} phi={phi:.12g} {kind}"
        if row["spec_hash"] != stamp or row["kind"] != kind:
            problems.append(f"{label}: row is {row}")
            continue
        _close(f"{label} mu", float(row["mu"]), float(mu), problems)
        _close(f"{label} phi", float(row["phi"]), float(phi), problems)
        r_max = rmax_closed_form(kind, 2)
        delta = r_max - float(row["r_value"])
        if not -TOL <= delta <= r_max + TOL:
            problems.append(f"{label}: Delta I = {delta!r} outside [0, {r_max!r}]")
        _close(f"{label} r_value", float(row["r_value"]), r_max - mu_delta(float(mu), float(phi))[kind], problems)
        if phi == 0.0:
            at_phi0.setdefault(float(mu), {})[kind] = float(row["r_value"])
    for mu, values in at_phi0.items():
        if "bu" in values and "he" in values:
            _close(f"mu={mu:.12g} phi=0 bu vs he", values["bu"], values["he"], problems)
    return problems


def check_rmax(text: str, grid: dict, kinds, seed: int) -> list[str]:
    problems: list[str] = []
    fields = ["spec_hash", "d_e", "kind", "r_max"]
    keys = [(d, k) for d in range(2, grid["d_max"] + 1) for k in kinds]
    stamp = spec_hash("rmax", grid, kinds, seed)
    for row, (d, kind) in zip(_parse_table(text, fields, len(keys), problems), keys):
        label = f"rmax d_E={d} {kind}"
        if row["spec_hash"] != stamp or row["kind"] != kind or row["d_e"] != str(d):
            problems.append(f"{label}: row is {row}")
            continue
        _close(label, float(row["r_max"]), rmax_closed_form(kind, d), problems)
    return problems


# --------------------------------------------------------------------------
# Realism reports on large random states
# --------------------------------------------------------------------------


def check_realism_reports(text: str, rho: np.ndarray, d: int, rank: int, kinds) -> list[str]:
    problems: list[str] = []
    reports = json.loads(text)
    if [r.get("kind") for r in reports] != list(kinds):
        return [f"report kinds {[r.get('kind') for r in reports]} != {list(kinds)}"]
    for report, kind in zip(reports, kinds):
        label = f"d={d} rank={rank} {kind}"
        delta = pinching_delta(kind, rho, d, rank)
        r_max = rmax_closed_form(kind, d)
        _close(f"{label} delta_i", report["delta_i"], delta, problems)
        _close(f"{label} r_max", report["r_max"], r_max, problems)
        _close(f"{label} r_value", report["r_value"], r_max - delta, problems)
        if report["vqr_detected"] != (delta > VQR_THRESHOLD):
            problems.append(f"{label}: vqr_detected is {report['vqr_detected']}")
    return problems


# --------------------------------------------------------------------------
# Audit and verify: the paper's claims
# --------------------------------------------------------------------------

AXIOMS = ("axiom1", "axiom2a", "axiom2b", "axiom3", "axiom4")
# The published axiom table.  The L_p cells marked "unverified" have no
# established verdict.  The Hilbert-Schmidt part-discard cell is published
# as a pass, but discarding an uncorrelated mixed bystander lowers the
# squared HS gain by the bystander's purity, so the audit must report that
# counterexample instead.
PUBLISHED_AXIOMS = {
    "tr": ("counterexample", "pass", "pass", "counterexample", "pass"),
    "hs": ("pass", "pass", "counterexample", "pass", "pass"),
    "lp3": ("unverified", "unverified", "counterexample", "unverified", "pass"),
    "bu": ("pass",) * 5,
    "he": ("pass",) * 5,
}
HS_PART_DISCARD = ("hs", "axiom2a")

# The published distance-property table, per column (kind label): positive
# definiteness, unitary invariance, joint convexity, contractivity.
PROPERTIES = ("positive_definiteness", "unitary_invariance", "joint_convexity", "contractivity")
PUBLISHED_PROPERTIES = {
    "tr": (True, True, True, True),
    "hs": (True, True, True, False),
    "hs^2": (True, True, True, False),
    "lp3": (True, True, True, False),
    "lp3^3": (True, True, True, False),
    "bu": (True, True, False, True),
    "bu^2": (True, True, True, True),
    "he": (True, True, False, True),
    "he^2": (True, True, True, True),
}

# The identity suite: name and tolerance of each of its 17 rows.
VERIFY_IDENTITIES = {
    **{f"pinching_trace_identity_{f}": 1e-9 for f in ("identity", "square", "sqrt", "exp")},
    "hs_purity_loss_identity": 1e-9,
    **{f"information_gain_closed_form_{k}": 1e-9 for k in ("tr", "hs", "bu", "he", "lp1.5", "lp3")},
    "bures_from_sandwiched_renyi_half": 1e-9,
    "hellinger_from_renyi_half": 1e-9,
    "renyi_limit_to_relative_entropy": 1e-3,
    "sandwiched_limit_to_relative_entropy": 1e-3,
    "dilation_reduction": 1e-10,
    "dilation_invariance": 1e-10,
}


def check_audit(text: str, trials: int, seed: int) -> list[str]:
    problems: list[str] = []
    result = json.loads(text)
    if result.get("trials") != trials or result.get("seed") != seed:
        problems.append(f"audit ran trials={result.get('trials')} seed={result.get('seed')}")
    cells = {(r["kind"], r["axiom"]): r for r in result.get("axioms", [])}
    want_cells = {(k, a) for k in PUBLISHED_AXIOMS for a in AXIOMS}
    if set(cells) != want_cells:
        problems.append(f"axiom cells {sorted(cells)} != {sorted(want_cells)}")
    for (kind, axiom), row in sorted(cells.items()):
        published = dict(zip(AXIOMS, PUBLISHED_AXIOMS.get(kind, ())))
        want = "counterexample" if (kind, axiom) == HS_PART_DISCARD else published.get(axiom)
        if row["verdict"] != want:
            problems.append(f"{kind}/{axiom}: verdict {row['verdict']}, expected {want}")
        if row["verdict"] == "counterexample" and not row.get("witness"):
            problems.append(f"{kind}/{axiom}: counterexample without a witness")
    discard = cells.get(HS_PART_DISCARD, {})
    if "discard" not in str(discard.get("witness")):
        problems.append(f"hs/axiom2a witness {discard.get('witness')!r} is not the part discard")
    mismatches = result.get("mismatches", [])
    if [(m.get("kind"), m.get("axiom")) for m in mismatches] != [HS_PART_DISCARD]:
        problems.append(f"mismatches {mismatches} are not exactly hs/axiom2a")
    if result.get("pattern_match") is not False:
        problems.append("pattern_match should be false because of hs/axiom2a")

    rows = result.get("properties", [])
    seen = {(r["kind"], r["property"]) for r in rows}
    want_rows = {(k, p) for k in PUBLISHED_PROPERTIES for p in PROPERTIES}
    if seen != want_rows or len(rows) != len(want_rows):
        problems.append(f"property rows {sorted(seen)} != {sorted(want_rows)}")
    for row in rows:
        want = dict(zip(PROPERTIES, PUBLISHED_PROPERTIES.get(row["kind"], ())))
        holds = row["violations"] == 0
        if row["trials"] != trials or holds != want.get(row["property"]):
            problems.append(
                f"property {row['kind']}/{row['property']}: {row['violations']} violations "
                f"in {row['trials']} trials, published {want.get(row['property'])}"
            )
    return problems


def check_verify(text: str, trials: int, seed: int) -> list[str]:
    problems: list[str] = []
    result = json.loads(text)
    if result.get("trials") != trials or result.get("seed") != seed:
        problems.append(f"verify ran trials={result.get('trials')} seed={result.get('seed')}")
    rows = {r["identity"]: r for r in result.get("identities", [])}
    if set(rows) != set(VERIFY_IDENTITIES) or len(result["identities"]) != len(VERIFY_IDENTITIES):
        problems.append(f"identities {sorted(rows)} != {sorted(VERIFY_IDENTITIES)}")
    for name, tol in VERIFY_IDENTITIES.items():
        row = rows.get(name)
        if row is None:
            continue
        residual = row["max_residual"]
        if not (0.0 <= residual < tol) or row["tolerance"] != tol or row["pass"] is not True:
            problems.append(f"{name}: residual {residual!r}, tolerance {row['tolerance']!r} (want < {tol})")
        if row["trials"] != trials:
            problems.append(f"{name}: {row['trials']} trials")
    if result.get("pass") is not True:
        problems.append("verify does not pass")
    return problems
