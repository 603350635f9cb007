"""Figure-data sweeps and deterministic table emission.

Each sweep consumes a SweepSpec and yields an ordered list of row dicts.
CSV output uses 12 significant digits, '.' as the decimal separator and
'\\n' line endings; every row carries a short hash of the sweep spec so a
table is traceable to the exact parameters that produced it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalFailure, OutOfRange
from .linalg import as_index
from .metrics import parse_kind
from .realism import r_max, reports
from .states import computational_observable, mu_state, spin_observable, werner

DEFAULT_SEED = 20240
WERNER_KINDS = ("vn", "tr", "hs", "bu", "he")
RMAX_KINDS = ("tr", "hs", "bu", "he", "vn")
MU_KINDS = ("bu", "he")
MU_PHIS = (0.0, np.pi / 4, np.pi / 2)
THETA_INVARIANCE_POINTS = 8
THETA_INVARIANCE_TOL = 1e-9
# Each grid count and its message when it is below 2.
_GRID_COUNTS = {
    "eps_steps": "need at least 2 grid points, got {}",
    "mu_steps": "need at least 2 grid points, got {}",
    "d_max": "d_max must be >= 2, got {}",
}


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one harness run; its hash stamps every output row.

    Construction fills the grid entries and the kinds left out with the
    experiment's defaults (EXPERIMENTS) and resolves the grid: each count
    (eps_steps, mu_steps, d_max) an integer of at least 2, by as_index, and
    phis a non-empty tuple of floats, so the hash stamps only what runs.  No
    sweep draws random numbers, so `seed` changes nothing but that hash: it
    records the seed the run was given (--seed or VQR_SEED) next to the
    grid and kinds that produced the table.
    """

    experiment: str
    grid: dict = field(default_factory=dict)
    kinds: tuple[str, ...] = ()
    seed: int = DEFAULT_SEED
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise OutOfRange(f"unknown experiment {self.experiment!r}; "
                             f"experiments are {', '.join(EXPERIMENTS)}")
        experiment = EXPERIMENTS[self.experiment]
        unknown = [key for key in self.grid if key not in experiment.defaults]
        if unknown:
            raise OutOfRange(f"unknown grid key {unknown[0]!r} for {self.experiment}; "
                             f"its keys are {', '.join(experiment.defaults)}")
        if self.format not in ("csv", "json"):
            raise OutOfRange(f"unknown format {self.format!r}; formats are csv, json")
        grid = {**experiment.defaults, **self.grid}
        for key, message in _GRID_COUNTS.items():
            if key in grid:
                grid[key] = as_index(grid[key], key)
                if grid[key] < 2:
                    raise OutOfRange(message.format(grid[key]))
        if "phis" in grid:  # the mu angles, as floats: a list and a tuple hash alike
            phis = grid["phis"]
            phis = None if isinstance(phis, str) or not np.iterable(phis) else tuple(phis)
            if phis is None or not all(isinstance(phi, numbers.Real) for phi in phis):
                raise OutOfRange(f"phis must be a collection of numbers, got {grid['phis']!r}")
            if not phis:
                raise OutOfRange("need at least one azimuthal angle")
            grid["phis"] = tuple(map(float, phis))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kinds", tuple(self.kinds) or experiment.kinds)

    def spec_hash(self) -> str:
        payload = json.dumps(
            {
                "experiment": self.experiment,
                "grid": self.grid,
                "kinds": list(self.kinds),
                "seed": self.seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def fmt(value) -> str:
    """12-significant-digit decimal formatting for floats."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def rows_to_csv(rows: list[dict], fieldnames: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([fmt(row[name]) for name in fieldnames])
    return buf.getvalue()


def write_table(rows: list[dict], fieldnames: list[str], spec: SweepSpec) -> str:
    """The table's text in the spec's format; the caller writes it."""
    if spec.format == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return rows_to_csv(rows, fieldnames)


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

WERNER_FIELDS = ["spec_hash", "epsilon", "kind", "r_value", "r_max", "delta_i"]
RMAX_FIELDS = ["spec_hash", "d_e", "kind", "r_max"]
MU_FIELDS = ["spec_hash", "mu", "phi", "kind", "r_value"]


def run_werner_sweep(spec: SweepSpec) -> list[dict]:
    """Realism of a computational-basis qubit observable on the Werner
    family, for every requested kind over the epsilon grid."""
    kinds = [parse_kind(t) for t in spec.kinds]
    obs = computational_observable(2, 0, (2, 2))
    stamp = spec.spec_hash()
    grid = np.linspace(0.0, 1.0, spec.grid["eps_steps"])
    rows = []
    pairs = [(werner(float(eps)), obs) for eps in grid]
    for eps, point_reports in zip(grid, reports(pairs, kinds)):
        for report in point_reports:
            rows.append(
                {
                    "spec_hash": stamp,
                    "epsilon": float(eps),
                    "kind": report.kind.token(),
                    "r_value": report.r_value,
                    "r_max": report.r_max,
                    "delta_i": report.delta_i,
                }
            )
    return rows


def run_rmax_sweep(spec: SweepSpec) -> list[dict]:
    """Maximum realism value per kind as a function of the outcome count."""
    kinds = [parse_kind(t) for t in spec.kinds]
    stamp = spec.spec_hash()
    rows = []
    for d_e in range(2, spec.grid["d_max"] + 1):
        for kind, value in zip(kinds, r_max(kinds, d_e)):
            rows.append({"spec_hash": stamp, "d_e": d_e, "kind": kind.token(), "r_max": value})
    return rows


def _theta_invariance_pairs(mu: float, phi: float) -> list[tuple]:
    """The (state, observable) pairs of the polar-invariance check."""
    rho = mu_state(mu)
    return [
        (rho, spin_observable(theta, phi, subsystem=0, dims=(2, 2)))
        for theta in np.linspace(0.0, 2 * np.pi, THETA_INVARIANCE_POINTS, endpoint=False)
    ]


def _theta_invariance_check(mu: float, phi: float, reports) -> None:
    """reports[t][k]: the report of kind k at the t-th polar angle."""
    values = [[report.r_value for report in row] for row in reports]
    spread = max(max(column) - min(column) for column in zip(*values))
    if spread > THETA_INVARIANCE_TOL:
        raise NumericalFailure(
            f"polar-angle invariance violated at mu={mu}, phi={phi}: "
            f"spread {spread:.3e}"
        )


def run_mu_sweep(spec: SweepSpec) -> list[dict]:
    """Bures/Hellinger realism on the mu family for each azimuthal angle,
    at polar angle zero, with a polar-invariance spot check."""
    phis = spec.grid["phis"]
    kinds = [parse_kind(t) for t in spec.kinds]
    stamp = spec.spec_hash()
    observables = [(phi, spin_observable(0.0, phi, subsystem=0, dims=(2, 2))) for phi in phis]
    # every grid point, then every polar-invariance point, as one list of pairs
    points = []
    pairs = []
    for mu in np.linspace(0.0, 1.0, spec.grid["mu_steps"]):
        rho = mu_state(float(mu))
        for phi, obs in observables:
            points.append((float(mu), float(phi)))
            pairs.append((rho, obs))
    for phi in phis:
        pairs += _theta_invariance_pairs(0.8, phi)
    pair_reports = reports(pairs, kinds)
    rows = []
    for (mu, phi), point_reports in zip(points, pair_reports):
        for report in point_reports:
            rows.append(
                {
                    "spec_hash": stamp,
                    "mu": mu,
                    "phi": phi,
                    "kind": report.kind.token(),
                    "r_value": report.r_value,
                }
            )
    checks = pair_reports[len(points):]
    for n, phi in enumerate(phis):
        block = checks[n * THETA_INVARIANCE_POINTS : (n + 1) * THETA_INVARIANCE_POINTS]
        _theta_invariance_check(0.8, phi, block)
    return rows


GNUPLOT_TEMPLATE = """\
# gnuplot companion for {csv}
set datafile separator ","
set key autotitle columnheader outside
set xlabel "{xlabel}"
set ylabel "{ylabel}"
plot for [k in "{kinds}"] "{csv}" \\
    using {xcol}:(strcol({kindcol}) eq k ? column({ycol}) : NaN) \\
    with lines title k
"""


def _angles(text: str) -> list[float]:
    """The comma-separated angles of `vqr mu --phi`."""
    try:
        return [float(p) for p in text.split(",") if p]
    except ValueError:
        raise OutOfRange(f"--phi takes comma-separated numbers, got {text!r}") from None


@dataclass(frozen=True)
class Experiment:
    """One sweep: its runner, CSV columns, default kinds and default grid
    (the one copy of each default, which the CLI reads too), the grid it
    takes from the parsed command line, and its GNUPLOT_TEMPLATE axes: the
    labels and the fields plotted against each other."""

    run: Callable[[SweepSpec], list[dict]]
    fields: list[str]
    kinds: tuple[str, ...]
    defaults: dict
    grid: Callable[[object], dict]
    plot: dict


EXPERIMENTS = {
    "werner": Experiment(
        run_werner_sweep, WERNER_FIELDS, WERNER_KINDS, {"eps_steps": 101},
        lambda args: {"eps_steps": args.eps_steps},
        dict(xlabel="epsilon", ylabel="realism", x="epsilon", y="r_value"),
    ),
    "rmax": Experiment(
        run_rmax_sweep, RMAX_FIELDS, RMAX_KINDS, {"d_max": 16},
        lambda args: {"d_max": args.dmax},
        dict(xlabel="d_E", ylabel="max realism", x="d_e", y="r_max"),
    ),
    "mu": Experiment(
        run_mu_sweep, MU_FIELDS, MU_KINDS, {"mu_steps": 101, "phis": MU_PHIS},
        lambda args: {
            "mu_steps": args.mu_steps,
            "phis": _angles(args.phi),
        },
        dict(xlabel="mu", ylabel="realism", x="mu", y="r_value"),
    ),
}


def gnuplot_script(spec: SweepSpec, csv_path: str) -> str:
    experiment = EXPERIMENTS[spec.experiment]
    plot = experiment.plot
    column = {name: n for n, name in enumerate(experiment.fields, 1)}
    return GNUPLOT_TEMPLATE.format(
        csv=csv_path, kinds=" ".join(spec.kinds), xlabel=plot["xlabel"],
        ylabel=plot["ylabel"], xcol=column[plot["x"]], kindcol=column["kind"],
        ycol=column[plot["y"]])
