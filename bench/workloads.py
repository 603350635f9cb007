"""The operations of each workload: calls into the public functions of vqr.

Importing this module imports vqr, so the worker imports it inside its
set-up clock.  Every operation looks its vqr function up through the module
attribute at call time, so the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import json
from typing import Callable

import vqr
import vqr.audit
import vqr.sweeps
import vqr.verify

from inputs import (
    LARGE_D_KINDS,
    MU_KINDS,
    README_SEED,
    RMAX_KINDS,
    WERNER_KINDS,
    large_d_states,
)

Op = tuple[str, Callable[[], str]]


def _sweep_op(experiment: str, grid: dict, kinds: tuple[str, ...]) -> Op:
    # The spec `vqr <experiment>` builds from its README defaults.
    spec = vqr.sweeps.SweepSpec(
        experiment=experiment, grid=grid, kinds=kinds, seed=README_SEED
    )
    runner = f"run_{experiment}_sweep"
    fields = getattr(vqr.sweeps, f"{experiment.upper()}_FIELDS")

    def op() -> str:
        rows = getattr(vqr.sweeps, runner)(spec)
        return vqr.sweeps.write_table(rows, fields, spec)

    return experiment, op


def _report_json(report) -> dict:
    out = report.to_json()
    # For bu and he, vqr_detected is a numpy.bool_, which json cannot encode.
    out["vqr_detected"] = bool(out["vqr_detected"])
    return out


def _realism_op(label: str, rho, obs, kinds) -> Op:
    def op() -> str:
        return json.dumps([_report_json(vqr.realism(rho, obs, kind)) for kind in kinds])

    return label, op


def _report_op(name: str, runner: str, trials: int) -> Op:
    module = getattr(vqr, name)

    def op() -> str:
        result = getattr(module, runner)(trials, README_SEED)
        return json.dumps(result, indent=2, sort_keys=True) + "\n"

    return name, op


def build(workload: str, seed: int, p: dict) -> list[Op]:
    """Build the workload's vqr inputs from `p` and the seed; one pass runs
    the returned operations in order."""
    if workload == "tables":
        return [
            _sweep_op("werner", p["werner"], WERNER_KINDS),
            _sweep_op("mu", p["mu"], MU_KINDS),
        ]
    if workload == "large_d":
        ops = [_sweep_op("rmax", p["rmax"], RMAX_KINDS)]
        kinds = [vqr.sweeps.parse_kind(token) for token in LARGE_D_KINDS]
        for label, d, _rank, matrix in large_d_states(seed, p):
            rho = vqr.validate_state(matrix, (d, d))
            obs = vqr.computational_observable(d, 0, (d, d))
            ops.append(_realism_op(label, rho, obs, kinds))
        return ops
    return [
        _report_op("audit", "run_audit", p["audit_trials"]),
        _report_op("verify", "run_verify", p["verify_trials"]),
    ]
