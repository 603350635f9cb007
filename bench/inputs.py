"""Workload inputs, made from the benchmark's seed with numpy alone.

The worker hands these inputs to vqr; the reference checks rebuild the same
inputs here to recompute the expected outputs, so they never import vqr.

`tables` and `checks` run at the README defaults (fixed grids, the audit and
verify seed 20240), so their outputs are the ones the README commands print.
`--seed` drives the random states of `large_d`.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("tables", "large_d", "checks")

README_SEED = 20240
WERNER_KINDS = ("vn", "tr", "hs", "bu", "he")
RMAX_KINDS = ("tr", "hs", "bu", "he", "vn")
MU_KINDS = ("bu", "he")
MU_PHIS = (0.0, np.pi / 4, np.pi / 2)
LARGE_D_KINDS = ("tr", "hs", "bu", "he", "vn")


def params(workload: str, tiny: bool = False) -> dict:
    """The workload's fixed parameters: README defaults, or a tiny size
    that exercises the same code paths in well under a second."""
    if workload == "tables":
        return {
            "werner": {"eps_steps": 5 if tiny else 101},
            "mu": {"mu_steps": 4 if tiny else 101, "phis": list(MU_PHIS)},
        }
    if workload == "large_d":
        return {"rmax": {"d_max": 4 if tiny else 16}, "dims": [3] if tiny else [8, 16]}
    if workload == "checks":
        return {"audit_trials": 2 if tiny else 200, "verify_trials": 2 if tiny else 100}
    raise ValueError(f"unknown workload {workload!r}")


def items_per_pass(workload: str, p: dict) -> int:
    """Rows for `tables`, values for `large_d`, trials for `checks`."""
    if workload == "tables":
        werner = p["werner"]["eps_steps"] * len(WERNER_KINDS)
        mu = p["mu"]["mu_steps"] * len(p["mu"]["phis"]) * len(MU_KINDS)
        return werner + mu
    if workload == "large_d":
        rmax = (p["rmax"]["d_max"] - 1) * len(RMAX_KINDS)
        states = 2 * len(p["dims"])  # one full-rank and one rank-1 state per d
        return rmax + states * len(LARGE_D_KINDS)
    return p["audit_trials"] + p["verify_trials"]


def large_d_states(seed: int, p: dict) -> list[tuple[str, int, int, np.ndarray]]:
    """Ginibre states on dims (d, d): one of full rank and one of rank 1 per
    d, as (label, d, rank, matrix)."""
    rng = np.random.default_rng(seed)
    states = []
    for d in p["dims"]:
        n = d * d
        for rank in (n, 1):
            g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
            m = g @ g.conj().T
            m /= np.trace(m).real
            states.append((f"d{d}_rank{rank}", d, rank, m))
    return states
