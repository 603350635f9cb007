"""Quick tests of the benchmark itself.

Each reference check accepts the program's output and rejects it once one
value is moved by 1e-6; each workload runs to its end at a tiny size.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

vqr = pytest.importorskip("vqr")
from vqr import sweeps  # noqa: E402

PERTURBATION = 1e-6


def _table(experiment: str, grid: dict, kinds) -> str:
    spec = sweeps.SweepSpec(experiment=experiment, grid=grid, kinds=kinds, seed=inputs.README_SEED)
    rows = getattr(sweeps, f"run_{experiment}_sweep")(spec)
    return sweeps.write_table(rows, getattr(sweeps, f"{experiment.upper()}_FIELDS"), spec)


def _perturb_csv(text: str, row_index: int, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row_index + 1][col] = format(float(rows[row_index + 1][col]) + PERTURBATION, ".12g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


WERNER_GRID = {"eps_steps": 5}
MU_GRID = {"mu_steps": 4, "phis": list(inputs.MU_PHIS)}
RMAX_GRID = {"d_max": 4}


@pytest.fixture(scope="module")
def werner_csv():
    return _table("werner", WERNER_GRID, inputs.WERNER_KINDS)


@pytest.fixture(scope="module")
def mu_csv():
    return _table("mu", MU_GRID, inputs.MU_KINDS)


@pytest.fixture(scope="module")
def rmax_csv():
    return _table("rmax", RMAX_GRID, inputs.RMAX_KINDS)


def _check_werner(text):
    return references.check_werner(text, WERNER_GRID, inputs.WERNER_KINDS, inputs.README_SEED)


def _check_mu(text):
    return references.check_mu(text, MU_GRID, inputs.MU_KINDS, inputs.README_SEED)


def _check_rmax(text):
    return references.check_rmax(text, RMAX_GRID, inputs.RMAX_KINDS, inputs.README_SEED)


def test_werner_reference_accepts_the_program(werner_csv):
    assert _check_werner(werner_csv) == []


@pytest.mark.parametrize("column", ["r_value", "r_max", "delta_i"])
@pytest.mark.parametrize("kind", inputs.WERNER_KINDS)
def test_werner_reference_rejects_a_perturbed_value(werner_csv, kind, column):
    row = 3 * len(inputs.WERNER_KINDS) + inputs.WERNER_KINDS.index(kind)  # eps = 0.75
    assert _check_werner(_perturb_csv(werner_csv, row, column))


def test_mu_reference_accepts_the_program(mu_csv):
    assert _check_mu(mu_csv) == []


@pytest.mark.parametrize("row", range(4 * 3 * 2))
def test_mu_reference_rejects_a_perturbed_value(mu_csv, row):
    assert _check_mu(_perturb_csv(mu_csv, row, "r_value"))


def test_rmax_reference_accepts_the_program(rmax_csv):
    assert _check_rmax(rmax_csv) == []


@pytest.mark.parametrize("row", range(3 * len(inputs.RMAX_KINDS)))
def test_rmax_reference_rejects_a_perturbed_value(rmax_csv, row):
    assert _check_rmax(_perturb_csv(rmax_csv, row, "r_max"))


@pytest.fixture(scope="module")
def large_d_reports():
    p = {"dims": [3]}
    out = []
    for _label, d, rank, matrix in inputs.large_d_states(7, p):
        rho = vqr.validate_state(matrix, (d, d))
        obs = vqr.computational_observable(d, 0, (d, d))
        reports = []
        for token in inputs.LARGE_D_KINDS:
            report = vqr.realism(rho, obs, sweeps.parse_kind(token)).to_json()
            report["vqr_detected"] = bool(report["vqr_detected"])
            reports.append(report)
        out.append((matrix, d, rank, reports))
    return out


def test_large_d_reference_accepts_the_program(large_d_reports):
    for matrix, d, rank, reports in large_d_reports:
        assert references.check_realism_reports(json.dumps(reports), matrix, d, rank, inputs.LARGE_D_KINDS) == []


@pytest.mark.parametrize("field", ["delta_i", "r_max", "r_value"])
@pytest.mark.parametrize("kind", inputs.LARGE_D_KINDS)
def test_large_d_reference_rejects_a_perturbed_value(large_d_reports, kind, field):
    for matrix, d, rank, reports in large_d_reports:
        moved = [dict(r) for r in reports]
        moved[inputs.LARGE_D_KINDS.index(kind)][field] += PERTURBATION
        assert references.check_realism_reports(json.dumps(moved), matrix, d, rank, inputs.LARGE_D_KINDS)


@pytest.fixture(scope="module")
def verify_result():
    return vqr.run_verify(2, inputs.README_SEED)


def test_verify_reference_accepts_the_program(verify_result):
    assert references.check_verify(json.dumps(verify_result), 2, inputs.README_SEED) == []


@pytest.mark.parametrize("name", [n for n, tol in references.VERIFY_IDENTITIES.items() if tol < PERTURBATION])
def test_verify_reference_rejects_a_perturbed_residual(verify_result, name):
    moved = json.loads(json.dumps(verify_result))
    for row in moved["identities"]:
        if row["identity"] == name:
            row["max_residual"] += PERTURBATION
    assert references.check_verify(json.dumps(moved), 2, inputs.README_SEED)


@pytest.fixture(scope="module")
def audit_result():
    return vqr.run_audit(2, inputs.README_SEED)


def test_audit_reference_accepts_the_program(audit_result):
    assert references.check_audit(json.dumps(audit_result), 2, inputs.README_SEED) == []


@pytest.mark.parametrize("cell", [("bu", "axiom3"), ("hs", "axiom2a"), ("tr", "axiom1")])
def test_audit_reference_rejects_a_flipped_verdict(audit_result, cell):
    moved = json.loads(json.dumps(audit_result))
    for row in moved["axioms"]:
        if (row["kind"], row["axiom"]) == cell:
            row["verdict"] = "pass" if row["verdict"] == "counterexample" else "counterexample"
    assert references.check_audit(json.dumps(moved), 2, inputs.README_SEED)


def test_audit_reference_rejects_a_flipped_property(audit_result):
    moved = json.loads(json.dumps(audit_result))
    row = next(r for r in moved["properties"] if r["kind"] == "hs^2" and r["property"] == "contractivity")
    row["violations"] = 0
    assert references.check_audit(json.dumps(moved), 2, inputs.README_SEED)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_spec()


def test_an_operation_that_raises_fails_and_makes_the_run_incorrect():
    def broken() -> str:
        raise ValueError("raised on purpose")

    outputs: dict[str, list[str]] = {}
    passes = [worker._run_pass([("ok", lambda: "text"), ("broken", broken)], outputs)[1] for _ in range(3)]
    report = {"results": passes, "outputs": outputs}
    verdicts = {("ok", 0): []}
    attempted, failed, problems, correct = run.tally(report, verdicts)
    assert (attempted, failed, correct) == (6, 3, False)
    assert list(problems) == ["broken#-1"]


def test_a_changing_output_makes_the_run_incorrect():
    texts = iter(["a", "b"])
    outputs: dict[str, list[str]] = {}
    passes = [worker._run_pass([("op", lambda: next(texts))], outputs)[1] for _ in range(2)]
    report = {"results": passes, "outputs": outputs}
    assert run.tally(report, {("op", 0): [], ("op", 1): []}) == (2, 0, {}, False)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workload_runs_at_a_tiny_size(workload):
    result = _run(workload, 0)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _run("large_d", 1)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert list(result["metrics"]) == [name for name, _, _ in tracer.per_layer_spec()]
    assert result["metrics"]["realism.realism.calls"]["value"] == 2 * len(inputs.LARGE_D_KINDS)
