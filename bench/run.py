"""The vqr benchmark.

    python3 bench/run.py --workload {tables,large_d,checks} --seed N
                         --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout.  The workload runs in a worker process of
its own (`worker.py`) against the checkout's `src`.  This process never
imports vqr: it checks every output of the worker against the independent
references in `references.py`, writes a record of the run to
`bench/out/`, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, timed with tracing off; with `--trace 1` they are the
per-layer ones of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import inputs
import references
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# `setup_s` is the median over fresh processes: the worker and
# SETUP_PROBES processes that only set up, half of them started before the
# worker and half after it, so that the samples span the run.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 30
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Run in the child before exec: turn off address-space randomisation
    for the worker alone (personality(2)), so that every worker gets the
    same memory layout.  Five fresh processes timing one call read
    1.44-1.65 ms with random layouts and 1.48-1.57 ms with a fixed one."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The same string hashes, and so the same dict and set layouts, in
    # every worker.
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread.  With two on a 2-vCPU machine, BLAS calls stall
    # whenever another process holds one vCPU: building `large_d`'s vqr
    # inputs took 0.7-3.3 s instead of 0.06 s while another process ran.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=_worker_env(),
        cwd=ROOT,
        preexec_fn=_fixed_layout,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    vqr_file = Path(report["vqr_file"]).resolve()
    if SRC.resolve() not in vqr_file.parents:
        raise RuntimeError(f"worker imported vqr from {vqr_file}, not from {SRC}")
    return report


def check(workload: str, op: str, text: str, p: dict, seed: int) -> list[str]:
    """Problems the independent references find in one operation's output."""
    if workload == "tables":
        if op == "werner":
            return references.check_werner(text, p["werner"], inputs.WERNER_KINDS, inputs.README_SEED)
        return references.check_mu(text, p["mu"], inputs.MU_KINDS, inputs.README_SEED)
    if workload == "large_d":
        if op == "rmax":
            return references.check_rmax(text, p["rmax"], inputs.RMAX_KINDS, inputs.README_SEED)
        for label, d, rank, matrix in inputs.large_d_states(seed, p):
            if label == op:
                return references.check_realism_reports(text, matrix, d, rank, inputs.LARGE_D_KINDS)
        return [f"unknown operation {op!r}"]
    if op == "audit":
        return references.check_audit(text, p["audit_trials"], inputs.README_SEED)
    return references.check_verify(text, p["verify_trials"], inputs.README_SEED)


def tally(report: dict, verdicts: dict) -> tuple[int, int, dict, bool]:
    """Count the operations attempted and failed over all timed passes.

    An operation fails when it raises or when the references reject its
    output.  The run is incorrect when any operation fails, or when one
    operation's output changes from pass to pass.
    """
    attempted = failed = 0
    problems = {}
    for pass_results in report["results"]:
        for op, k in pass_results:
            attempted += 1
            found = ["raised an exception"] if k < 0 else verdicts[(op, k)]
            if found:
                failed += 1
                problems.setdefault(f"{op}#{k}", found[:20])
    correct = failed == 0 and all(len(t) == 1 for t in report["outputs"].values())
    return attempted, failed, problems, correct


def _git_sha() -> str:
    """HEAD's commit, or "unknown" when the checkout is not a git repository.
    The ceiling keeps git from reporting an enclosing repository's HEAD."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _manifest(args, report: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "argv": sys.argv,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": report["affinity_cpus"],
        "blas_threads": report["blas_threads"],
        "machine": platform.machine(),
        "params": report["params"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (SRC / "vqr" / "__init__.py").is_file():
        print(f"bench: no vqr package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(probes)]
        run_args = common + ["--seconds", str(args.seconds)]
        if args.trace:
            run_args += ["--trace", "--spans", str(OUT / f"{stem}.spans.csv.gz")]
        # Room for set-up, warm-up and a slow last pass that ends after the run.
        report = _worker(run_args, 60 + 2 * args.seconds)
        setups += [_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    p = report["params"]
    verdicts = {
        (op, k): check(args.workload, op, text, p, args.seed)
        for op, texts in report["outputs"].items()
        for k, text in enumerate(texts)
    }
    attempted, failed, problems, correct = tally(report, verdicts)

    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit} for name, unit, _ in tracer.per_layer_spec()}
    else:
        wall_s = statistics.median(report["pass_s"])
        metrics = {
            "setup_s": {"value": statistics.median([report["setup_s"], *setups]), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "items_per_s": {"value": inputs.items_per_pass(args.workload, p) / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }

    record = {
        "manifest": _manifest(args, report),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "pass_s": report["pass_s"],
        "traced_pass_s": report.get("traced_pass_s"),
        "setup_s_samples": [report["setup_s"], *setups],
        "spans": report.get("spans"),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for op, found in problems.items():
        print(f"bench: {op} failed: {'; '.join(found[:3])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} operations attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
