"""Run one workload in this process and print its raw measurements.

    python3 bench/worker.py --workload tables --seed 1 --seconds 10 [--trace]
        [--tiny] [--setup-only] [--spans PATH]

`run.py` starts this with vqr's `src` on PYTHONPATH and reads the one JSON
object it prints.  The set-up clock covers `import vqr` and building the
workload's inputs.  Tiny passes warm up for WARMUP_S seconds.  Then whole
passes run for about `--seconds`, each timed from outside the library.
With `--trace`, untraced and traced passes alternate, and the traced ones
report per-layer counters.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import statistics
import sys
import time
import traceback

WARMUP_S = 2.0


def _run_pass(ops, outputs: dict[str, list[str]]) -> tuple[float, list[tuple[str, int]]]:
    """Run every operation once; return the pass time and, per operation,
    the index of its output text in `outputs` (-1 when it raised)."""
    texts = []
    start = time.perf_counter()
    for name, op in ops:
        try:
            texts.append((name, op()))
        except Exception:  # an operation that raises counts as failed
            texts.append((name, None))
            print(f"{name} raised:\n{traceback.format_exc()}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    results = []
    for name, text in texts:
        if text is None:
            results.append((name, -1))
            continue
        seen = outputs.setdefault(name, [])
        if text not in seen:
            seen.append(text)
        results.append((name, seen.index(text)))
    return elapsed, results


def _peak_rss_mb() -> float:
    """High-water resident set size of this process's own image.

    ru_maxrss is not used: across fork and exec it keeps the parent's peak.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _blas_threads() -> int | None:
    """The thread count OpenBLAS reports, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args()

    setup_start = time.perf_counter()
    import inputs
    import workloads  # imports vqr

    p = inputs.params(args.workload, args.tiny)
    ops = workloads.build(args.workload, args.seed, p)
    setup_s = time.perf_counter() - setup_start
    vqr_file = sys.modules["vqr"].__file__
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "vqr_file": vqr_file}))
        return 0

    outputs: dict[str, list[str]] = {}
    # Warm-up: first calls pay one-off costs that a repeated pass does not,
    # and on the reference machine a loop's first second of work ran up to
    # 40% slower than the rest.  Tiny passes call the same functions.  A
    # tiny run (the benchmark's own tests) warms up with a single pass.
    warm_ops = workloads.build(args.workload, args.seed, inputs.params(args.workload, tiny=True))
    warm_until = time.perf_counter() + (0.0 if args.tiny else WARMUP_S)
    while True:
        _run_pass(warm_ops, {})
        if time.perf_counter() >= warm_until:
            break

    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()

    plain_s, traced_s, results = [], [], []
    # A round is one untraced pass, and one traced pass with --trace.  The
    # run ends at the round boundary nearest the deadline, after at least
    # one round: a `checks` pass takes about 20 s, and a second one would
    # nearly double a 25-s run.
    deadline = time.perf_counter() + args.seconds
    while True:
        round_start = time.perf_counter()
        gc.collect()
        elapsed, res = _run_pass(ops, outputs)
        plain_s.append(elapsed)
        results.append(res)
        if tracer is not None:
            gc.collect()
            tracer.install()
            tracer.recording = not traced_s  # keep the spans of one pass
            try:
                elapsed, res = _run_pass(ops, outputs)
            finally:
                tracer.recording = False
                tracer.uninstall()
            traced_s.append(elapsed)
            results.append(res)
        now = time.perf_counter()
        if deadline - now < (now - round_start) / 2:
            break

    report = {
        "setup_s": setup_s,
        "vqr_file": vqr_file,
        "params": p,
        "pass_s": plain_s,
        "results": results,
        "outputs": outputs,
        "peak_rss_mb": _peak_rss_mb(),
        "blas_threads": _blas_threads(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
    if tracer is not None:
        layers = tracer.metrics(len(traced_s))
        layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        report["traced_pass_s"] = traced_s
        report["layers"] = layers
        if args.spans:
            report["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
