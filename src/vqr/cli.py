"""Command line front end.

Subcommands: werner, rmax and mu regenerate the sweep tables; audit runs
the axiom/property audit; verify runs the identity suite.

Exit codes: 0 on success, 1 on usage or I/O errors, 2 when audit or verify
results do not match the expected reference pattern.  The VQR_SEED
environment variable supplies the seed when --seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import sweeps
from .audit import run_audit
from .errors import OutOfRange, VqrError
from .sweeps import DEFAULT_SEED, SweepSpec
from .verify import run_verify


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the harness reserves 2 for
    # pattern mismatches, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _env_seed() -> int:
    raw = os.environ.get("VQR_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise OutOfRange(f"VQR_SEED must be an integer, got {raw!r}") from None


def _add_common(sub, default_kinds):
    sub.add_argument("--kinds", default=",".join(default_kinds),
                     help="comma-separated kind tokens (tr,hs,bu,he,vn,lp<p>)")
    sub.add_argument("--out", default=None, help="output file path")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed stamped into spec_hash; no sweep draws random "
                          f"numbers (default: VQR_SEED, else {DEFAULT_SEED})")
    sub.add_argument("--gnuplot", action="store_true",
                     help="also write a gnuplot companion script next to the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vqr", description=__doc__.strip().splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    grid = {name: experiment.defaults for name, experiment in sweeps.EXPERIMENTS.items()}

    werner = subs.add_parser("werner", help="realism monotones on the Werner family")
    werner.add_argument("--eps-steps", type=int, default=grid["werner"]["eps_steps"])
    _add_common(werner, sweeps.WERNER_KINDS)

    rmax = subs.add_parser("rmax", help="maximum realism versus outcome count")
    rmax.add_argument("--dmax", type=int, default=grid["rmax"]["d_max"])
    _add_common(rmax, sweeps.RMAX_KINDS)

    mu = subs.add_parser("mu", help="Bures/Hellinger realism on the mu family")
    mu.add_argument("--mu-steps", type=int, default=grid["mu"]["mu_steps"])
    mu.add_argument("--phi", default=",".join(str(p) for p in grid["mu"]["phis"]),
                    help="comma-separated azimuthal angles")
    _add_common(mu, sweeps.MU_KINDS)

    audit = subs.add_parser("audit", help="axiom and distance-property audit")
    audit.add_argument("--trials", type=int, default=200)
    audit.add_argument("--property-trials", type=int, default=None)
    audit.add_argument("--seed", type=int, default=None)
    audit.add_argument("--out", default=None)

    verify = subs.add_parser("verify", help="identity-verification suite")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--out", default=None)

    return parser


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_sweep(args, seed: int) -> int:
    experiment = sweeps.EXPERIMENTS[args.command]
    spec = SweepSpec(
        experiment=args.command,
        grid=experiment.grid(args),
        kinds=tuple(t for t in args.kinds.split(",") if t),
        seed=seed,
        format="json" if args.out and args.out.endswith(".json") else "csv",
    )
    _emit(sweeps.write_table(experiment.run(spec), experiment.fields, spec), args.out)
    if args.gnuplot and args.out and spec.format == "csv":
        _emit(sweeps.gnuplot_script(spec, args.out), args.out + ".gp")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = args.seed if args.seed is not None else _env_seed()
        if args.command in sweeps.EXPERIMENTS:
            return _run_sweep(args, seed)
        if args.command == "audit":
            result = run_audit(args.trials, seed, args.property_trials)
            _emit(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
            return 0 if result["pattern_match"] else 2
        if args.command == "verify":
            result = run_verify(args.trials, seed)
            _emit(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
            return 0 if result["pass"] else 2
    except (VqrError, OSError) as exc:
        print(f"vqr: {exc}", file=sys.stderr)
        return 1
    return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
