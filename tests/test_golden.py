"""Byte-exact golden outputs of the CLI.

The files under tests/golden/ are the stdout of `vqr werner`, `vqr mu` and
`vqr rmax` with no options, of `vqr rmax --kinds tr,hs,bu,he,vn,lp1.5,lp3`
(which adds the `vn` and `lp` rows), of `vqr werner --kinds
tr,hs,bu,he,vn,lp1.5,lp3` and `vqr mu --phi 0.3,1.1,2` (every kind, and more
than one angle, evaluated from each sweep point), of `vqr mu --phi 0` (one
angle whose spin observable is diagonal, so every pair of the sweep falls in
one stack of the block route), of `vqr audit --trials 20
--property-trials 20` and of `vqr verify --trials 10`, and of `vqr audit` and
`vqr verify` at their defaults (200 and 100 trials), recorded with numpy
2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels).
A few entries of mu.csv are at the 1e-16 rounding level, so they depend on
the BLAS build: on another build this test can fail although the program is
correct.

At 20 trials `hs` and `lp3` find their axiom2b witness at trial 0 while
`tr`, `bu` and `he` search every trial, so audit.json pins each kind's own
first witness within a search that tests all kinds together.  The runs at
the defaults cross the boundaries of the blocks of `vqr.trials.TRIAL_BLOCK`
trials in which the checks stack their work.
"""

from pathlib import Path

import pytest

from vqr.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, code, name",
    [
        (["werner"], 0, "werner.csv"),
        (["mu"], 0, "mu.csv"),
        (["rmax"], 0, "rmax.csv"),
        (["rmax", "--kinds", "tr,hs,bu,he,vn,lp1.5,lp3"], 0, "rmax_kinds.csv"),
        (["werner", "--kinds", "tr,hs,bu,he,vn,lp1.5,lp3"], 0, "werner_kinds.csv"),
        (["mu", "--phi", "0.3,1.1,2"], 0, "mu_phis.csv"),
        (["mu", "--phi", "0"], 0, "mu_phi0.csv"),
        (["audit", "--trials", "20", "--property-trials", "20"], 2, "audit.json"),
        (["verify", "--trials", "10"], 0, "verify.json"),
        (["audit"], 2, "audit_defaults.json"),
        (["verify"], 0, "verify_defaults.json"),
    ],
    ids=["werner", "mu", "rmax", "rmax_kinds", "werner_kinds", "mu_phis", "mu_phi0", "audit",
         "verify", "audit_defaults", "verify_defaults"],
)
def test_sweep_stdout_matches_golden(argv, code, name, capsys, monkeypatch):
    monkeypatch.delenv("VQR_SEED", raising=False)
    assert main(argv) == code
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
