"""Byte-exact golden outputs of the sweep commands at README defaults.

The files under tests/golden/ are the stdout of `vqr werner`, `vqr mu` and
`vqr rmax` with no options, recorded with numpy 2.4.6 on OpenBLAS
0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels).  A few entries of
mu.csv are at the 1e-16 rounding level, so they depend on the BLAS build:
on another build this test can fail although the program is correct.
"""

from pathlib import Path

import pytest

from vqr.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["werner", "mu", "rmax"])
def test_sweep_stdout_matches_golden(command, capsys, monkeypatch):
    monkeypatch.delenv("VQR_SEED", raising=False)
    assert main([command]) == 0
    expected = (GOLDEN / f"{command}.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
