import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vqr import audit
from vqr.audit import (
    AXIOMS,
    AUDIT_KINDS,
    PROPERTY_COLUMNS,
    run_audit,
    run_axiom_cell,
    run_property_table,
)
from vqr.cli import main
from vqr.errors import InvalidAlpha, InvalidOrder, OutOfRange
from vqr.metrics import TRIAL_BLOCK, check_distance_properties
from vqr.states import computational_observable, werner
from vqr.sweeps import (
    MU_KINDS,
    RMAX_KINDS,
    WERNER_KINDS,
    SweepSpec,
    parse_kind,
    rows_to_csv,
    run_mu_sweep,
    run_rmax_sweep,
    run_werner_sweep,
    WERNER_FIELDS,
)
from vqr.verify import run_verify

SEED = 20240


def werner_spec(steps=11, kinds=("vn", "tr", "hs", "bu", "he")):
    return SweepSpec("werner", {"eps_steps": steps}, tuple(kinds), SEED)


class TestKindParsing:
    def test_simple_tokens(self):
        assert parse_kind("tr").family == "tr"
        assert parse_kind("vn").family == "vn"
        assert parse_kind("lp2.5").p == 2.5
        # parse_kind is the inverse of token() on every tabulated token
        tokens = set(WERNER_KINDS + RMAX_KINDS + MU_KINDS + AUDIT_KINDS)
        tokens |= {token for token, _ in PROPERTY_COLUMNS}
        tokens |= {"lp1.5", "renyi0.5", "srenyi2"}
        for token in tokens:
            assert parse_kind(token).token() == token
        # a label shows the power, omitted when it is 1
        assert [parse_kind(t).label() for t in ("tr", "hs", "lp3")] == ["tr", "hs^2", "lp3^3"]
        assert [parse_kind(t).with_power(1).label() for t in ("hs", "bu", "lp3")] == [
            "hs", "bu", "lp3"
        ]

    def test_bad_token(self):
        for token in ("xx", "lpabc", "renyi"):
            with pytest.raises(OutOfRange):
                parse_kind(token)
        for token in ("lpnan", "lpinf", "lp1e400", "lp-inf"):
            with pytest.raises(InvalidOrder):
                parse_kind(token)
        for token in ("renyinan", "srenyiinf"):
            with pytest.raises(InvalidAlpha):
                parse_kind(token)


class TestWernerSweep:
    def test_rows_and_plateau(self):
        rows = run_werner_sweep(werner_spec(steps=13))
        assert len(rows) == 13 * 5
        # trace column constant 1/2 on [0, 1/3]
        for row in rows:
            if row["kind"] == "tr" and row["epsilon"] <= 1 / 3:
                assert row["r_value"] == pytest.approx(0.5, abs=1e-10)

    def test_eps_zero_saturates_every_kind(self):
        rows = [r for r in run_werner_sweep(werner_spec(steps=3)) if r["epsilon"] == 0.0]
        for row in rows:
            assert row["r_value"] == pytest.approx(row["r_max"], abs=1e-10)

    def test_eps_one_von_neumann_zero(self):
        rows = run_werner_sweep(werner_spec(steps=3))
        last_vn = [r for r in rows if r["kind"] == "vn" and r["epsilon"] == 1.0]
        assert last_vn[0]["r_value"] == pytest.approx(0.0, abs=1e-10)

    def test_bures_decreasing_in_eps(self):
        rows = [r for r in run_werner_sweep(werner_spec(steps=5, kinds=("bu",)))]
        values = [r["r_value"] for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_rows_echo_spec_hash(self):
        spec = werner_spec(steps=3)
        rows = run_werner_sweep(spec)
        assert {r["spec_hash"] for r in rows} == {spec.spec_hash()}


class TestRmaxSweep:
    def test_values_at_two(self):
        spec = SweepSpec("rmax", {"d_max": 4}, ("tr", "hs", "bu", "he", "vn"), SEED)
        rows = run_rmax_sweep(spec)
        at2 = {r["kind"]: r["r_max"] for r in rows if r["d_e"] == 2}
        assert at2["tr"] == pytest.approx(0.5, abs=1e-9)
        assert at2["hs"] == pytest.approx(0.25, abs=1e-9)
        assert at2["bu"] == pytest.approx(np.sqrt(2) - 1, abs=1e-9)
        assert at2["he"] == pytest.approx(np.sqrt(2) - 1, abs=1e-9)
        assert at2["vn"] == pytest.approx(np.log(2), abs=1e-9)

    def test_shapes(self):
        spec = SweepSpec("rmax", {"d_max": 16}, ("tr", "hs", "bu", "he", "vn"), SEED)
        rows = run_rmax_sweep(spec)
        series = {
            kind: [r["r_max"] for r in rows if r["kind"] == kind]
            for kind in ("tr", "hs", "bu", "he", "vn")
        }
        for kind in ("tr", "hs"):
            assert all(a >= b - 1e-12 for a, b in zip(series[kind], series[kind][1:]))
        # Bures/Hellinger peak at d_E = 4 (value 1/2), then decay; the
        # d_E = 16 value sits strictly below the d_E = 2 value
        for kind in ("bu", "he"):
            values = series[kind]
            assert values[2] == pytest.approx(0.5, abs=1e-10)
            tail = values[2:]
            assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
            assert values[-1] < values[0]
        assert series["vn"] == pytest.approx([np.log(d) for d in range(2, 17)], abs=1e-12)
        assert all(a <= b for a, b in zip(series["vn"], series["vn"][1:]))


class TestMuSweep:
    def test_gap_pattern(self):
        spec = SweepSpec("mu", {"mu_steps": 11, "phis": [0.0, np.pi / 4, np.pi / 2]},
                         ("bu", "he"), SEED)
        rows = run_mu_sweep(spec)
        by_key = {(r["mu"], r["phi"], r["kind"]): r["r_value"] for r in rows}
        for mu in {r["mu"] for r in rows}:
            assert by_key[(mu, 0.0, "bu")] == pytest.approx(
                by_key[(mu, 0.0, "he")], abs=1e-10
            )
        gap = abs(
            by_key[(0.8, np.pi / 4, "bu")] - by_key[(0.8, np.pi / 4, "he")]
        )
        assert gap > 1e-6

    def test_mu_one_equator_detects_vqr(self):
        spec = SweepSpec("mu", {"mu_steps": 3, "phis": [np.pi / 2]}, ("bu", "he"), SEED)
        rows = run_mu_sweep(spec)
        from vqr.realism import realism_max
        from vqr.metrics import BURES

        r_max = realism_max(BURES, 2)
        top = [r for r in rows if r["mu"] == 1.0]
        assert all(r["r_value"] < r_max - 1e-3 for r in top)


class TestDeterminism:
    def test_byte_identical_csv(self):
        spec = werner_spec(steps=7)
        first = rows_to_csv(run_werner_sweep(spec), WERNER_FIELDS)
        second = rows_to_csv(run_werner_sweep(spec), WERNER_FIELDS)
        assert first == second
        assert "\r" not in first
        assert first.endswith("\n")

    def test_format_12_significant_digits(self):
        from vqr.sweeps import fmt

        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(np.log(2)) == "0.69314718056"
        assert fmt(2) == "2"


class TestAudit:
    def test_cell_reproducibility(self):
        first = run_axiom_cell("tr", "axiom1", 20, SEED)
        second = run_axiom_cell("tr", "axiom1", 20, SEED)
        assert first == second

    @pytest.mark.parametrize("trials", [1, 7, 20, 2 * TRIAL_BLOCK + 1])
    def test_shared_search_matches_each_single_cell(self, trials):
        # run_audit searches each axiom for all kinds at once; every cell
        # must equal the cell searched on its own.
        cells = {
            (r["kind"], r["axiom"]): r
            for r in run_audit(trials, SEED, property_trials=1)["axioms"]
        }
        assert len(cells) == len(AUDIT_KINDS) * len(AXIOMS)
        for kind in AUDIT_KINDS:
            for axiom in AXIOMS:
                assert run_axiom_cell(kind, axiom, trials, SEED) == cells[(kind, axiom)]

    def test_each_kind_keeps_its_own_first_witness(self, monkeypatch):
        # A synthetic axiom whose cases fail for tr from case 0 and for hs
        # from case 2: the shared search keeps testing hs (and bu, which
        # never fails) after tr's witness, and tests tr no more.  Each case
        # is (witness, pairs); the witness is called once per kind still
        # without a witness, on that kind's gains of the case's pairs.
        first_failure = {"tr": 0, "hs": 2}
        tested = []
        pair = (werner(0.5), computational_observable(2, 0, (2, 2)))

        def cases(seed, trials):
            for i in range(trials):
                def witness(kind, gain, i=i):
                    tested.append((kind.token(), i))
                    return f"case {i}" if i >= first_failure.get(kind.token(), trials) else None

                yield seed + i, (witness, (pair,))

        monkeypatch.setitem(audit._AXIOM_CASES, "axiom4", cases)
        found = audit._first_witnesses("axiom4", ["tr", "hs", "bu"], 4, 0)
        cell_seed = 1_000_000 * (AXIOMS.index("axiom4") + 1)
        assert found == [("case 0", cell_seed), ("case 2", cell_seed + 2), (None, None)]
        assert [i for token, i in tested if token == "tr"] == [0]
        assert [i for token, i in tested if token == "bu"] == [0, 1, 2, 3]

    def test_property_table_matches_each_single_column(self):
        # run_property_table draws each probe once for all columns; each
        # column must equal check_distance_properties run on it alone.
        self._assert_columns_match(10)

    def test_property_table_matches_each_single_column_across_blocks(self):
        # Two whole blocks of stacked trials and one trial of a third.
        self._assert_columns_match(2 * TRIAL_BLOCK + 1)

    @staticmethod
    def _assert_columns_match(trials):
        rows = run_property_table(trials, SEED)
        for token, power in PROPERTY_COLUMNS:
            kind = parse_kind(token).with_power(power)
            shared = [
                {k: v for k, v in row.items() if k not in ("expected_pass", "matches_nominal")}
                for row in rows
                if row["kind"] == kind.label()
            ]
            single = [report.to_json() for report in check_distance_properties(kind, trials, SEED)]
            assert shared == single, kind.label()

    def test_crosses_have_witnesses(self):
        result = run_audit(trials=40, seed=SEED, property_trials=20)
        cells = {(r["kind"], r["axiom"]): r for r in result["axioms"]}
        for key in [("tr", "axiom1"), ("tr", "axiom3"), ("hs", "axiom2b"), ("lp3", "axiom2b")]:
            assert cells[key]["verdict"] == "counterexample"
            assert cells[key]["witness"]
        assert "werner(0.2)" in cells[("tr", "axiom1")]["witness"]
        assert "werner(0.2)" in cells[("tr", "axiom3")]["witness"]

    def test_lp_question_cells_are_unverified(self):
        result = run_audit(trials=20, seed=SEED, property_trials=10)
        cells = {(r["kind"], r["axiom"]): r for r in result["axioms"]}
        for axiom in ("axiom1", "axiom2a", "axiom3"):
            assert cells[("lp3", axiom)]["verdict"] == "unverified"

    def test_only_known_deviation_differs_from_nominal(self):
        result = run_audit(trials=40, seed=SEED, property_trials=40)
        mismatched = {
            (m.get("kind"), m.get("axiom", m.get("property")))
            for m in result["mismatches"]
        }
        assert mismatched == {("hs", "axiom2a")}
        assert not result["pattern_match"]
        cell = {(r["kind"], r["axiom"]): r for r in result["axioms"]}[("hs", "axiom2a")]
        assert "known_deviation" in cell

    def test_covers_full_grid(self):
        result = run_audit(trials=5, seed=SEED, property_trials=5)
        assert len(result["axioms"]) == len(AUDIT_KINDS) * len(AXIOMS)
        assert len(result["properties"]) == 9 * 4


class TestVerify:
    def test_all_identities_pass(self):
        result = run_verify(trials=30, seed=SEED)
        failing = [r for r in result["identities"] if not r["pass"]]
        assert not failing
        assert result["pass"]

    def test_row_schema(self):
        result = run_verify(trials=5, seed=SEED)
        row = result["identities"][0]
        assert set(row) == {"identity", "trials", "max_residual", "tolerance", "pass"}

    def test_expected_identities_present(self):
        result = run_verify(trials=5, seed=SEED)
        names = {r["identity"] for r in result["identities"]}
        assert "hs_purity_loss_identity" in names
        assert "bures_from_sandwiched_renyi_half" in names
        assert "dilation_invariance" in names
        assert {n for n in names if n.startswith("information_gain_closed_form")} == {
            f"information_gain_closed_form_{k}" for k in ("tr", "hs", "bu", "he", "lp1.5", "lp3")
        }


class TestCli:
    def test_werner_stdout(self, capsys):
        assert main(["werner", "--eps-steps", "3", "--kinds", "tr,bu"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "spec_hash,epsilon,kind,r_value,r_max,delta_i"
        assert len(lines) == 1 + 3 * 2

    def test_out_file_and_gnuplot(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code = main(["werner", "--eps-steps", "3", "--out", str(path), "--gnuplot"])
        assert capsys.readouterr().out == ""
        assert code == 0
        text = path.read_text()
        assert text.startswith("spec_hash,epsilon,kind")
        assert (tmp_path / "sweep.csv.gp").read_text().startswith(
            f"# gnuplot companion for {path}\n"
        )

    def test_json_out_file_has_no_gnuplot_script(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        code = main(["werner", "--eps-steps", "3", "--kinds", "tr", "--out", str(path),
                     "--gnuplot"])
        assert code == 0
        assert capsys.readouterr().out == ""
        rows = json.loads(path.read_text())
        assert [row["epsilon"] for row in rows] == [0.0, 0.5, 1.0]
        assert not (tmp_path / "sweep.json.gp").exists()

    def test_mu_custom_phi(self, tmp_path, capsys):
        path = tmp_path / "mu.csv"
        code = main(["mu", "--mu-steps", "3", "--phi", "0,1.5707963267948966",
                     "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        assert len(path.read_text().strip().split("\n")) == 1 + 3 * 2 * 2

    def test_verify_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        code = main(["verify", "--trials", "5", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["pass"] is True

    def test_audit_exit_two_due_to_known_deviation(self, tmp_path, capsys):
        path = tmp_path / "audit.json"
        code = main(["audit", "--trials", "10", "--property-trials", "10",
                     "--out", str(path)])
        capsys.readouterr()
        assert code == 2
        payload = json.loads(path.read_text())
        assert payload["pattern_match"] is False
        assert [m.get("axiom") for m in payload["mismatches"]] == ["axiom2a"]

    @pytest.mark.parametrize("phi", ["", ","], ids=["empty", "comma"])
    def test_mu_without_angles_exits_one(self, phi, capsys):
        code = main(["mu", "--phi", phi])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "vqr: need at least one azimuthal angle\n"

    def test_werner_two_grid_points(self, capsys):
        code = main(["werner", "--eps-steps", "2"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert len(lines) == 1 + 2 * len(WERNER_KINDS)
        assert [line.split(",")[1] for line in lines[1:]] == ["0"] * 5 + ["1"] * 5
        # the grid's ends, evaluated in a stack of two, as in the 101-point table
        golden = os.path.join(os.path.dirname(__file__), "golden", "werner.csv")
        with open(golden, encoding="utf-8") as fh:
            full = fh.read().strip().split("\n")
        ends = full[1:6] + full[-5:]
        assert [line.split(",", 1)[1] for line in lines[1:]] == [
            line.split(",", 1)[1] for line in ends
        ]

    def test_kind_without_realism_recipe_exits_one(self, capsys):
        code = main(["werner", "--kinds", "tr,renyi0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "vqr: no realism recipe for divergence renyi0.5\n"

    def test_mu_unreadable_phi_exits_one(self, capsys):
        code = main(["mu", "--mu-steps", "3", "--phi", "abc"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("vqr: --phi takes comma-separated numbers")

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_mu_non_finite_phi_exits_one(self, phi, capsys):
        code = main(["mu", "--mu-steps", "3", "--phi", f"0,{phi}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"vqr: phi must be finite, got {phi}\n"

    def test_mu_only_angle_nan_exits_one(self, capsys):
        code = main(["mu", "--phi", "nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "vqr: phi must be finite, got nan\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify", "--trials", "-3"], "trials"),
            (["verify", "--trials", "0"], "trials"),
            (["audit", "--trials", "0"], "trials"),
            (["audit", "--trials", "2", "--property-trials", "-1"], "property_trials"),
        ],
    )
    def test_trial_count_below_one_exits_one(self, argv, name, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"vqr: {name} must be at least 1")

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["verify", "--trials", "1", "--seed", "-1"], None),
            (["audit", "--trials", "1", "--seed", "-1"], None),
            (["verify", "--trials", "1"], "-1"),
            (["audit", "--trials", "1"], "-1"),
        ],
    )
    def test_negative_seed_exits_one(self, argv, env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("VQR_SEED", env)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "vqr: seed must be at least 0, got -1\n"

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["werner", "--eps-steps", "not-a-number"])
        assert err.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_io_error_exits_one(self, capsys):
        code = main(["werner", "--eps-steps", "3", "--out", "/nonexistent-dir/x.csv"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("token", ["lpnan", "lpinf", "lp1e400"])
    def test_non_finite_order_exits_one(self, token, capsys):
        code = main(["werner", "--eps-steps", "3", "--kinds", token])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("vqr: lp distance needs a finite p >= 1")

    def test_env_seed_fallback(self, tmp_path):
        env = dict(os.environ, VQR_SEED="777", PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "vqr.cli", "verify", "--trials", "2"],
            capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)) or ".",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["seed"] == 777

    def test_env_seed_not_an_integer(self):
        env = dict(os.environ, VQR_SEED="abc", PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "vqr.cli", "verify", "--trials", "1"],
            capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)) or ".",
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "vqr: VQR_SEED must be an integer, got 'abc'\n"

    def test_installed_entry_point(self, tmp_path):
        # Run the `vqr` command declared in pyproject.toml from this checkout:
        # write the launcher an installer would generate for the
        # [project.scripts] target and invoke it by name through PATH.
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(repo, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["vqr"]
        module, _, attr = target.partition(":")
        launcher = tmp_path / "vqr"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "sys.argv[0] = 'vqr'\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        env = dict(
            os.environ,
            PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]),
            PYTHONPATH=os.pathsep.join(
                [os.path.join(repo, "src"), os.environ.get("PYTHONPATH", "")]
            ),
        )
        proc = subprocess.run(
            ["vqr", "rmax", "--dmax", "3", "--kinds", "vn"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("spec_hash,d_e,kind,r_max"), proc.stderr
