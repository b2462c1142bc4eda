"""Command-line interface: subcommands, artifacts, determinism, exit codes."""

import json
import re

import numpy as np
import pytest

from qtmchain import asymptotic_constants, default_grid, kernel_system
from qtmchain.cli import _SUITE_TOL, main


def run(args):
    return main(args)


class TestVerify:
    def test_kernel_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "kernel", "--seed", "42", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(c["max_residual"] <= 1e-10 for c in report["checks"])

    def test_kernel_suite_reports_the_fixed_point_residual(self, tmp_path, capsys):
        # the asymptotic check reports the residual it measures at the
        # seed's draws, not a constant
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "kernel", "--seed", "42", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        got = [c["max_residual"] for c in checks if c["relation"] == "asymptotic_fixed_point"]
        rng = np.random.default_rng(42)
        want = []
        for n in (4, 5):
            rng.uniform(-30, 30, size=50)
            mu = tuple(float(rng.uniform(-0.3, 0.3)) for _ in range(n))
            logb, logB = asymptotic_constants(n, T=1.3, mu=mu)
            sy = kernel_system(n)
            want.append(float(np.max(np.abs(logb + sy.constants(mu, 1 / 1.3) + sy.matrix0() @ logB))))
        assert got == want
        assert all(0.0 < r <= 1e-10 for r in got)

    def test_default_suite_passes(self, tmp_path, capsys):
        # the default --suite all runs every suite, each check under the
        # suite tolerance
        out = tmp_path / "report.json"
        assert run(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True and report["seed"] == 42
        assert all(c["max_residual"] <= _SUITE_TOL for c in report["checks"])
        assert {c["relation"] for c in report["checks"]} == {
            "t_system",  # fusion
            "B=1+b", "y_system", "legacy_f_relations", "species_conjugation",  # aux
            "bae", "eaf_residues",  # eaf
            "hermiticity", "constants_sum_zero", "asymptotic_fixed_point",  # kernel
        }

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "--suite", "fusion", "--seed", "7", "--out", str(a)]) == 0
        assert run(["verify", "--suite", "fusion", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_draws(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--suite", "fusion", "--seed", "1", "--out", str(a)])
        run(["verify", "--suite", "fusion", "--seed", "2", "--out", str(b)])
        ra = json.loads(a.read_text())["checks"]
        rb = json.loads(b.read_text())["checks"]
        assert [c["max_residual"] for c in ra] != [c["max_residual"] for c in rb]


class TestSolve:
    def test_state_artifact(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        code = run(
            ["solve", "--n", "4", "--temp", "2.0", "--tol", "1e-12", "--out", str(out)]
        )
        assert code == 0
        state = json.loads(out.read_text())
        assert set(state) == {
            "params", "grid", "logb", "asymptote", "iterations", "residual", "f",
        }
        assert state["params"]["n"] == 4
        assert state["iterations"] <= 200
        assert len(state["logb"]) == 14

    def test_default_grid_when_points_absent(self, tmp_path, capsys):
        # without --points the grid is default_grid's, L = 50 and M = 2048
        # (dx = 0.049); --half-width alone keeps default_grid's points
        out = tmp_path / "state.json"
        assert run(["solve", "--n", "4", "--temp", "2.0", "--out", str(out)]) == 0
        grid = json.loads(out.read_text())["grid"]
        expect = default_grid(2.0)
        assert grid == {"half_width": expect.half_width, "points": expect.points}
        assert run(["solve", "--n", "4", "--temp", "2.0", "--half-width", "40",
                    "--out", str(out)]) == 0
        grid = json.loads(out.read_text())["grid"]
        assert grid == {"half_width": 40.0, "points": expect.points}

    def test_bad_config_exit_code(self, capsys):
        assert run(["solve", "--n", "3", "--temp", "1.0"]) == 2

    @pytest.mark.parametrize("args", [
        ["--temp", "1", "--points", "1000"],  # not a power of two
        ["--temp", "-1"],
        ["--temp", "2", "--half-width", "0"],  # zero is a width, not absent
        ["--temp", "1", "--points", "0"],  # zero is a count, not absent
    ])
    def test_domain_error_exit_code(self, args, capsys):
        assert run(["solve", "--n", "4", *args]) == 2


class TestSweep:
    def test_csv_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--n", "4", "--temp", "1:4:3log", "--out"]
        assert run(args + [str(a)]) == 0
        assert run(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0].split(",")[:6] == ["T", "mu_1", "mu_2", "mu_3", "mu_4", "f"]
        assert len(lines) == 4
        S = [float(l.split(",")[6]) for l in lines[1:]]
        assert S == sorted(S)

    def test_summary_line(self, capsys):
        assert run(["sweep", "--n", "4", "--temp", "1:2:2log"]) == 0
        err = capsys.readouterr().err.strip().split("\n")
        m = re.fullmatch(
            r"sweep: 2 points, 6 solves, (\d+) iterations, "
            r"worst residual (\S+), slowest solve (\S+) s, worst tail fit (\S+) "
            r"\(\|A2\| (\S+), \|A3\| (\S+)\), (\d+) preconditioners built",
            err[-1],
        )
        assert m, err
        assert int(m[1]) >= 6
        assert 0 < float(m[2]) < 1e-12
        assert float(m[3]) > 0
        # the worst centre solve's far-field fit residual, below the
        # solver's 1e-6 warning (3.6e-8 at T = 1, 2.1e-8 at T = 2, n = 4),
        # and its coefficients (|A2| 4.1e-4, |A3| 0.195 at T = 1)
        assert 0 < float(m[4]) < 1e-6
        assert 0 < float(m[5]) < 1e-3
        assert 0.1 < float(m[6]) < 0.3
        # both points have the mu = 0 asymptote and take their grid's map
        assert int(m[7]) == 0


    def test_wrong_mu_length_exit_code(self, capsys):
        # a configuration error, as for solve: no point runs
        assert run(["sweep", "--n", "4", "--temp", "1:2:2lin", "--mu", "0.1,0.2"]) == 2
        assert "FAILED" not in capsys.readouterr().err


class TestOracle:
    def test_ybe_report(self, tmp_path, capsys):
        out = tmp_path / "ybe.json"
        assert run(["oracle", "ybe", "--n", "3", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["residual"] <= 1e-13

    def test_spin2_report(self, capsys):
        assert run(["oracle", "spin2"]) == 0

    def test_qtm_report(self, tmp_path, capsys, monkeypatch):
        from qtmchain import cli, oracle

        expected = (oracle.trotter_free_energy(4, 2, 2.0),
                    oracle.qtm_eigenvalue(4, 2, T=2.0))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return expected[1]

        monkeypatch.setattr(cli, "qtm_eigenvalue", counted)
        monkeypatch.setattr(oracle, "qtm_eigenvalue", counted)
        out = tmp_path / "qtm.json"
        assert run(
            ["oracle", "qtm", "--n", "4", "--N", "2", "--temp", "2.0", "--out", str(out)]
        ) == 0
        rep = json.loads(out.read_text())
        # one power iteration gives both, f in trotter_free_energy's
        # normalization
        assert len(calls) == 1
        assert rep["trotter_f"] == expected[0]
        assert rep["eigenvalue"] == [expected[1].real, expected[1].imag]

    @pytest.mark.parametrize("flag", [[], ["--open"]])
    def test_ed_report(self, flag, tmp_path, capsys, monkeypatch):
        # f is finite_free_energy's, bit for bit, and the ground energy comes
        # from the same sector spectra, taken once: no dense n^L Hamiltonian
        # is built or diagonalized (the dense minimum is taken here, before
        # the spies)
        from qtmchain import oracle

        n, L, periodic = 4, 5, not flag
        f = oracle.finite_free_energy(n, L, 1.0, periodic=periodic)
        H = oracle.build_hamiltonian(n, L, periodic=periodic)
        dense = np.linalg.eigvalsh(H)[0] / L
        sectors = len(oracle._sector_spectra(n, L, periodic))
        rows, eigvalsh = [], np.linalg.eigvalsh
        passes, sector_spectra = [], oracle._sector_spectra

        def spectra(*args):
            passes.append(args)
            return sector_spectra(*args)

        monkeypatch.setattr(oracle, "_sector_spectra", spectra)

        def counted(a, *args, **kwargs):
            rows.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("dense Hamiltonian built")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(oracle, "build_hamiltonian", refused)
        out = tmp_path / "ed.json"
        assert run(["oracle", "ed", "--n", str(n), "--L", str(L), *flag,
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["f"] == f
        assert abs(rep["ground_energy_per_site"] - dense) <= 1e-14
        assert max(rows) < n**L
        assert passes == [(n, L, periodic)] and len(rows) == sectors


class TestDumpKernel:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        assert run(["dump-kernel", "--n", "5", "--k", "0.5", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 30
        mat = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert mat.shape == (30, 30)
        # hermiticity golden spot-check against the k -> -k transpose
        out2 = tmp_path / "kernel2.csv"
        run(["dump-kernel", "--n", "5", "--k", "-0.5", "--out", str(out2)])
        mat2 = np.array(
            [[float(v) for v in r.split(",")] for r in out2.read_text().strip().split("\n")]
        )
        assert np.max(np.abs(mat - mat2.T)) < 1e-12

    def test_nan_k_exit_code(self, capsys):
        assert run(["dump-kernel", "--n", "4", "--k", "nan"]) == 2
        assert capsys.readouterr().out == ""


class TestWriter:
    """Every command writes through one function: verify and oracle echo
    their --out file on stdout, sweep and dump-kernel write their table to
    --out in place of stdout, and solve --out writes the state beside its
    summary line."""

    @pytest.mark.parametrize("args", [["verify", "--suite", "kernel"], ["oracle", "ybe"]])
    def test_report_echoed(self, args, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("args", [
        ["sweep", "--n", "4", "--temp", "1:2:2log"],
        ["dump-kernel", "--n", "4", "--k", "0.5"],
    ])
    def test_table_to_file_alone(self, args, tmp_path, capsys):
        assert run(args) == 0
        table = capsys.readouterr().out
        out = tmp_path / "table.csv"
        assert run([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == table

    def test_solve_state_beside_summary(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        assert run(["solve", "--n", "4", "--temp", "2.0", "--out", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text))  # compact, no newline
        summary = capsys.readouterr().out
        assert re.fullmatch(r"n=4 T=2\.0: converged in \d+ iterations, residual \S+, "
                            r"f = \S+\n", summary), summary
