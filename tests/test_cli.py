"""Command-line interface contracts: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from archcop.cli import main

CLI = [sys.executable, "-m", "archcop.cli"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_product_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "f1", "--alpha", "1.0",
                               "--u", "0.3", "--v", "0.7")
        assert code == 0
        lines = dict(line.split("=") for line in out.strip().split("\n"))
        assert float(lines["C"]) == pytest.approx(0.21, rel=1e-12)
        assert float(lines["c"]) == pytest.approx(1.0, rel=1e-12)

    def test_f3_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "f3", "--alpha", "2.0",
                               "--u", "0.5", "--v", "0.5")
        assert code == 0
        assert float(out.split("\n")[0].split("=")[1]) == pytest.approx(0.3, rel=1e-12)

    def test_boundary_omits_density(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "f2", "--alpha", "0.7",
                               "--u", "1.0", "--v", "0.42")
        assert code == 0
        assert "c=" not in out
        assert float(out.strip().split("=")[1]) == 0.42

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "f1", "--alpha", "1.5",
                               "--u", "0.5", "--v", "0.5")
        assert code == 2
        assert "alpha out of domain (0,1]" in err

    def test_usage_error_exit_2(self, capsys):
        assert main(["eval", "--family", "f9", "--u", "0.5", "--v", "0.5"]) == 2


class TestGrid:
    def test_generator_monotone_convex(self, capsys, tmp_path):
        out_file = tmp_path / "gen.csv"
        code, _, _ = run_cli(capsys, "grid", "--family", "f1", "--alpha", "0.6",
                             "--what", "generator", "--grid-n", "200",
                             "--out", str(out_file))
        assert code == 0
        rows = out_file.read_text().strip().split("\n")
        assert rows[0] == "z,phi"
        vals = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
        p = vals[:, 1]
        assert np.all(np.diff(p) < 0)  # strictly decreasing
        assert np.all(np.diff(np.diff(p)) > 0)  # convex on the uniform grid

    def test_pdf_grid_product(self, capsys, tmp_path):
        out_file = tmp_path / "pdf.csv"
        code, _, _ = run_cli(capsys, "grid", "--family", "f1", "--alpha", "1.0",
                             "--what", "pdf", "--grid-n", "10", "--out", str(out_file))
        assert code == 0
        rows = out_file.read_text().strip().split("\n")[1:]
        assert len(rows) == 100
        assert all(float(r.split(",")[2]) == pytest.approx(1.0, rel=1e-12)
                   for r in rows)

    def test_f3_cdf_grid_alpha_invariant(self, capsys, tmp_path):
        files = []
        for alpha in ("0.1", "10"):
            f = tmp_path / f"cdf{alpha}.csv"
            assert run_cli(capsys, "grid", "--family", "f3", "--alpha", alpha,
                           "--what", "cdf", "--grid-n", "20",
                           "--out", str(f))[0] == 0
            files.append(f)
        a, b = (np.array([float(r.split(",")[2]) for r in
                          f.read_text().strip().split("\n")[1:]]) for f in files)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestCheck:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "f2", "--alpha", "0.4",
                               "--grid-n", "100")
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_f1_small_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "f1", "--alpha", "0.1",
                               "--grid-n", "100")
        assert code == 0

    def test_gumbel_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--family", "gumbel",
                             "--theta", "0.5")
        assert code == 2


class TestTau:
    def test_closed(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--family", "f1", "--alpha", "0.25",
                               "--method", "closed")
        assert code == 0
        assert json.loads(out)["tau"] == 0.75

    def test_quadrature_f3(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--family", "f3", "--alpha", "1",
                               "--method", "quadrature")
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"] == pytest.approx(0.2033, abs=1e-3)

    def test_quadrature_f2_errata_note_in_closed(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--family", "f2", "--alpha", "0.5",
                               "--method", "closed")
        doc = json.loads(out)
        assert doc["tau"] == 0.75
        assert "errata" in doc["note"]

    def test_mc_requires_args(self, capsys):
        code, _, err = run_cli(capsys, "tau", "--family", "f1", "--alpha", "0.5",
                               "--method", "mc")
        assert code == 2

    @pytest.mark.parametrize("text,line", [
        ("bad\n", 1),
        ("u,v\n0.1;0.2\n", 2),
        ("0.1,0.2\n0.5\n", 2),
        ("0.1,0.2,0.3\n", 1),
        ("u,v\n0.1,0.2\n\n1.5,0.2\n", 4),
        ("0.1,0.2\n-0.001,0.2\n", 2),
        ("0.1,nan\n", 1),
        ("0.1,0.2\n\n\n0.3,inf\n", 4),
    ])
    def test_mc_malformed_stdin_exit_2(self, capsys, monkeypatch, text, line):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "tau", "--method", "mc")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: line {line}: ")
        assert err.count("\n") == 1

    def test_mc_empty_stdin_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("u,v\n\n"))
        code, _, err = run_cli(capsys, "tau", "--method", "mc")
        assert code == 2
        assert "no pairs" in err

    def test_json_single_line_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "tau", "--family", "gumbel", "--theta", "2",
                            "--method", "closed")
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert list(doc) == sorted(doc)


class TestSample:
    def test_range_and_count(self, capsys, tmp_path):
        f = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sample", "--family", "f3", "--alpha", "1",
                             "--n", "1000", "--seed", "42", "--method", "frailty",
                             "--out", str(f))
        assert code == 0
        rows = f.read_text().strip().split("\n")
        assert rows[0] == "u,v"
        assert len(rows) == 1001
        vals = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
        assert np.all((vals > 0.0) & (vals < 1.0))

    def test_frailty_rejects_other_family(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--family", "f1", "--alpha", "0.5",
                             "--n", "10", "--seed", "1", "--method", "frailty")
        assert code == 2


class TestDeterminismSubprocess:
    def test_sample_byte_identical(self, tmp_path):
        args = CLI + ["sample", "--family", "f3", "--alpha", "1", "--n", "200",
                      "--seed", "42", "--method", "frailty"]
        a = subprocess.run(args, capture_output=True, check=True).stdout
        b = subprocess.run(args, capture_output=True, check=True).stdout
        assert a == b and len(a) > 0

    def test_check_byte_identical(self):
        args = CLI + ["check", "--family", "f1", "--alpha", "0.6", "--grid-n", "30"]
        a = subprocess.run(args, capture_output=True, check=True).stdout
        b = subprocess.run(args, capture_output=True, check=True).stdout
        assert a == b

    def test_sample_piped_to_tau(self):
        sample = subprocess.run(
            CLI + ["sample", "--family", "f1", "--alpha", "0.5", "--n", "20000",
                   "--seed", "7", "--method", "conditional"],
            capture_output=True, check=True).stdout
        tau = subprocess.run(CLI + ["tau", "--method", "mc"], input=sample,
                             capture_output=True, check=True).stdout
        doc = json.loads(tau)
        assert abs(doc["tau"] - 0.5) <= 3.0 * doc["error_bound"]

    def test_closed_pipe_exit_141(self):
        # The reader is gone before the command writes, as after `| head`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                CLI + ["check", "--family", "f1", "--alpha", "0.5", "--grid-n", "20"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestBoundaryErrors:
    """Bad seeds and unwritable --out paths are usage errors: exit 2 and
    one stderr line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "f1", "--alpha", "0.5", "--n", "10", "--seed", "-1"],
        ["sample", "--family", "f3", "--alpha", "1", "--n", "10",
         "--seed", str(2**128), "--method", "frailty"],
        ["tau", "--family", "gumbel", "--theta", "2", "--method", "mc",
         "--n", "300", "--seed", "-5"],
    ])
    def test_seed_out_of_range_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: seed out of domain [0, 2**128)\n"

    def test_largest_seed_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--family", "f1", "--alpha", "0.5",
                             "--n", "10", "--seed", str(2**128 - 1))
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "f1", "--alpha", "0.5", "--n", "10", "--seed", "1"],
        ["grid", "--family", "f2", "--alpha", "0.5", "--what", "cdf", "--grid-n", "5"],
    ])
    def test_out_in_missing_directory_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --out {str(path)!r}: ")
        assert err.count("\n") == 1
        assert not path.parent.exists()
