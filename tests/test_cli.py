"""Command-line interface contracts: formats, exit codes, determinism."""

import gc
import importlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import archcop
from archcop import cli, families, sampling
from archcop.cli import main
from archcop.families import DomainError
from oracles import LineCountingStream, grid_csv_loops, read_pairs_loop

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

    @pytest.mark.parametrize("family,flag,param", [("f2", "--alpha", "0.05"),
                                                   ("gumbel", "--theta", "400")])
    def test_density_overflow_to_inf_is_silent(self, family, flag, param):
        # the true density (1.13e309 for f2) is past the double range
        done = subprocess.run(CLI + ["eval", "--family", family, flag, param,
                                     "--u", "1e-310", "--v", "1e-310"],
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[1] == "c=inf"


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
        texts = []
        for alpha in ("0.1", "10", "1e-300", "1e300"):
            f = tmp_path / f"cdf{alpha}.csv"
            assert run_cli(capsys, "grid", "--family", "f3", "--alpha", alpha,
                           "--what", "cdf", "--grid-n", "20",
                           "--out", str(f))[0] == 0
            texts.append(f.read_bytes())
        assert texts[0].count(b"\n") == 21 * 21 + 1
        assert all(t == texts[0] for t in texts)

    def test_f3_frailty_sample_alpha_invariant(self, capsys, tmp_path):
        # the frailty draw is taken at alpha = 1, which no alpha can under-
        # or overflow
        texts = []
        for alpha in ("1", "0.1", "10", "1e-300", "1e300", "5e-324",
                      "1.7976931348623157e308"):
            f = tmp_path / f"sample{alpha}.csv"
            assert run_cli(capsys, "sample", "--family", "f3", "--alpha", alpha,
                           "--n", "200", "--seed", "5", "--method", "frailty",
                           "--out", str(f)) == (0, "", "")
            texts.append(f.read_bytes())
        assert texts[0].count(b"\n") == 201
        assert all(t == texts[0] for t in texts)


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

    def test_f3_smallest_alpha(self, capsys):
        code, out, err = run_cli(capsys, "check", "--family", "f3", "--alpha", "5e-324",
                                 "--grid-n", "10")
        assert (code, err) == (0, "")
        assert json.loads(out)["generator_conditions"]["diverges_at_zero"] is True

    def test_gumbel_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--family", "gumbel",
                             "--theta", "0.5")
        assert code == 2


number_text = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    # what float() reads besides repr's text, in range or not, and texts
    # where numpy's parser and float() disagree or round
    st.sampled_from([" 0.5", "0.25 ", "+0.25", "5E-1", "1", "0", "-0.0", "0_5", "nan",
                     "-inf", "1e5", "-1e-300", "1.0000000000000002", "nan(1)", "infinity",
                     "1e-400", "\u0660.\u0665", "0.5 ", "\xa00.5", "1d0", ".5", "5.", " "]),
    # 20 to 25 significant digits, which both must round to the same double
    st.from_regex(r"0\.[0-9]{20,25}", fullmatch=True),
)
stdin_line = st.one_of(
    st.tuples(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    .map(lambda p: f"{p[0]!r},{p[1]!r}"),
    st.tuples(number_text, number_text).map(",".join),
    st.sampled_from(["", "   ", "\t", "u,v", "u,anything", "u,v,w"]),
    st.sampled_from(["bad", "0.1;0.2", "0.5", "0.1,0.2,0.3", ",", "0.1,", "0x1p-1,0.5", "u v"]),
)


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

    @given(lines=st.lists(stdin_line, max_size=40), eol=st.sampled_from(["\n", "\r\n"]),
           end=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_stdin_blocks_match_line_loop(self, lines, eol, end):
        # 7-line blocks put blank, header, malformed and out-of-range lines
        # on either side of many seams, and clean blocks between them
        text = eol.join(lines) + eol * end
        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "BLOCK", 7)
            for read in (cli._read_pairs, read_pairs_loop):
                try:
                    pairs = read(io.StringIO(text))
                    outcomes.append((pairs.shape, pairs.tobytes()))
                except DomainError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_clean_stdin_is_parsed_without_the_line_loop(self, monkeypatch):
        # a header and 6000 clean pairs: two blocks, each in one numpy call
        rng = np.random.default_rng(3)
        pairs = rng.random((6000, 2))
        text = "u,v\n" + "".join(f"{u!r},{v!r}\n" for u, v in pairs.tolist())

        def line_loop(lines, first):
            raise AssertionError(f"block at line {first} went through the line loop")

        monkeypatch.setattr(cli, "_parse_lines", line_loop)
        assert cli._read_pairs(io.StringIO(text)).tobytes() == pairs.tobytes()

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
        for argv in (["check", "--family", "f1", "--alpha", "0.5", "--grid-n", "20"],
                     ["grid", "--family", "f1", "--alpha", "0.5", "--what", "cdf",
                      "--grid-n", "300"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(CLI + argv, stdout=write_end, stderr=subprocess.PIPE,
                                      timeout=60)
            finally:
                os.close(write_end)
            assert proc.returncode == 141
            assert proc.stderr == b""


class TestNoNumpyRandom:
    """The samplers compute their Philox stream in numpy, so no command
    loads ``numpy.random`` (numpy < 2 loads it with numpy itself)."""

    AT_EXIT = ("import atexit, sys\n"
               "atexit.register(lambda: print('numpy.random' in sys.modules, file=sys.stderr))\n")
    CLI = AT_EXIT + "import runpy\nrunpy.run_module('archcop.cli', run_name='__main__')\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "f1", "--alpha", "0.5", "--n", "500", "--seed", "3"],
        ["sample", "--family", "f3", "--alpha", "1", "--n", "500", "--seed", "3",
         "--method", "frailty"],
        ["tau", "--method", "mc", "--family", "f1", "--alpha", "0.5", "--n", "500",
         "--seed", "3"],
    ])
    def test_command_does_not_load_numpy_random(self, argv):
        numpy_alone = subprocess.run([sys.executable, "-c", self.AT_EXIT + "import numpy\n"],
                                     capture_output=True, text=True, check=True)
        if numpy_alone.stderr == "True\n":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        done = subprocess.run([sys.executable, "-c", self.CLI, *argv],
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "False\n")


class TestModulesLoaded:
    """``import archcop`` loads none of its modules, and each command only
    those it calls.  The CLI module itself runs as ``__main__``."""

    AT_EXIT = ("import atexit, sys\n"
               "atexit.register(lambda: print(*sorted(m for m in sys.modules\n"
               "                                      if m.split('.')[0] == 'archcop'),\n"
               "                              file=sys.stderr))\n")
    CLI = AT_EXIT + "import runpy\nrunpy.run_module('archcop.cli', run_name='__main__')\n"
    F1 = ["--family", "f1", "--alpha", "0.5"]

    @pytest.mark.parametrize("argv,stdin,modules", [
        (["eval", *F1, "--u", "0.3", "--v", "0.7"], "", "copula"),
        (["grid", *F1, "--what", "cdf", "--grid-n", "4"], "", "copula csvtext"),
        (["grid", *F1, "--what", "pdf", "--grid-n", "4"], "", "csvtext"),
        (["grid", *F1, "--what", "generator", "--grid-n", "4"], "", "csvtext"),
        (["check", *F1, "--grid-n", "10"], "", "_backend copula diagnostics generators"),
        (["tau", *F1, "--method", "closed"], "", "_backend copula diagnostics"),
        (["tau", *F1, "--method", "quadrature"], "", "_backend copula diagnostics numerics"),
        (["tau", "--method", "mc"], "u,v\n0.1,0.2\n0.3,0.5\n0.6,0.4\n",
         "_backend copula diagnostics"),
        (["tau", *F1, "--method", "mc", "--n", "50", "--seed", "1"], "",
         "_backend copula diagnostics sampling"),
        (["sample", *F1, "--n", "50", "--seed", "1"], "", "csvtext sampling"),
        (["sample", "--family", "f3", "--alpha", "1", "--n", "50", "--seed", "1",
          "--method", "frailty"], "", "csvtext sampling"),
        (["--help"], "", ""),
    ])
    def test_command_loads_only_its_modules(self, argv, stdin, modules):
        done = subprocess.run([sys.executable, "-c", self.CLI, *argv], input=stdin,
                              capture_output=True, text=True)
        assert done.returncode == 0
        loaded = ["archcop", "archcop.families", *(f"archcop.{m}" for m in modules.split())]
        assert done.stderr.split() == sorted(loaded)

    def test_import_loads_no_module(self):
        done = subprocess.run([sys.executable, "-c", self.AT_EXIT + "import archcop\n"],
                              capture_output=True, text=True, check=True)
        assert done.stderr.split() == ["archcop"]

    def test_each_name_is_its_home_modules_object(self):
        star = {}
        exec("from archcop import *", star)
        assert set(star) - {"__builtins__"} == set(archcop.__all__)
        for name in archcop.__all__:
            home = importlib.import_module(f"archcop.{archcop._HOME[name]}")
            assert getattr(archcop, name) is star[name] is getattr(home, name)

    def test_dir_and_unknown_names(self):
        assert set(archcop.__all__) <= set(dir(archcop))
        with pytest.raises(AttributeError, match="no_such_name"):
            archcop.no_such_name  # noqa: B018
        from archcop import _backend  # not in __all__: the submodule

        assert _backend.__name__ == "archcop._backend"

    def test_moved_names_resolve_through_families(self):
        from archcop import generators

        moved = ("phi phi_prime phi_double_prime psi psi_prime psi_double_prime "
                 "generator_ratio _derivative _t_strict ConditionReport _argmax_signed "
                 "check_generator_conditions").split()
        for name in moved:
            assert getattr(families, name) is getattr(generators, name)
            if name in archcop.__all__:
                assert getattr(archcop, name) is getattr(generators, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            families.no_such_name  # noqa: B018


class TestEntry:
    """The program freezes the objects its imports made before it runs the
    command; ``main`` called in a process does not."""

    def test_program_freezes_and_main_does_not(self, capsys):
        at_exit = ("import atexit, gc, sys\n"
                   "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
                   "import runpy\nrunpy.run_module('archcop.cli', run_name='__main__')\n")
        argv = ["eval", "--family", "f1", "--alpha", "0.5", "--u", "0.3", "--v", "0.7"]
        done = subprocess.run([sys.executable, "-c", at_exit, *argv],
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert int(done.stderr) > 0
        before = gc.get_freeze_count()
        assert main(argv) == 0
        assert gc.get_freeze_count() == before
        assert capsys.readouterr().out == done.stdout


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


class TestCsvWriter:
    """``grid`` text is the reference formatter's, byte for byte, written
    one lattice row at a time; a command that fails leaves no ``--out``
    file behind."""

    @pytest.mark.parametrize("family,flag,param", [("f3", "--alpha", 0.3),
                                                   ("gumbel", "--theta", 2.5),
                                                   ("f1", "--alpha", 1e-3),
                                                   ("f2", "--alpha", 0.6),
                                                   ("independence", None, None)])
    @pytest.mark.parametrize("what", ["cdf", "pdf", "generator"])
    @pytest.mark.parametrize("n", [2, 3, 37, 7])
    def test_grid_matches_reference(self, capsys, monkeypatch, tmp_path,
                                    family, flag, param, what, n):
        argv = ["grid", "--family", family, *([flag, repr(param)] if flag else []),
                "--what", what, "--grid-n", str(n)]
        expected = grid_csv_loops(family, param, what, n)
        f = tmp_path / "grid.csv"
        assert run_cli(capsys, *argv, "--out", str(f)) == (0, "", "")
        assert f.read_bytes() == expected.encode()
        stdout = LineCountingStream()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert stdout.getvalue() == expected
        side = n if what == "pdf" else n + 1
        rows = [n] if what == "generator" else [side] * side
        assert stdout.lines == [1] + rows

    @pytest.mark.parametrize("family,param", [("f3", 2.0), ("gumbel", 2.5)])
    def test_1000_cdf_rows_match_scalar_cdf(self, monkeypatch, family, param):
        # the rows u = 0, 0.001 and 1 of a 1000**2 lattice, value by value
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        flag = "--theta" if family == "gumbel" else "--alpha"
        assert main(["grid", "--family", family, flag, repr(param), "--what", "cdf",
                     "--grid-n", "1000"]) == 0
        lines = stdout.getvalue().split("\n")
        assert lines[0] == "u,v,value" and lines[-1] == "" and len(lines) == 1001**2 + 2
        pts = np.linspace(0.0, 1.0, 1001).tolist()
        for i in (0, 1, 1000):
            u = pts[i]
            want = [f"{u!r},{v!r},{archcop.cdf(family, param, u, v)!r}" for v in pts]
            assert lines[1 + 1001 * i : 1 + 1001 * (i + 1)] == want

    @pytest.mark.parametrize("family,flag,param", [("f3", "--alpha", 0.3),
                                                   ("gumbel", "--theta", 2.5)])
    @pytest.mark.parametrize("n", [2, 6, 7, 8, 26])
    def test_generator_blocks_match_reference(self, monkeypatch, family, flag, param, n):
        monkeypatch.setattr(cli, "BLOCK", 7)
        stdout = LineCountingStream()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["grid", "--family", family, flag, repr(param), "--what", "generator",
                     "--grid-n", str(n)]) == 0
        assert stdout.getvalue() == grid_csv_loops(family, param, "generator", n)
        assert stdout.lines == [1] + [min(7, n - i) for i in range(0, n, 7)]

    @pytest.mark.parametrize("family,flag,param", [("f2", "--alpha", 0.001),
                                                   ("gumbel", "--theta", 1000.0)])
    def test_generator_overflow_to_inf_is_silent(self, tmp_path, family, flag, param):
        # phi = (-ln z)**p passes the double range near z = 0: the file
        # holds inf, as repr prints it, and nothing is written to stderr
        f = tmp_path / "grid.csv"
        done = subprocess.run(CLI + ["grid", "--family", family, flag, repr(param),
                                     "--what", "generator", "--grid-n", "7", "--out", str(f)],
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        with np.errstate(over="ignore"):
            expected = grid_csv_loops(family, param, "generator", 7)
        assert f.read_bytes() == expected.encode()
        assert ",inf\n" in expected

    def test_f3_generator_overflow_to_inf_is_silent(self):
        # phi = a*(s - 5)/2 passes the double range at the largest alpha;
        # the finite values are the 50-digit ones, correctly rounded
        done = subprocess.run(CLI + ["grid", "--family", "f3", "--alpha",
                                     "1.7976931348623157e308", "--what", "generator",
                                     "--grid-n", "4"], capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == ("z,phi\n0.125,inf\n0.375,inf\n0.625,1.147774871119815e+308\n"
                               "0.875,2.982777665253369e+307\n")

    @pytest.mark.parametrize("argv", [
        ["grid", "--family", "f1", "--alpha", "0.5", "--what", "cdf", "--grid-n", "1"],
        ["grid", "--family", "f1", "--alpha", "1.5", "--what", "pdf", "--grid-n", "5"],
        ["sample", "--family", "f1", "--alpha", "0.5", "--n", "10", "--seed", "-1"],
        ["sample", "--family", "f1", "--alpha", "0.5", "--n", "10", "--seed", "1",
         "--method", "frailty"],
    ])
    def test_failed_command_creates_no_file(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("family", ["f1", "f3"])
    @pytest.mark.parametrize("failing_call", [1, 3])
    def test_convergence_failure_leaves_no_file(self, capsys, monkeypatch, tmp_path,
                                                family, failing_call):
        # the first block fails, or the third, after two were written
        solve = families._monotone_newton
        calls = []

        def capped(*args):
            calls.append(None)
            if len(calls) == failing_call:
                monkeypatch.setattr(families, "_NEWTON_CAP", 1)
            return solve(*args)

        monkeypatch.setattr(families, "_monotone_newton", capped)
        monkeypatch.setattr(sampling, "BLOCK", 7)
        path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "sample", "--family", family, "--alpha", "0.5",
                                 "--n", "20", "--seed", "1", "--out", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(calls) == failing_call
        assert not path.exists()

    @pytest.mark.parametrize("family", ["f1", "f3"])
    def test_convergence_failure_leaves_an_existing_file_as_it_was(self, capsys, monkeypatch,
                                                                  tmp_path, family):
        monkeypatch.setattr(families, "_NEWTON_CAP", 1)
        path = tmp_path / "out.csv"
        path.write_text("keep me\n")
        code, out, err = run_cli(capsys, "sample", "--family", family, "--alpha", "0.5",
                                 "--n", "20", "--seed", "1", "--out", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path.read_text() == "keep me\n"
