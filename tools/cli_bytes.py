"""Compare the CLI output of two archcop source trees, command by command.

Usage (from the root of a source checkout):

    python tools/cli_bytes.py A_SRC B_SRC

A_SRC and B_SRC are ``src`` directories, each holding ``archcop/``.  Each
command of a fixed list runs once under each tree, as
``python -m archcop.cli ...`` with that tree on PYTHONPATH and no bytecode
written, from one scratch directory, so both runs get the same argv.  The
list covers the help texts of the command and of each subcommand,
``--version``, a ``grid`` with no ``--family`` and a 1000**2 cdf grid
written to standard output; for every family at ordinary and extreme
parameters: eval inside the unit square and on its edge (0, -0.0, 1,
1e-310), small cdf, pdf and generator grids, cdf and pdf grids whose axis
texts differ in length, generator grids on either side of their block,
check on a small lattice and on one that ends in a partial strip, tau by
every method and sample by both methods, at sizes on either side of the
samplers' block; eval outside the domain (u at -0.1, 1.5 and nan, each
family's parameter just outside each end of its interval and at nan and
+-inf, and a parameter flag the family does not take); ``tau --method mc``
on stdin fixtures whose fault or layout lies past the stdin reader's first
block; and every command ``perfbench/run.py`` issues at seeds 1 and 2 (a
``sample | tau`` pipe feeds the first command's stdout to the second).

A line is printed for each command whose stdout, stderr, exit code or
``--out`` file differs, naming the parts that differ, then a count.  In
stderr the tree's path and the line numbers of source files (in warnings
and traceback lines) are masked first.  The exit status is 0 whatever
differs: some differences are intended, and the list is for a reader to judge.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
import tempfile
from pathlib import Path

from trees import run_tree

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    ("f1", "0.3"), ("f1", "1e-3"), ("f2", "0.05"), ("f2", "1e-3"),
    ("f3", "2"), ("f3", "0.3"), ("f3", "1e-300"), ("f3", "1e300"),
    ("f3", "5e-324"), ("f3", "1.7976931348623157e308"),
    ("gumbel", "2.5"), ("gumbel", "1e3"), ("independence", None),
]
POINTS = [("0.3", "0.7"), ("0", "0.5"), ("-0.0", "0.5"), ("0.5", "-0.0"), ("1", "0.4"),
          ("0.4", "1"), ("1e-310", "0.5"), ("0.5", "1e-310"), ("0", "1"), ("1", "1")]
# outside the domain: eval's u, and each family's parameter at and just past
# each excluded end, past each included one, and at nan and +-inf
BAD_U = ("-0.1", "1.5", "nan")
BAD_PARAMS = [
    *(("f1", a) for a in ("-5e-324", "0", "1.0000000000000002", "nan", "inf", "-inf")),
    *(("f2", a) for a in ("-5e-324", "0", "1.0000000000000002", "nan", "inf", "-inf")),
    *(("f3", a) for a in ("-5e-324", "0", "nan", "inf", "-inf")),
    *(("gumbel", t) for t in ("0.9999999999999999", "nan", "inf", "-inf")),
]


def family_args(family, param):
    if param is None:
        return ["--family", family]
    return ["--family", family, "--theta" if family == "gumbel" else "--alpha", param]


def fixed_commands(work: Path):
    """(upstream argv or None, argv, --out path or None) of the fixed list."""
    out = str(work / "out.csv")
    # the parser's help texts and version, and a usage error
    for argv in ([], *([command] for command in ("eval", "grid", "check", "tau", "sample"))):
        yield None, [*argv, "--help"], None
    yield None, ["--version"], None
    yield None, ["grid", "--what", "cdf", "--grid-n", "4"], None
    # a 1000**2 lattice, written to standard output
    yield None, ["grid", "--family", "f3", "--alpha", "2", "--what", "cdf", "--grid-n", "1000"], None
    for fixture in stdin_fixtures():
        yield fixture, ["tau", "--method", "mc"], None
    # "--flag=value", as argparse takes a separate "-5e-324" for an option
    for u in BAD_U:
        yield None, ["eval", "--family", "f1", "--alpha", "0.3", f"--u={u}", "--v", "0.5"], None
    for family, param in BAD_PARAMS:
        flag = "--theta" if family == "gumbel" else "--alpha"
        argv = ["eval", "--family", family, f"{flag}={param}", "--u", "0.3", "--v", "0.7"]
        yield None, argv, None
    for argv in (["--family", "gumbel", "--alpha", "2"], ["--family", "f1", "--theta", "0.5"]):
        yield None, ["eval", *argv, "--u", "0.3", "--v", "0.7"], None
    for family, param in CASES:
        fam = family_args(family, param)
        for u, v in POINTS:
            yield None, ["eval", *fam, "--u", u, "--v", v], None
        for what in ("cdf", "pdf", "generator"):
            yield None, ["grid", *fam, "--what", what, "--grid-n", "4", "--out", out], out
        # axis texts of up to 19 characters next to 0.0 and 1.0 (1/3, 1/6, 1/7)
        for what in ("cdf", "pdf"):
            for grid_n in ("3", "7"):
                yield None, ["grid", *fam, "--what", what, "--grid-n", grid_n,
                             "--out", out], out
        # around the generator grid's block of 4096 rows
        for grid_n in ("4095", "4096", "4097", "8193"):
            yield None, ["grid", *fam, "--what", "generator", "--grid-n", grid_n,
                         "--out", out], out
        # 1003 lattice rows end in a partial strip of the audit
        for grid_n in ("10", "1003"):
            yield None, ["check", *fam, "--grid-n", grid_n], None
        for method in ("closed", "quadrature"):
            yield None, ["tau", *fam, "--method", method], None
        yield None, ["tau", *fam, "--method", "mc", "--n", "200", "--seed", "1"], None
        # around the samplers' block of 4096 rows
        for n in ("20", "4095", "4096", "4097"):
            for method in ("conditional", "frailty"):
                yield None, ["sample", *fam, "--n", n, "--seed", "1", "--method", method,
                             "--out", out], out


def stdin_fixtures():
    """(label, stdin bytes) of ``tau --method mc`` inputs of 9000 pairs that
    go wrong, have lines to skip or are laid out otherwise past the stdin
    reader's first block of 4096 lines, where blocks its numpy parse takes
    meet blocks its line loop takes."""
    lines = ["u,v"] + [f"{k * 0.6180339887498949 % 1.0!r},{k * 0.7548776662466927 % 1.0!r}"
                       for k in range(1, 9001)]
    edits = {  # line index -> its text; index i is line i + 1
        "valid": {},
        "blank and header lines 5002-5003": {5001: "", 5002: "u,v"},
        "malformed line 5002": {5001: "0.5;0.5"},
        "out-of-range line 5002": {5001: "0.5,1.5"},
        "NaN line 6001": {6000: "nan,0.5"},
        # a malformed line anywhere is reported before a pair outside [0, 1]
        "out-of-range line 3, malformed line 5002": {2: "-0.1,0.5", 5001: "0.5"},
        # float() reads 0_5 as 5.0, numpy not at all
        "0_5 on line 5002": {5001: "0_5,0.5"},
        "header only on line 4097": {0: "0.5,0.5", 4096: "u,v"},
        "blank line 9000, in the third block": {8999: ""},
    }
    for label, edit in edits.items():
        yield label, "".join(f"{edit.get(i, line)}\n" for i, line in enumerate(lines)).encode()
    padded = lines[:1] + [" {} ,\t{} ".format(*line.split(",")) for line in lines[1:]]
    yield "CRLF line ends", "".join(f"{line}\r\n" for line in lines).encode()
    yield "no final newline", "\n".join(lines).encode()
    yield "whitespace-padded fields", "".join(f"{line}\n" for line in padded).encode()


def perfbench_commands(work: Path):
    """Every command perfbench/run.py issues at seeds 1 and 2."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    for name, make in run.WORKLOADS.items():
        for seed in (1, 2):
            for op in make(random.Random(f"{name}/{seed}"), work):
                yield op.upstream, op.argv, op.out_file


def run_cli(src: Path, argv, stdin: bytes, work: Path):
    p = run_tree(src, argv, stdin, cwd=work)
    stderr = p.stderr.decode(errors="replace").replace(str(src), "SRC")
    # source line numbers, as warnings and tracebacks print them; archcop's
    # own "line N:" errors stay
    stderr = re.sub(r"\.py:\d+", ".py:N", re.sub(r'(File "[^"]*", line )\d+', r"\1N", stderr))
    return p.exit, p.stdout, stderr


def outcome(src: Path, upstream, argv, out_file, work: Path) -> dict:
    stdin = b""
    res = {}
    if isinstance(upstream, tuple):  # a fixture: (label, stdin bytes)
        stdin = upstream[1]
    elif upstream is not None:
        rc, stdin, err = run_cli(src, upstream, b"", work)
        res.update(upstream_exit=rc, piped=stdin, upstream_stderr=err)
    res["exit"], res["stdout"], res["stderr"] = run_cli(src, argv, stdin, work)
    if out_file is not None:
        path = Path(out_file)
        res["file"] = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    args = parser.parse_args(argv)
    srcs = [args.a_src.resolve(), args.b_src.resolve()]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = [*fixed_commands(work), *perfbench_commands(work)]
        for upstream, cmd, out_file in commands:
            a, b = (outcome(src, upstream, cmd, out_file, work) for src in srcs)
            parts = [k for k in a if a[k] != b[k]]
            if not parts:
                continue
            differ += 1
            line = " ".join(cmd)
            if isinstance(upstream, tuple):
                line = f"{line} < {upstream[0]}"
            elif upstream is not None:
                line = f"{' '.join(upstream)} | {line}"
            line = line.replace(str(work), "WORK")
            print(f"{','.join(parts)}: archcop {line}", flush=True)
    print(f"{differ} of {len(commands)} commands differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
