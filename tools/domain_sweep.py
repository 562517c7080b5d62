"""Run every CLI command at the ends of each family's parameter domain and
list the commands that fail there.

Usage (from the root of a source checkout):

    python tools/domain_sweep.py SRC

SRC is a ``src`` directory holding ``archcop/``.  For each of 21
parameter sets (f1 alpha from the smallest subnormal to 1, f2 alpha
likewise, gumbel theta from 1 to the largest double, f3 alpha at both
ends and 1), nine commands run, each as ``python -m archcop.cli ...``
with SRC on PYTHONPATH and no bytecode written: ``eval`` at three points,
the pdf and the generator grid, ``check``, ``sample``, and ``tau`` by
quadrature and by Monte Carlo, four commands at a time.

A command is flagged when its stderr holds a traceback or a warning, its
stdout holds ``nan``, or it exits with a code outside {0, 2, 3} (the CLI's
success, usage or domain error, and convergence failure).  A line is
printed for each flagged command, naming why, then the count, as the last
line ``N of 189 commands flagged``.  The exit status is 0 whatever is
flagged; CI reads N from that line and fails above a ceiling.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from trees import run_tree

MAX = "1.7976931348623157e308"  # the largest double
PARAMS = [
    *(("f1", a) for a in ("5e-324", "1e-300", "1e-16", "1e-3", "1")),
    *(("f2", a) for a in ("5e-324", "1e-170", "1e-160", "1e-100", "1e-8", "1e-3", "1")),
    *(("gumbel", t) for t in ("1", "1e3", "1e16", "1e100", "1e308", MAX)),
    *(("f3", a) for a in ("5e-324", "1", MAX)),
]
POINTS = [("0.3", "0.7"), ("0.5", "0.5"), ("1e-300", "0.999")]
NAN = re.compile(rb"\bnan\b", re.IGNORECASE)


def commands():
    for family, param in PARAMS:
        fam = ["--family", family, "--theta" if family == "gumbel" else "--alpha", param]
        for u, v in POINTS:
            yield ["eval", *fam, "--u", u, "--v", v]
        for what in ("pdf", "generator"):
            yield ["grid", *fam, "--what", what, "--grid-n", "8"]
        yield ["check", *fam, "--grid-n", "10"]
        yield ["sample", *fam, "--n", "200", "--seed", "1"]
        yield ["tau", *fam, "--method", "quadrature"]
        yield ["tau", *fam, "--method", "mc", "--n", "200", "--seed", "1"]


def flags(src: Path, argv) -> list[str]:
    """Why the command is flagged under ``src``: empty when it is not."""
    p = run_tree(src, argv)
    why = []
    if b"Traceback (most recent call last)" in p.stderr:
        why.append("traceback")
    if b"Warning" in p.stderr:
        why.append("warning")
    if NAN.search(p.stdout):
        why.append("nan")
    if p.exit not in (0, 2, 3):
        why.append(f"exit {p.exit}")
    return why


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    cmds = list(commands())
    workers = min(4, os.cpu_count() or 1)
    with ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(lambda cmd: flags(src, cmd), cmds))
    flagged = 0
    for cmd, why in zip(cmds, results):
        if why:
            flagged += 1
            print(f"{','.join(why)}: archcop {' '.join(cmd)}")
    print(f"{flagged} of {len(cmds)} commands flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
