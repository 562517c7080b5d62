"""Time one archcop command under two source trees, run alternately.

Usage (from the root of a source checkout):

    python tools/ab.py A_SRC B_SRC [--runs N] [--record] -- ARGV...

A_SRC and B_SRC are ``src`` directories, each holding ``archcop/``.  The
command ``python -m archcop.cli ARGV`` runs N times (default 10) under
each tree, in N pairs that alternate which tree goes first, from a
scratch directory (where a relative ``--out`` path lands), with no
bytecode written and its stdout discarded.
This process pins itself, and so each child, to one CPU (the last it may
use) with ``os.sched_setaffinity``, and holds no large data, since a
child's max RSS counts the parent's at spawn.

For wall time, CPU time (user + system) and max RSS, all from
``os.wait4``, it prints each tree's median and quartiles and how many
pairs B won (a lower value; ties count for neither).  ``--record``
appends the result, every run included, to ``BENCH_commands.json`` in
the current directory, with the machine details ``perfbench/run.py``
records and the numpy version.  Each tree is named there by a digest of
its ``.py`` files.  The exit status is 1 if a run exits otherwise than
the first run under A did, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from trees import run_tree

ROOT = Path(__file__).resolve().parents[1]
RECORD = "BENCH_commands.json"
METRICS = ("wall_s", "cpu_s", "max_rss_mib")


def tree_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("command", nargs="+", metavar="ARGV")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    srcs = {"a": args.a_src.resolve(), "b": args.b_src.resolve()}
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs = {side: {m: [] for m in METRICS} | {"exit": []} for side in srcs}
    with tempfile.TemporaryDirectory() as work:
        for i in range(args.runs):
            for side in ("ab" if i % 2 == 0 else "ba"):
                p = run_tree(srcs[side], args.command, cwd=work, capture=False)
                for key, value in zip((*METRICS, "exit"),
                                      (p.wall_s, p.cpu_s, p.max_rss_kib / 1024, p.exit)):
                    runs[side][key].append(round(value, 4))
    wins = {m: sum(b < a for a, b in zip(runs["a"][m], runs["b"][m])) for m in METRICS}
    print(f"archcop {' '.join(args.command)}: {args.runs} pairs")
    for m in METRICS:
        a, b = summary(runs["a"][m]), summary(runs["b"][m])
        print(f"  {m:12} A {a['median']:9.4f} [{a['q1']:.4f}, {a['q3']:.4f}]"
              f"  B {b['median']:9.4f} [{b['q1']:.4f}, {b['q3']:.4f}]"
              f"  B lower in {wins[m]} of {args.runs}")
    if args.record:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import run  # perfbench/run.py: the machine details

        numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                               capture_output=True, text=True, check=True).stdout.strip()
        record = {
            "argv": args.command,
            "runs": args.runs,
            "order": "A first in even-numbered pairs (from 0), B first in odd",
            "machine": run.machine(),
            "numpy": numpy,
            **{side: {"tree": tree_digest(srcs[side]),
                      **{m: summary(runs[side][m]) for m in METRICS}} for side in srcs},
            "b_wins": wins,
            "per_run": runs,
        }
        path = Path(RECORD)
        doc = json.loads(path.read_text()) if path.exists() else {"records": []}
        doc["records"].append(record)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    first = runs["a"]["exit"][0]
    return int(any(code != first for side in runs.values() for code in side["exit"]))


if __name__ == "__main__":
    sys.exit(main())
