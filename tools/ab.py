"""Time one archcop command under two source trees, run alternately.

Usage (from the root of a source checkout):

    python tools/ab.py A_SRC B_SRC [--runs N] [--pipe] [--record] -- ARGV...

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
pairs B won (a lower value; ties count for neither).  With ``--pipe``,
ARGV is a ``sample`` command whose output is piped into
``tau --method mc`` under the same tree, and the pair of processes is one
run: its wall time, until both are reaped, and each side's CPU time and
max RSS (``sample_*`` and ``tau_*``).  ``--record``
appends the result, every run included, to ``BENCH_commands.json`` in
the current directory, with the machine details ``perfbench/run.py``
records and the numpy version.  Each tree is named there by a digest of
its ``.py`` files.  The exit status is 1 if a run exits otherwise than
the first run under A did (with ``--pipe``, either process), else 0.
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

from trees import run_pipe, run_tree

ROOT = Path(__file__).resolve().parents[1]
RECORD = "BENCH_commands.json"
METRICS = ("wall_s", "cpu_s", "max_rss_mib")
PIPE_METRICS = ("wall_s", "sample_cpu_s", "sample_max_rss_mib", "tau_cpu_s", "tau_max_rss_mib")
TAU = ["tau", "--method", "mc"]


def tree_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def measure(src: Path, argv, work: str, pipe: bool) -> tuple[tuple, object]:
    """One run's metrics (``METRICS``, or ``PIPE_METRICS`` with ``pipe``)
    and its exit status (with ``pipe``, both processes' as a list)."""
    if not pipe:
        p = run_tree(src, argv, cwd=work, capture=False)
        return (p.wall_s, p.cpu_s, p.max_rss_kib / 1024), p.exit
    up, down = run_pipe(src, argv, TAU, cwd=work)
    return ((down.wall_s, up.cpu_s, up.max_rss_kib / 1024,
             down.cpu_s, down.max_rss_kib / 1024), [up.exit, down.exit])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--pipe", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("command", nargs="+", metavar="ARGV")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    srcs = {"a": args.a_src.resolve(), "b": args.b_src.resolve()}
    metrics = PIPE_METRICS if args.pipe else METRICS
    argv = [*args.command, "|", *TAU] if args.pipe else args.command
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs = {side: {m: [] for m in metrics} | {"exit": []} for side in srcs}
    with tempfile.TemporaryDirectory() as work:
        for i in range(args.runs):
            for side in ("ab" if i % 2 == 0 else "ba"):
                values, code = measure(srcs[side], args.command, work, args.pipe)
                for m, value in zip(metrics, values):
                    runs[side][m].append(round(value, 4))
                runs[side]["exit"].append(code)
    wins = {m: sum(b < a for a, b in zip(runs["a"][m], runs["b"][m])) for m in metrics}
    print(f"archcop {' '.join(argv)}: {args.runs} pairs")
    for m in metrics:
        a, b = summary(runs["a"][m]), summary(runs["b"][m])
        print(f"  {m:18} A {a['median']:9.4f} [{a['q1']:.4f}, {a['q3']:.4f}]"
              f"  B {b['median']:9.4f} [{b['q1']:.4f}, {b['q3']:.4f}]"
              f"  B lower in {wins[m]} of {args.runs}")
    if args.record:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import run  # perfbench/run.py: the machine details

        numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                               capture_output=True, text=True, check=True).stdout.strip()
        record = {
            "argv": argv,
            "runs": args.runs,
            "order": "A first in even-numbered pairs (from 0), B first in odd",
            "machine": run.machine(),
            "numpy": numpy,
            **{side: {"tree": tree_digest(srcs[side]),
                      **{m: summary(runs[side][m]) for m in metrics}} for side in srcs},
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
