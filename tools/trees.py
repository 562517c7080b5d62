"""Run the archcop CLI from a source tree: the runner ``cli_bytes.py`` and
``ab.py`` share."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 300.0


@dataclass
class Run:
    exit: int
    stdout: bytes  # b"" when not captured
    stderr: bytes
    wall_s: float  # from spawn to reaping
    cpu_s: float  # user + system
    max_rss_kib: int


def _spawn(src: Path, argv, **streams) -> subprocess.Popen:
    """``python -m archcop.cli ARGV`` with ``src`` (a directory holding
    ``archcop/``) on PYTHONPATH and no bytecode written."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-m", "archcop.cli", *argv], env=env, **streams)


def _reap(p: subprocess.Popen, start: float, fout, ferr) -> Run:
    """Wait for ``p``; its Run, with its resource use from ``os.wait4``, its
    wall time from ``start`` and its output from the files ``fout`` (or
    None) and ``ferr``."""
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    out = b""
    if fout is not None:
        fout.seek(0)
        out = fout.read()
    ferr.seek(0)
    return Run(p.returncode, out, ferr.read(), wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss)


def run_tree(src: Path, argv, stdin: bytes = b"", cwd=None, capture: bool = True) -> Run:
    """Run ``python -m archcop.cli ARGV`` under ``src`` (see ``_spawn``),
    feeding it ``stdin``.  Its stdout is kept if ``capture``, else
    discarded.  It is killed after ``TIMEOUT_S``."""
    with (tempfile.TemporaryFile() as fin, tempfile.TemporaryFile() as fout,
          tempfile.TemporaryFile() as ferr):
        fin.write(stdin)
        fin.seek(0)
        start = time.perf_counter()
        p = _spawn(src, argv, stdin=fin, stdout=fout if capture else subprocess.DEVNULL,
                   stderr=ferr, cwd=cwd)
        timer = threading.Timer(TIMEOUT_S, p.kill)
        timer.start()
        run = _reap(p, start, fout if capture else None, ferr)
        timer.cancel()
        return run


def run_pipe(src: Path, up_argv, down_argv, cwd=None) -> tuple[Run, Run]:
    """Run ``archcop UP_ARGV | archcop DOWN_ARGV`` under ``src``, with empty
    stdin and the second's stdout discarded; the Run of each side, whose
    wall time counts from the first spawn to that side's reaping (the
    first is reaped first).  Both are killed after ``TIMEOUT_S``."""
    with tempfile.TemporaryFile() as fup, tempfile.TemporaryFile() as fdown:
        start = time.perf_counter()
        up = _spawn(src, up_argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                    stderr=fup, cwd=cwd)
        down = _spawn(src, down_argv, stdin=up.stdout, stdout=subprocess.DEVNULL,
                      stderr=fdown, cwd=cwd)
        up.stdout.close()  # the reader's copy is the only one left
        timer = threading.Timer(TIMEOUT_S, lambda: (up.kill(), down.kill()))
        timer.start()
        runs = _reap(up, start, None, fup), _reap(down, start, None, fdown)
        timer.cancel()
        return runs
