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


def run_tree(src: Path, argv, stdin: bytes = b"", cwd=None, capture: bool = True) -> Run:
    """Run ``python -m archcop.cli ARGV`` with ``src`` (a directory holding
    ``archcop/``) on PYTHONPATH and no bytecode written, feeding it
    ``stdin``.  Its stdout is kept if ``capture``, else discarded.  Its
    resource use comes from ``os.wait4``; it is killed after ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with (tempfile.TemporaryFile() as fin, tempfile.TemporaryFile() as fout,
          tempfile.TemporaryFile() as ferr):
        fin.write(stdin)
        fin.seek(0)
        start = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-m", "archcop.cli", *argv], stdin=fin,
                             stdout=fout if capture else subprocess.DEVNULL, stderr=ferr,
                             cwd=cwd, env=env)
        timer = threading.Timer(TIMEOUT_S, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        fout.seek(0)
        ferr.seek(0)
        return Run(p.returncode, fout.read(), ferr.read(), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
