"""Tests of the benchmark harness and the tracer (they run archcop from src/)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "work"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_tracer_nests_spans_and_counts_kernel_work(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    n = 400
    pairs = "u,v\n" + "".join(f"{(i * 0.618034) % 1:.6f},{(i * 0.414214) % 1:.6f}\n"
                              for i in range(1, n + 1))
    spans_path = tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "tau", "--method", "mc"],
        input=pairs, env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["n"] == n
    rec = json.loads(spans_path.read_text())
    spans = rec["spans"]
    calls, total, self_s = spans["kernel"]
    assert calls == 21  # the full sample and 20 blocks
    size = n // 20
    assert rec["counts"]["kernel.pair_comparisons"] == n * (n - 1) // 2 + 20 * size * (size - 1) // 2
    # the kernel's time is inside tau_mc's, which is inside main's
    _, tau_total, tau_self = spans["diagnostics.tau_mc"]
    assert tau_self <= tau_total - total + 1e-9
    assert spans["cli.main"][1] >= tau_total
    assert rec["import_s"] > 0
