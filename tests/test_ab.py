"""``tools/ab.py``, the single-command A/B timer, on one tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EVAL = ["eval", "--family", "f1", "--alpha", "0.5", "--u", "0.3", "--v", "0.7"]
SAMPLE = ["sample", "--family", "f1", "--alpha", "0.5", "--n", "200", "--seed", "1"]


def run_and_check(tmp_path, flags, command, argv, metrics, code):
    """Run the tool twice with ``--runs 2 --record``, then check both records."""
    src = str(ROOT / "src")
    for _ in range(2):  # the second run appends to the first one's file
        done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), src, src,
                               "--runs", "2", *flags, "--record", "--", *command],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith(f"archcop {' '.join(argv)}: 2 pairs\n")
    records = json.loads((tmp_path / "BENCH_commands.json").read_text())["records"]
    assert len(records) == 2
    for rec in records:
        assert (rec["argv"], rec["runs"]) == (argv, 2)
        assert rec["a"]["tree"] == rec["b"]["tree"]
        assert {"platform", "python", "cpus"} <= set(rec["machine"])
        assert rec["numpy"]
        assert set(rec["b_wins"]) == set(metrics)
        assert all(0 <= wins <= 2 for wins in rec["b_wins"].values())
        for side in "ab":
            assert rec["per_run"][side]["exit"] == [code, code]
            for m in metrics:
                runs = rec["per_run"][side][m]
                assert len(runs) == 2 and min(runs) > 0
                s = rec[side][m]
                assert min(runs) <= s["q1"] <= s["median"] <= s["q3"] <= max(runs)


def test_record_of_one_tree_against_itself(tmp_path):
    run_and_check(tmp_path, [], EVAL, EVAL, ("wall_s", "cpu_s", "max_rss_mib"), 0)


def test_pipe_record_of_one_tree_against_itself(tmp_path):
    run_and_check(tmp_path, ["--pipe"], SAMPLE, [*SAMPLE, "|", "tau", "--method", "mc"],
                  ("wall_s", "sample_cpu_s", "sample_max_rss_mib", "tau_cpu_s", "tau_max_rss_mib"),
                  [0, 0])
