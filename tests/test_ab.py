"""``tools/ab.py``, the single-command A/B timer, on one tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "cpu_s", "max_rss_mib")


def test_record_of_one_tree_against_itself(tmp_path):
    command = ["eval", "--family", "f1", "--alpha", "0.5", "--u", "0.3", "--v", "0.7"]
    src = str(ROOT / "src")
    for _ in range(2):  # the second run appends to the first one's file
        done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), src, src,
                               "--runs", "2", "--record", "--", *command],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith(f"archcop {' '.join(command)}: 2 pairs\n")
    records = json.loads((tmp_path / "BENCH_commands.json").read_text())["records"]
    assert len(records) == 2
    for rec in records:
        assert (rec["argv"], rec["runs"]) == (command, 2)
        assert rec["a"]["tree"] == rec["b"]["tree"]
        assert {"platform", "python", "cpus"} <= set(rec["machine"])
        assert rec["numpy"]
        assert set(rec["b_wins"]) == set(METRICS)
        assert all(0 <= wins <= 2 for wins in rec["b_wins"].values())
        for side in "ab":
            assert rec["per_run"][side]["exit"] == [0, 0]
            for m in METRICS:
                runs = rec["per_run"][side][m]
                assert len(runs) == 2 and min(runs) > 0
                s = rec[side][m]
                assert min(runs) <= s["q1"] <= s["median"] <= s["q3"] <= max(runs)
