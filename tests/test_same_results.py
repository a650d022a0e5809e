"""tools/same_results.py finds no difference between a tree and itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_tree_gives_the_same_results_as_itself():
    proc = subprocess.run(
        [sys.executable, "tools/same_results.py", ".", ".", "--seeds", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "10 runs, 0 files differ\n"
