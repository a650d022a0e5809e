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
    assert proc.stdout == "23 runs, 0 files differ\n"


def test_a_differing_text_file_shows_its_first_differing_line(tmp_path, monkeypatch):
    # the module puts perfbench and src on the path: restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import same_results

    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, passed in ((parent, "True"), (change, "False")):
        (side / "run" / "out").mkdir(parents=True)
        (side / "run" / "exit.txt").write_text("0\n")
        (side / "run" / "out" / "manifest.txt").write_text(
            f"status = ok\nstability.pass = {passed}\nintegrator = phase6\n"
        )
    (change / "run" / "stderr.txt").write_text("instability\n")
    (parent / "run" / "stdout.txt").write_text("a\nb\n")
    (change / "run" / "stdout.txt").write_text("a\n")
    lines = [
        line
        for rel in same_results.differences(parent, change)
        for line in same_results.described(rel, parent, change)
    ]
    assert lines == [
        "differs: run/out/manifest.txt",
        "  parent: stability.pass = True",
        "  change: stability.pass = False",
        "differs: run/stderr.txt",
        "differs: run/stdout.txt",
        "  parent: b",
        "  change: <end>",
    ]
