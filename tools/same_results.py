"""Compare the outputs of two source trees of tllcd byte for byte.

    python tools/same_results.py PARENT CHANGE [--seeds 1,2,3]

PARENT and CHANGE are checkouts of the repository (a `git archive` of a
commit, say).  Both trees run the same inputs, taken from this checkout:
the given seeds of every workload in perfbench/workloads.py, `simulate` and
`sweep` on each golden config tests/data/golden/*/run.cfg, and `validate`.
A golden sweep takes the config's own t_f and four times it, and with CD
on also t_f/1000, which the gate refuses on every golden config; the
config is read by this checkout's `tllcd.cli.parse_config`.  Each run is
a fresh `python -W error` process with that tree's `src` alone on the path.
Every file a run writes, its exit code, stdout and stderr (with the run's
directory replaced by `<run>`) are compared byte for byte.  Exits 0 when
nothing differs, else 1 after listing the files that differ.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import workloads  # noqa: E402
from tllcd.cli import parse_config  # noqa: E402


def cases(seeds) -> list:
    """(name, config text or None, argv builder) of every run."""
    runs = []
    for name in workloads.NAMES:
        for seed in seeds:
            w = workloads.make(name, seed)
            runs.append((f"{name}-{seed}", w.config_text(), w.argv))
    for cfg in sorted((ROOT / "tests" / "data" / "golden").glob("*/run.cfg")):
        name, text = cfg.parent.name, cfg.read_text()
        runs.append((f"golden-{name}", text, _simulate))
        runs.append((f"golden-sweep-{name}", text, _sweep(text)))
    runs.append(("validate", None, lambda config, out: ["validate"]))
    return runs


def _simulate(config, out) -> list:
    return ["simulate", "--config", str(config), "--out", str(out)]


def _sweep(text):
    """The argv builder of a sweep of the config `text`: its t_f, 4 t_f and,
    with CD on, t_f/1000."""
    cfg = parse_config(text)
    tf_list = [cfg.t_f, 4 * cfg.t_f] + ([cfg.t_f / 1000] if cfg.cd == "on" else [])
    spec = ",".join(map(repr, tf_list))

    def argv(config, out) -> list:
        return ["sweep", "--config", str(config), "--out", str(out), "--tf-list", spec]

    return argv


def run_all(tree: Path, where: Path, runs) -> None:
    """Run every case on `tree`'s source, each in where/<case>/."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    for name, text, argv in runs:
        run_dir = where / name
        run_dir.mkdir(parents=True)
        config = run_dir / "run.cfg"
        if text is not None:
            config.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tllcd.cli", *argv(config, run_dir / "out")],
            cwd=run_dir, env=env, capture_output=True, text=True,
        )
        for stream, text_out in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            (run_dir / f"{stream}.txt").write_text(text_out.replace(str(run_dir), "<run>"))
        (run_dir / "exit.txt").write_text(f"{proc.returncode}\n")


def differences(a: Path, b: Path) -> list:
    """Relative paths of the files that differ, or exist on one side only."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        str(rel)
        for rel in files_a | files_b
        if rel not in files_a
        or rel not in files_b
        or not filecmp.cmp(a / rel, b / rel, shallow=False)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1,2,3", help="workload seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    runs = cases([int(s) for s in args.seeds.split(",")])
    with tempfile.TemporaryDirectory() as tmp:
        sides = Path(tmp) / "parent", Path(tmp) / "change"
        for tree, where in zip((args.parent, args.change), sides):
            run_all(tree, where, runs)
        diff = differences(*sides)
    for rel in diff:
        print(f"differs: {rel}")
    print(f"{len(runs)} runs, {len(diff)} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
