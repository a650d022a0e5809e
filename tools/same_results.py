"""Compare the outputs of two source trees of tllcd byte for byte.

    python tools/same_results.py PARENT CHANGE [--seeds 1,2,3]

PARENT and CHANGE are checkouts of the repository (a `git archive` of a
commit, say).  Both trees run the same inputs, taken from this checkout:
the given seeds of every workload in perfbench/workloads.py, `simulate`,
`sweep` and `stability` on each golden config tests/data/golden/*/run.cfg,
and `validate`.
A golden sweep takes the config's own t_f and four times it, and with CD
on also t_f/1000, which the gate refuses on every golden config; the
config is read by this checkout's `tllcd.cli.parse_config`.  Six
`simulate` runs of the contact golden config with one line changed or
added are refused (REFUSALS): an unknown family, the retired
`custom_samples` kind, one record point, L = 0 and rtol = 0 exit 2, and a
Luttinger-unstable coupling exits 3 after writing its failure manifest; the
unstable config also runs as `stability`, which exits 3.
A contact ramp whose margin dips below 0 between the stability gate's
samples (GATE_REFUSED) runs as `simulate` on 20,001 records, which exits
3 after writing its failure manifest, and as a `sweep` of its own t_f,
which writes a NaN row and exits 0.
Each run is a fresh `python -W error` process with that tree's `src` alone
on the path.  Every file a run writes, its exit code, stdout and stderr (with the run's
directory replaced by `<run>`) are compared byte for byte.  Exits 0 when
nothing differs, else 1 after listing the files that differ, each text
file with the first line where the two sides differ beneath it.
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

# (name, line of the contact golden config, the lines that replace it)
REFUSALS = (
    ("family", "family = contact", "family = bogus"),
    ("schedule", "schedule = poly5", "schedule = custom_samples"),
    ("record-points", "record_points = 21", "record_points = 1"),
    ("grid-length", "L = 20.0", "L = 0"),
    ("rtol", "cd = on", "cd = on\nrtol = 0"),
    ("unstable", "g2_end = 1.0", "g2_end = 7.0"),
)
# the least margin at this t_f is +7.7e-9 on the gate's 2001 samples and
# -8.0e-9 between them, at t = 1.0205, where the gate's refinement finds it
GATE_REFUSED = (
    "family = contact\ng2_end = 1.0\ng4_end = 0.5\nschedule = poly5\n"
    "t_f = 2.140194387361439\nL = 100\nn_modes = 2\nrecord_points = 20001\ncd = on\n"
)

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
        runs.append((f"golden-sweep-{name}", text, _golden_sweep(text)))
        runs.append((f"golden-stability-{name}", text, _stability))
    contact = (ROOT / "tests" / "data" / "golden" / "contact_poly5_cd" / "run.cfg").read_text()
    for name, line, refused in REFUSALS:
        assert line in contact, line
        runs.append((f"refused-{name}", contact.replace(line, refused), _simulate))
        if name == "unstable":
            runs.append(("refused-unstable-stability", contact.replace(line, refused), _stability))
    gate_tf = parse_config(GATE_REFUSED).t_f
    runs.append(("refused-gate", GATE_REFUSED, _simulate))
    runs.append(("refused-gate-sweep", GATE_REFUSED, _sweep(gate_tf)))
    runs.append(("validate", None, lambda config, out: ["validate"]))
    return runs


def _simulate(config, out) -> list:
    return ["simulate", "--config", str(config), "--out", str(out)]


def _stability(config, out) -> list:
    return ["stability", "--config", str(config)]


def _golden_sweep(text):
    """The argv builder of a sweep of the config `text`: its t_f, 4 t_f and,
    with CD on, t_f/1000."""
    cfg = parse_config(text)
    return _sweep(cfg.t_f, 4 * cfg.t_f, *([cfg.t_f / 1000] if cfg.cd == "on" else []))


def _sweep(*tf_list):
    """The argv builder of a sweep over `tf_list`."""
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


def first_difference(a: Path, b: Path):
    """(line of a, line of b): the first line where the text files a and b
    differ, "<end>" past the last line of one; None unless both are text
    files whose lines differ."""
    try:
        lines_a, lines_b = (path.read_text().splitlines() for path in (a, b))
    except (OSError, UnicodeDecodeError):
        return None
    end = ["<end>"]
    return next(((x, y) for x, y in zip(lines_a + end, lines_b + end) if x != y), None)


def described(rel: str, parent: Path, change: Path) -> list:
    """The `differs:` line of the file `rel` of the runs `parent` and
    `change` and, for a text file, the first line where each side differs."""
    first = first_difference(parent / rel, change / rel)
    sides = zip(("parent", "change"), first) if first else ()
    return [f"differs: {rel}", *(f"  {side}: {line}" for side, line in sides)]


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
            print(*described(rel, *sides), sep="\n")
    print(f"{len(runs)} runs, {len(diff)} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
