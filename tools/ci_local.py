"""Run the CI workflow's steps on this machine, from the workflow file.

    python tools/ci_local.py [--base REV]

Reads .github/workflows/tests.yml with PyYAML, which only tllcd's `test`
extra installs (without it the tool exits with a message), and runs, in order,
every `run:` step of two jobs: each row of the `tier1` matrix that this
interpreter can run, then `same-results`, as on a pull request whose base
is REV (default HEAD).  A step runs from the repository root with its
`env` and the row's `${{ matrix.* }}` values, under `bash -eo pipefail` for
`shell: bash` and `bash -e` otherwise, as on a GitHub runner.  RUNNER_TEMP
and GITHUB_STEP_SUMMARY point into a fresh temporary directory per job, and
a PATH shim makes `python` and `python3` this interpreter and `tll-cd-sim`
`python -m tllcd.cli` on this checkout's `src`, as `pip install -e .`
would.

Not run, each reported as `skipped: <step>: <reason>`: `uses:` steps (the
checkout is this tree, the Python is this one), `pip install` steps (this
tool installs nothing, and offline pip cannot build the package unless its
build requirements are installed), and matrix rows whose Python, numpy pin
or extras are not installed here.  After a failed step the rest of its job
is skipped, as on a runner.  Each step's output goes to the terminal; the
jobs' step summaries and the report, one line per step, follow at the
end.  Exits 1 if a step failed that does not `continue-on-error`, else 0.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import tomllib

    import yaml
    from packaging.requirements import Requirement
except ImportError as exc:  # reported by main()
    MISSING = exc.name
else:
    MISSING = None

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
JOBS = ("tier1", "same-results")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
EXPRESSION = re.compile(r"\$\{\{\s*(.*?)\s*\}\}")


@dataclass
class Step:
    """One step of one job row: its `run` script, environment and shell, or
    why it is skipped."""

    job: str
    name: str
    run: str | None = None
    env: dict = field(default_factory=dict)
    shell: tuple = ()
    timeout: float | None = None
    continue_on_error: bool = False
    skip: str | None = None


def matrix_rows(strategy) -> list:
    """The rows of a job's matrix, as GitHub forms them: every combination
    of the listed values, then each `include` entry added to the
    combinations whose original values it matches, or as a row of its own
    where it matches none."""
    if not strategy:
        return [{}]
    matrix = dict(strategy["matrix"])
    include = matrix.pop("include", [])
    rows = [dict(zip(matrix, values)) for values in itertools.product(*matrix.values())]
    originals = len(rows)
    for entry in include:
        matched = [
            row for row in rows[:originals]
            if all(row[k] == v for k, v in entry.items() if k in matrix)
        ]
        for row in matched:
            row.update(entry)
        if not matched:
            rows.append(dict(entry))
    return rows


def row_label(job: str, row: dict) -> str:
    values = ", ".join(f"{k} {v}" for k, v in row.items() if v != "")
    return f"{job} [{values}]" if values else job


def _installed(requirement: str) -> str | None:
    """Why `requirement` is not met here, or None when it is."""
    req = Requirement(requirement)
    try:
        version = importlib.metadata.version(req.name)
    except importlib.metadata.PackageNotFoundError:
        return f"{req.name} is not installed"
    if req.specifier and not req.specifier.contains(version, prereleases=True):
        return f"{req} wanted, {req.name} {version} installed"
    return None


def row_skip(row: dict, pyproject: dict) -> str | None:
    """Why this interpreter cannot run the matrix row, or None."""
    python = str(row.get("python-version", PYTHON))
    if python != PYTHON:
        return f"Python {python} is not installed (this is {PYTHON})"
    wanted = str(row.get("numpy-pin", "")).split()
    extras = pyproject["project"].get("optional-dependencies", {})
    for name in filter(None, str(row.get("extras", "")).split(",")):
        wanted += extras[name]
    missing = [why for why in map(_installed, wanted) if why]
    return "; ".join(missing) or None


def _install_skip(pyproject: dict) -> str:
    wanted = pyproject["build-system"]["requires"] + ["wheel"]
    unmet = [why for why in map(_installed, wanted) if why]
    return "this tool installs nothing, and offline pip cannot build the package" + (
        f" ({'; '.join(unmet)})" if unmet else ""
    )


def _substitute(text: str, context: dict) -> str:
    def value(match):
        if match.group(1) not in context:
            raise SystemExit(f"ci_local.py: no value for ${{{{ {match.group(1)} }}}}")
        return str(context[match.group(1)])

    return EXPRESSION.sub(value, str(text))


def plan(workflow: dict, base: str) -> list:
    """Every step of the jobs JOBS, row by row, in workflow order: what to
    run, or why not."""
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    steps = []
    for job_name in JOBS:
        job = workflow["jobs"][job_name]
        timeout = 60.0 * job["timeout-minutes"] if "timeout-minutes" in job else None
        for row in matrix_rows(job.get("strategy")):
            label = row_label(job_name, row)
            why = row_skip(row, pyproject)
            if why:
                steps.append(Step(label, "every step", skip=why))
                continue
            context = {f"matrix.{k}": v for k, v in row.items()}
            context["github.event.pull_request.base.sha"] = base
            for step in job["steps"]:
                name = step.get("name") or step.get("uses") or step["run"].splitlines()[0]
                if "uses" in step:
                    skip = "a `uses:` step; this checkout and interpreter stand in"
                    steps.append(Step(label, name, skip=skip))
                    continue
                if step["run"].lstrip().startswith("pip install"):
                    steps.append(Step(label, name, skip=_install_skip(pyproject)))
                    continue
                shell = step.get("shell")
                steps.append(Step(
                    label,
                    name,
                    run=_substitute(step["run"], context),
                    env={k: _substitute(v, context) for k, v in step.get("env", {}).items()},
                    shell=(("bash", "--noprofile", "--norc", "-eo", "pipefail") if shell == "bash"
                           else ("bash", "-e")),
                    timeout=timeout,
                    continue_on_error=bool(step.get("continue-on-error", False)),
                ))
    return steps


def _shim(directory: Path) -> None:
    """`python`, `python3` and `tll-cd-sim` in `directory`, for PATH."""
    src = ROOT / "src"
    scripts = {
        "python": f'exec "{sys.executable}" "$@"',
        "python3": f'exec "{sys.executable}" "$@"',
        "tll-cd-sim": (
            f'PYTHONPATH="{src}${{PYTHONPATH:+:$PYTHONPATH}}" '
            f'exec "{sys.executable}" -m tllcd.cli "$@"'
        ),
    }
    for name, body in scripts.items():
        path = directory / name
        path.write_text(f"#!/bin/sh\n{body}\n")
        path.chmod(0o755)


def execute(steps) -> int:
    """Run the planned steps; print each step's outcome, then the report."""
    report, failed = [], set()
    with tempfile.TemporaryDirectory(prefix="ci_local-") as tmp:
        shim = Path(tmp) / "bin"
        shim.mkdir()
        _shim(shim)
        for step in steps:
            title = f"{step.job}: {step.name}"
            if step.skip is None and step.job in failed:
                step.skip = "an earlier step of this job failed"
            if step.skip is not None:
                report.append(f"skipped: {title}: {step.skip}")
                print(report[-1], flush=True)
                continue
            job_dir = Path(tmp) / re.sub(r"\W+", "-", step.job)
            job_dir.mkdir(exist_ok=True)
            env = dict(
                os.environ,
                **step.env,
                PATH=f"{shim}{os.pathsep}{os.environ.get('PATH', '')}",
                RUNNER_TEMP=str(job_dir),
                GITHUB_STEP_SUMMARY=str(job_dir / "step_summary.md"),
            )
            print(f"=== {title}", flush=True)
            start = time.perf_counter()
            try:
                code = subprocess.run(
                    [*step.shell, "-c", step.run], cwd=ROOT, env=env, timeout=step.timeout
                ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            took = f"{time.perf_counter() - start:.1f} s"
            if code == 0:
                report.append(f"passed: {title} ({took})")
            elif step.continue_on_error:
                report.append(f"failed, continue-on-error: {title} (exit {code}, {took})")
            else:
                report.append(f"FAILED: {title} (exit {code}, {took})")
                failed.add(step.job)
            print(report[-1], flush=True)
        for path in sorted(Path(tmp).glob("*/step_summary.md")):
            print(f"\n{path.parent.name} job summary:\n{path.read_text()}", end="")
    print("\nreport:")
    print("\n".join(report))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="base revision of the same-results job (default HEAD)")
    args = parser.parse_args(argv)
    if MISSING:
        print(f"ci_local.py needs {MISSING}, which is not installed "
              "(PyYAML is not a dependency of tllcd)", file=sys.stderr)
        return 2
    return execute(plan(yaml.safe_load(WORKFLOW.read_text()), args.base))


if __name__ == "__main__":
    sys.exit(main())
