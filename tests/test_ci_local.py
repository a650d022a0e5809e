"""tools/ci_local.py plans every step of the workflow's tier1 and
same-results jobs: it runs each `run:` step of a row this interpreter can
run, as the workflow writes it, and names why it skips any other."""

import sys
from pathlib import Path

import pytest

if sys.version_info < (3, 11):
    pytest.skip("tools/ci_local.py reads pyproject.toml with tomllib, new in Python 3.11",
                allow_module_level=True)
yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ci_local  # noqa: E402

WORKFLOW = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())


def test_the_matrix_rows_are_githubs():
    # four Python versions, then the two `include` rows, each of which
    # would overwrite an original value, as rows of their own
    rows = ci_local.matrix_rows(WORKFLOW["jobs"]["tier1"]["strategy"])
    assert [(r["python-version"], r.get("numpy-pin", ""), r["extras"]) for r in rows] == [
        ("3.10", "", "test"), ("3.11", "", "test"), ("3.12", "", "test"), ("3.13", "", "test"),
        ("3.10", "numpy~=1.24.0 scipy~=1.10.0", "test"), ("3.11", "", "test,plot"),
    ]
    assert ci_local.matrix_rows(None) == [{}]


def test_the_plan_holds_every_step_of_a_runnable_row():
    steps = ci_local.plan(WORKFLOW, "BASE")
    assert {s.job.split(" ")[0] for s in steps} == set(ci_local.JOBS)
    for name in ci_local.JOBS:
        job = WORKFLOW["jobs"][name]
        labels = dict.fromkeys(s.job for s in steps if s.job.split(" ")[0] == name)
        assert len(labels) == len(ci_local.matrix_rows(job.get("strategy")))
        ran = False
        for label in labels:
            planned = [s for s in steps if s.job == label]
            if [s.name for s in planned] == ["every step"]:
                assert planned[0].skip
                continue
            # every step in workflow order: `uses:` and `pip install`
            # skipped with a reason, every other `run:` as written
            assert len(planned) == len(job["steps"])
            for want, got in zip(job["steps"], planned):
                assert got.name == want.get("name", want.get("uses"))
                if "uses" in want or want["run"].startswith("pip install"):
                    assert got.skip and got.run is None
                    continue
                ran = True
                assert got.skip is None and "${{" not in got.run + str(got.env)
                assert got.run == want["run"]
                assert got.env == {
                    k: "BASE" if "base.sha" in v else v for k, v in want.get("env", {}).items()
                }
                assert got.shell[0] == "bash" and ("pipefail" in got.shell) == (
                    want.get("shell") == "bash"
                )
                assert got.continue_on_error == want.get("continue-on-error", False)
        # same-results has no matrix; tier1 has a row for the Python that
        # runs tier-1
        assert ran


def test_a_row_is_skipped_for_what_is_not_installed():
    pyproject = {"project": {"optional-dependencies": {"x": ["no-such-dist-tllcd"]}}}
    assert ci_local.row_skip({"python-version": ci_local.PYTHON}, pyproject) is None
    assert "Python 2.7 is not installed" in ci_local.row_skip({"python-version": "2.7"}, pyproject)
    assert "numpy<1" in ci_local.row_skip({"numpy-pin": "numpy<1"}, pyproject)
    assert ci_local.row_skip({"extras": "x"}, pyproject) == "no-such-dist-tllcd is not installed"
