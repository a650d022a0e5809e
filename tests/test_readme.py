"""The README quick start runs as written and prints what it says, the
Trajectories names it gives exist, and every public module is documented."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

import tllcd
from tllcd.dynamics import Trajectories

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_block(), str(README), "exec"), {})
    first, second = out.getvalue().splitlines()
    K, v_s = (float(x) for x in first.split())
    assert abs(K - 0.8620) < 5e-5 and abs(v_s - 1.0678) < 5e-5
    assert 0.0 <= float(second) <= 1e-8


def test_readme_names_only_trajectories_members():
    # every `Trajectories.<name>` and every name in the list of observables
    text = README.read_text()
    named = set(re.findall(r"`Trajectories\.(\w+)`", text))
    listed = re.search(r"array per observable \((.*?)\)", text, re.S).group(1)
    named |= set(re.findall(r"`(\w+)`", listed))
    members = {f.name for f in dataclasses.fields(Trajectories)} | set(vars(Trajectories))
    assert {"u", "n_qp"} <= named
    assert named <= members


def test_every_public_module_is_documented():
    # a row in README's Layout table and an entry in the package docstring's
    # module list for every module whose name does not start with '_'
    modules = {
        path.stem for path in Path(tllcd.__file__).parent.glob("*.py")
        if not path.stem.startswith("_")
    }
    layout = README.read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `tllcd\.(\w+)` \|", layout, re.M))
    listed = tllcd.__doc__.split("Modules:", 1)[1]
    entries = set(re.findall(r"^    (\w+) ", listed, re.M))
    assert "dynamics" in modules
    assert modules - rows == set()
    assert modules - entries == set()
