"""The README quick start runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

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
