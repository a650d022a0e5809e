"""Whole-run property test: `simulate` keeps README's exit-code contract for
every coupling family, schedule, CD setting, record grid and t_f, and
`stability` agrees with its CD gate."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd.cli import EXIT_CONFIG, EXIT_INSTABILITY, EXIT_INTEGRATION, main


@st.composite
def couplings(draw):
    """A coupling in units of v_F, on either side of the Luttinger
    instability |g2| >= 2 pi v_F + g4, often 0.0, so that some ramps start
    from zero; one in twenty overflows float64 when squared, a config
    error."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([1e300, -1e300]))
    return draw(st.just(0.0) | st.floats(-8.0, 8.0))


@st.composite
def configs(draw):
    """(config text, whether every coupling is 0 at t = 0)."""
    family = draw(st.sampled_from(["contact", "lorentzian", "custom_table"]))
    keys = {
        "family": family,
        "schedule": draw(st.sampled_from(["poly5", "linear"])),
        "cd": draw(st.sampled_from(["on", "off"])),
        "record_points": draw(st.integers(2, 201)),
        "t_f": 10.0 ** draw(st.floats(-6.0, math.log10(3000.0))),
        "L": 10.0 ** draw(st.floats(1.0, 3.0)),
        "n_modes": draw(st.integers(1, 24)),
    }
    if family == "contact":
        for key in ("g2_start", "g2_end", "g4_start", "g4_end"):
            keys[key] = draw(couplings())
        from_zero = keys["g2_start"] == keys["g4_start"] == 0.0
    elif family == "lorentzian":
        # g2 = g4 = lambda exp(-R0 |p|); R0 = 0 is a config error
        keys["g2_start"] = keys["g4_start"] = draw(couplings())
        keys["g2_end"] = keys["g4_end"] = draw(couplings())
        keys["R0"] = draw(st.floats(0.0, 3.0))
        from_zero = keys["g2_start"] == 0.0
    else:
        rows = draw(st.lists(st.tuples(st.floats(0.0, 5.0), couplings(), couplings()),
                             min_size=1, max_size=4))
        keys["table"] = "; ".join(":".join(repr(x) for x in row) for row in rows)
        from_zero = True  # the schedule ramps a table from zero
    return "".join(f"{key} = {value}\n" for key, value in keys.items()), from_zero


def run(argv):
    """(exit code, stdout, stderr) of one in-process command: an uncaught
    exception fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@settings(deadline=None)
@given(configs())
def test_every_simulate_keeps_its_exit_contract(case):
    text, from_zero = case
    cd = "cd = on\n" in text
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        rc, _, err = run(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc in (0, EXIT_CONFIG, EXIT_INSTABILITY, EXIT_INTEGRATION), err
        assert "Traceback" not in err
        if rc == EXIT_CONFIG:
            assert not out.exists()
        else:
            manifest = (out / "manifest.txt").read_text()
            assert ("status = ok" if rc == 0 else "status = failed") in manifest
        if rc == 0:
            modes = read_csv(out / "modes.csv")
            assert np.all(np.isfinite(modes))
            assert np.all(np.isfinite(read_csv(out / "aggregate.csv")))
            n_qp, fidelity = modes[:, 3], modes[:, 4]
            assert np.all(n_qp >= 0.0) and np.all(fidelity <= 1.0)
            if cd and from_zero:
                assert np.all(n_qp == 0.0)

        # `stability` takes the verdict that `simulate` gates a CD run on
        verdict, printed, _ = run(["stability", "--config", str(cfg)])
        if rc == EXIT_CONFIG:
            assert verdict == EXIT_CONFIG
            return
        if verdict == EXIT_INSTABILITY:  # a Luttinger instability
            assert rc == EXIT_INSTABILITY and "stability.error" in manifest
            return
        assert verdict == 0
        passed = "pass = True" in printed.splitlines()
        assert f"stability.pass = {passed}" in manifest
        if cd:
            assert (rc == EXIT_INSTABILITY) == (not passed)
        else:
            assert rc != EXIT_INSTABILITY
