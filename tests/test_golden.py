"""Outputs of three small runs against golden files kept in
tests/data/golden/<case>/: a contact poly5 ramp and a Lorentzian ramp with
CD on, and a custom_table linear ramp with CD off, 4 modes x 21 records
each.  The golden files were last written after the change to integrating
each pair in its adiabatic frame, once every mode's (u, v) of the three
runs passed test_golden_runs_match_dop853.  Only manifests were rewritten
since: the table_linear_bare integrator.steps line, when the step doubling
lost its level skip; then, after test_golden_runs_match_dop853 passed on
the phase route that CD runs take, all three manifests, which gained the
stability.argmin_p and stability.argmin_t lines, and in the two CD cases
the integrator line (magnus6 to phase6) and the error_estimate and
max_invariant_defect lines, which moved at rounding.  The CSVs of the CD
cases were kept: the phase route matches them within REL_TOL.  A run must
give the same headers, row order and manifest keys, and every number to
within roundoff."""

import io
from pathlib import Path

import numpy as np
import pytest
from test_integrator import dop853

from tllcd import dynamics
from tllcd.cli import main, parse_config

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(d.name for d in GOLDEN.iterdir() if d.is_dir())
REL_TOL = 1e-13


def close(got, want):
    """Within REL_TOL * max(1, max |want|), the scale of the whole column."""
    return np.max(np.abs(got - want)) <= REL_TOL * max(1.0, np.max(np.abs(want)))


def read_table(path):
    header, _, body = path.read_text().partition("\n")
    return header, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def read_manifest(path):
    return [tuple(line.split(" = ", 1)) for line in path.read_text().splitlines()]


def test_golden_cases_present():
    assert CASES == ["contact_poly5_cd", "lorentzian_cd", "table_linear_bare"]


@pytest.mark.parametrize("case", CASES)
def test_golden_runs_match_dop853(case):
    # what makes the golden files worth matching: every mode of each run
    # against DOP853 at rtol 1e-12
    cfg = parse_config((GOLDEN / case / "run.cfg").read_text())
    proto = cfg.protocol()
    times = np.linspace(0.0, proto.t_f, cfg.record_points)
    u, v, _, _ = dynamics.integrate_protocol(proto, proto.momenta(), times, cfg.rtol, cfg.atol)
    for k, p in enumerate(proto.momenta()):
        u_ref, v_ref = dop853(proto, p, times)
        assert np.max(np.abs(u[k] - u_ref)) < 1e-8
        assert np.max(np.abs(v[k] - v_ref)) < 1e-8


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(case, tmp_path):
    golden = GOLDEN / case
    assert main(["simulate", "--config", str(golden / "run.cfg"), "--out", str(tmp_path)]) == 0
    for name in ("modes.csv", "aggregate.csv"):
        want_header, want = read_table(golden / name)
        got_header, got = read_table(tmp_path / name)
        assert got_header == want_header
        assert got.shape == want.shape
        for column, label in enumerate(want_header.split(",")):
            assert close(got[:, column], want[:, column]), f"{name}: {label}"
    want, got = read_manifest(golden / "manifest.txt"), read_manifest(tmp_path / "manifest.txt")
    assert [key for key, _ in got] == [key for key, _ in want]
    for (key, got_value), (_, want_value) in zip(got, want):
        try:
            number = float(want_value)
        except ValueError:
            assert got_value == want_value, key
            continue
        assert close(np.array([float(got_value)]), np.array([number])), key
