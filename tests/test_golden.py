"""Outputs of three small runs against golden files kept in
tests/data/golden/<case>/: a contact poly5 ramp and a Lorentzian ramp with
CD on, and a custom_table linear ramp with CD off, 4 modes x 21 records
each.  The golden files were written by the scalar per-record
implementation; the array implementation must give the same headers, row
order and manifest keys, and every number to within roundoff."""

import io
from pathlib import Path

import numpy as np
import pytest

from tllcd.cli import main

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
