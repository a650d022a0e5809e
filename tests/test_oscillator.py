"""The paper's oscillator equivalence as an exact check of every mode
(`validate.driven_oscillator`): each (p, -p) pair is a harmonic oscillator
with driven mass and frequency, whose symplectic flow gives the excitation
at t_f that run_simulation's final n_qp, computed in the (u, v) state
space, must equal."""

from dataclasses import replace
from pathlib import Path

import pytest

from tllcd import dynamics, validate
from tllcd.cli import parse_config
from tllcd.model import CouplingFamily, CouplingSpec
from tllcd.protocol import DriveProtocol, Schedule, ScheduleKind

COUPLINGS = {
    "contact": CouplingSpec(family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5),
    "lorentzian": CouplingSpec(
        family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=1.0, R0=0.5
    ),
    "custom_table": CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE,
        table=((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (2.5, 0.6, 0.35)),
    ),
}
# first, middle and top of 8 modes
MODES = (0, 4, 7)


@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_every_mode_matches_the_driven_oscillator(family, cd):
    # poly5, t_f = 10, L = 100, 8 modes
    proto = DriveProtocol(
        coupling=COUPLINGS[family], schedule=Schedule(ScheduleKind.POLY5),
        t_f=10.0, L=100.0, n_modes=8, cd_enabled=cd,
    )
    assert validate.driven_oscillator(proto, 21, MODES)[0] <= 1.0
    if not cd:
        # without CD the ramp excites every mode, well above the bound
        traj = dynamics.run_simulation(proto, record_points=21).trajectories
        for k in MODES:
            n, bound = validate.oscillator_excitation(proto, traj, k)
            assert n > 1e3 * bound, (k, n, bound)


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("cd", ["on", "off"])
@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.iterdir()))
def test_every_mode_of_the_golden_configs_matches_the_driven_oscillator(golden, cd):
    # each golden config as the command line reads it, with CD on and off:
    # every mode, on the config's own record grid
    cfg = replace(parse_config((GOLDEN / golden / "run.cfg").read_text()), cd=cd)
    ratio, bound = validate.driven_oscillator(cfg.protocol(), cfg.record_points)
    assert ratio <= bound
