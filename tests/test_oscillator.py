"""The paper's oscillator equivalence as an exact check of every mode
(`validate.driven_oscillator`): each (p, -p) pair is a harmonic oscillator
with driven mass and frequency, whose symplectic flow gives the excitation
at t_f that run_simulation's final n_qp, computed in the (u, v) state
space, must equal."""

import pytest

from tllcd import dynamics, validate
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
