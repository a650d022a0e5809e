"""Known defects, each pinned by a test of the right behaviour that fails
today: a strict xfail that names the CHANGES.md `FOUND:` line or the
ROADMAP item and the class of today's failure.  A change that mends a
defect makes its test pass, and the strict marker then fails the suite
until the marker is removed, so the mend shows in the diff."""

import pytest

from tllcd import dynamics, validate
from tllcd.errors import ConfigError, IntegrationError
from tllcd.model import CouplingFamily, CouplingSpec
from tllcd.protocol import DriveProtocol, Schedule, ScheduleKind

CONTACT = CouplingSpec(family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5)


def ramp(coupling=CONTACT, schedule=Schedule(ScheduleKind.POLY5), **fields):
    fields = {"t_f": 6.0, "L": 20.0, "n_modes": 4, "cd_enabled": False, **fields}
    return DriveProtocol(coupling=coupling, schedule=schedule, **fields)


@pytest.mark.xfail(
    strict=True, raises=IntegrationError,
    reason="CHANGES.md line 374: a Magnus step that cannot be resolved exits 4, not 2",
)
def test_an_unresolvable_magnus_step_is_a_config_error():
    proto = ramp(
        CouplingSpec(family=CouplingFamily.CONTACT, g4_end=4.8e104),
        Schedule(ScheduleKind.LINEAR), t_f=543.0, L=924.0, n_modes=3,
    )
    with pytest.raises(ConfigError):
        dynamics.run_simulation(proto)


@pytest.mark.xfail(
    strict=True, raises=IntegrationError,
    reason="CHANGES.md line 526: a tolerance below float64's reach exits 4, not 2: "
    "at the Magnus ladder's cap, or with CD on at the Chebyshev route's floor",
)
@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
def test_an_unreachable_tolerance_is_refused_before_integrating(cd, monkeypatch):
    integrations = []
    integrate_modes = dynamics.integrate_modes

    def spy(*args):
        integrations.append(args)
        return integrate_modes(*args)

    monkeypatch.setattr(dynamics, "integrate_modes", spy)
    with pytest.raises(ConfigError):
        dynamics.run_simulation(ramp(cd_enabled=cd), rtol=1e-300, atol=1e-300, record_points=5)
    assert integrations == []


@pytest.mark.xfail(
    strict=True, raises=IntegrationError,
    reason="ROADMAP item 15: a t_f whose phase float64 cannot resolve to the "
    "tolerance is refused at the Chebyshev route's floor with exit 4, not 2",
)
def test_a_phase_below_the_precision_floor_is_refused():
    proto = ramp(t_f=1e7, L=100.0, n_modes=8, cd_enabled=True)
    with pytest.raises(ConfigError):
        dynamics.run_simulation(proto, record_points=21)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 23: a Magnus step past its convergence bound is "
    "accepted outside the tolerance",
)
def test_a_long_bare_ramp_is_within_tolerance_or_refused():
    # mode 8 of the L = 100 ramp alone
    proto = ramp(t_f=4.9e5, L=12.5, n_modes=1)
    try:
        value, bound = validate.error_control(proto, 21, 4)
    except ConfigError:
        return
    assert value <= bound
