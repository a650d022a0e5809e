"""Protocol-level tests: the coefficient grid, validation, speed-window
criteria and the closed-form bound."""

from dataclasses import replace

import numpy as np
import pytest

from tllcd import dynamics, protocol
from tllcd.control import Schedule, ScheduleKind, controlled_coefficients
from tllcd.errors import ContractError, LuttingerInstabilityError
from tllcd.model import TWO_PI, CouplingFamily, CouplingSpec
from tllcd.protocol import (
    ADIABATIC_THRESHOLD,
    STABILITY_GRID_POINTS,
    DriveProtocol,
    check_range,
    closed_form_bound,
    stability_margin,
)


def reference_protocol(t_f=9.498860966469166, n_modes=4, L=100.0, cd=True):
    return DriveProtocol(
        coupling=CouplingSpec(
            family=CouplingFamily.CONTACT,
            g2_start=0.0,
            g2_end=1.0,
            g4_start=0.0,
            g4_end=0.5,
        ),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=t_f,
        L=L,
        n_modes=n_modes,
        cd_enabled=cd,
    )


def test_protocol_validation():
    with pytest.raises(ContractError):
        reference_protocol(t_f=-1.0)
    with pytest.raises(ContractError):
        reference_protocol(n_modes=0)


def test_momenta_grid():
    proto = reference_protocol(n_modes=3)
    assert np.allclose(proto.momenta(), TWO_PI * np.array([1, 2, 3]) / 100.0)


def test_chi_zero_without_cd():
    proto = reference_protocol(cd=False)
    t = 0.5 * proto.t_f
    assert proto.grid(0.1, t).chi[0, 0] == 0.0
    assert proto.grid(0.1, t).chi_cd[0, 0] != 0.0
    assert reference_protocol().grid(0.1, t).chi[0, 0] != 0.0


def test_controlled_equals_bare_frequencies():
    proto = reference_protocol()
    p = proto.momenta()[1]
    t = 0.5 * proto.t_f
    c = proto.grid(p, t)
    K, v_s, kdot_over_k = c.K[0, 0], c.v_s[0, 0], 2 * c.chi_cd[0, 0]
    cc = controlled_coefficients(p, K, v_s, kdot_over_k, proto.v_F)
    assert cc.omega_cd == pytest.approx(c.omega[0, 0], rel=1e-12)
    assert cc.g_cd == pytest.approx(c.g[0, 0], rel=1e-12)
    assert cc.chi == pytest.approx(c.chi[0, 0], abs=1e-14)


def test_closed_form_bound_frozen():
    # L |Delta g2| max P' / (2 pi v_F)^2 with max P' = 1.875
    proto = reference_protocol()
    assert closed_form_bound(proto) == pytest.approx(4.749430483234583, abs=1e-12)


def test_closed_form_bound_none_for_table():
    proto = DriveProtocol(
        coupling=CouplingSpec(
            family=CouplingFamily.CUSTOM_TABLE,
            table=((0.0, 0.0, 0.0), (1.0, 1.0, 0.5)),
        ),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=5.0,
        L=100.0,
        n_modes=2,
    )
    assert closed_form_bound(proto) is None


def test_stability_margin_reference_run():
    report = stability_margin(reference_protocol())
    assert report.passed
    assert report.margin > 0.0
    assert report.bound_tf == pytest.approx(4.749430483234583, abs=1e-12)


def test_stability_fails_for_fast_drive():
    report = stability_margin(reference_protocol(t_f=0.05))
    assert not report.passed
    assert report.margin < 0.0


# stable in every mode at t_f = 6 except near the g2 step of the table,
# where |chi_cd| outgrows v_s p first at mode 4, not at p_min
STEP_TABLE = ((0.0, 0.01, 0.0), (0.1, 0.01, 0.0), (0.2, 5.5, 0.0), (2.0, 5.5, 0.0))


def all_mode_stability(proto):
    """(margin, argmin_p, argmin_t, max adiabaticity) over every mode at
    once, unblocked: the reference stability_margin's blocks must match."""
    t = np.linspace(0.0, proto.t_f, STABILITY_GRID_POINTS)
    c = proto.grid(proto.momenta(), t)
    excess = c.v_s * c.p - np.abs(c.chi_cd)
    mode, j = np.unravel_index(np.argmin(excess), excess.shape)
    return excess[mode, j], c.p[mode, 0], t[j], np.max(c.adiabaticity)


@pytest.mark.parametrize("block", [1, 3, protocol.STABILITY_BLOCK_MODES])
@pytest.mark.parametrize("family", ["contact", "lorentzian", "custom_table"])
def test_stability_margin_covers_every_mode(family, block, monkeypatch):
    # smaller blocks move the worst mode out of the first block
    monkeypatch.setattr(protocol, "STABILITY_BLOCK_MODES", block)
    coupling = {
        "contact": reference_protocol().coupling,
        "lorentzian": CouplingSpec(
            family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=1.0, R0=0.2
        ),
        "custom_table": CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=STEP_TABLE),
    }[family]
    # 9 modes: full blocks and a partial one
    proto = replace(reference_protocol(t_f=6.0, n_modes=9), coupling=coupling)
    report = stability_margin(proto)
    got = (report.margin, report.argmin_p, report.argmin_t, report.max_adiabaticity)
    assert got == all_mode_stability(proto)
    assert report.t_adiabatic == 6.0 * report.max_adiabaticity / ADIABATIC_THRESHOLD
    if family == "custom_table":
        assert not report.passed
        assert report.argmin_p == proto.momenta()[3]
        assert report.argmin_t == pytest.approx(4.485, abs=1e-12)


def test_adiabaticity_identity_at_slowest_mode():
    # parameter at p = 2 pi / L equals L/(2 pi) |v_sdot| / v_s^2
    proto = reference_protocol()
    p = TWO_PI / proto.L
    t = 0.5 * proto.t_f
    c = proto.grid(p, t)
    expect = proto.L / TWO_PI * abs(c.v_s_rate[0, 0]) / c.v_s[0, 0] ** 2
    assert c.adiabaticity[0, 0] == pytest.approx(expect, rel=1e-12)


def test_adiabatic_time_scales_with_tf():
    slow = stability_margin(reference_protocol(t_f=20.0))
    # max adiabaticity ~ 1/t_f, so t_adiabatic is t_f-independent
    fast = stability_margin(reference_protocol(t_f=10.0))
    assert slow.t_adiabatic == pytest.approx(fast.t_adiabatic, rel=1e-2)


def test_check_range_takes_the_least_and_the_greatest_t_f():
    # rates grow as 1/t_f and the phase omega t_f with t_f, so the least
    # t_f decides the one and the greatest (omega = 27 at p = 8 pi) the other
    proto = reference_protocol(L=1.0)
    check_range(proto, [1e-100, 1e100])
    # without g4, the rate of g2 alone overflows at the least t_f
    no_g4 = replace(proto, coupling=replace(proto.coupling, g4_end=0.0))
    for case, tf_values in (
        (proto, [1e-308, 10.0]),
        (no_g4, [1e-308, 10.0]),
        (proto, [1.0, 1e308]),
    ):
        with pytest.raises(FloatingPointError, match="overflow"):
            check_range(case, tf_values)
    # an unstable coupling is left to validate(), which the run calls first
    unstable = replace(proto, coupling=replace(proto.coupling, g2_end=1e300))
    check_range(unstable, [1.0])


def test_validate_rejects_unstable_coupling():
    proto = DriveProtocol(
        coupling=CouplingSpec(g2_start=0.0, g2_end=TWO_PI + 0.5),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=5.0,
        L=100.0,
        n_modes=2,
    )
    with pytest.raises(LuttingerInstabilityError, match="luttinger-instability"):
        proto.validate()


SPIKE = ((0.0, 0.0), (0.5, 0.5), (0.5025, 3.0), (0.505, 0.5), (1.0, 1.0))


def test_validate_catches_a_spike_between_grid_points(monkeypatch):
    # P reaches 3 for 0.5% of the ramp, where g2 = 7.5 > 2 pi v_F: a check
    # sampled on a time grid missed it, and the run integrated through it
    proto = DriveProtocol(
        coupling=CouplingSpec(g2_end=2.5, g4_end=0.0),
        schedule=Schedule(ScheduleKind.CUSTOM_SAMPLES, samples=SPIKE),
        t_f=10.0,
        L=100.0,
        n_modes=4,
        cd_enabled=False,
    )
    message = r"luttinger-instability at p=0\.251327, t=5\.025"
    with pytest.raises(ContractError, match=message):
        proto.validate()

    def no_integration(*args, **kwargs):
        raise AssertionError("integration ran on an unstable ramp")

    monkeypatch.setattr(dynamics, "integrate_modes", no_integration)
    with pytest.raises(ContractError, match=message):
        dynamics.run_simulation(proto)


def test_validate_is_exact_at_the_stability_edge():
    # omega - |g| is smallest at an extreme of P: a ramp ending just below
    # the edge passes and one ending at it fails, for every schedule kind
    edge = TWO_PI
    for schedule in (
        Schedule(ScheduleKind.POLY5),
        Schedule(ScheduleKind.LINEAR),
        Schedule(ScheduleKind.CUSTOM_SAMPLES, samples=((0.0, 0.0), (0.3, 1.0), (1.0, 1.0))),
    ):
        for g2_end, stable in ((edge * (1 - 1e-12), True), (edge, False)):
            proto = DriveProtocol(
                coupling=CouplingSpec(g2_end=g2_end),
                schedule=schedule,
                t_f=5.0,
                L=100.0,
                n_modes=3,
            )
            if stable:
                proto.validate()
            else:
                with pytest.raises(ContractError, match="luttinger-instability"):
                    proto.validate()


def test_errors_name_the_worst_point():
    proto = reference_protocol()
    with pytest.raises(ContractError, match=r"schedule argument 1\.5 outside"):
        proto.grid(proto.momenta(), [0.0, 1.2 * proto.t_f, 1.5 * proto.t_f])


def test_with_tf_and_with_cd():
    proto = reference_protocol()
    assert proto.with_tf(3.0).t_f == 3.0
    assert not proto.with_cd(False).cd_enabled
    # original untouched (frozen dataclass)
    assert proto.cd_enabled and proto.t_f != 3.0
