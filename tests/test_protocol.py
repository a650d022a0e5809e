"""Protocol-level tests: per-(p, t) evaluation, speed-window criteria and
the closed-form bound."""

import math

import numpy as np
import pytest

from tllcd import dynamics
from tllcd.control import Schedule, ScheduleKind
from tllcd.errors import ContractError
from tllcd.model import TWO_PI, CouplingFamily, CouplingSpec
from tllcd.protocol import (
    DriveProtocol,
    adiabaticity_parameter,
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


def test_couplings_chain_rule():
    proto = reference_protocol()
    t = 0.37 * proto.t_f
    g2, g4, dg2, dg4 = proto.couplings(0.1, t)
    h = 1e-6
    g2p, g4p, _, _ = proto.couplings(0.1, t + h)
    g2m, g4m, _, _ = proto.couplings(0.1, t - h)
    assert dg2 == pytest.approx((g2p - g2m) / (2 * h), abs=1e-7)
    assert dg4 == pytest.approx((g4p - g4m) / (2 * h), abs=1e-7)


def test_chi_zero_without_cd():
    proto = reference_protocol(cd=False)
    assert proto.chi(0.1, 0.5 * proto.t_f) == 0.0
    assert reference_protocol().chi(0.1, 0.5 * proto.t_f) != 0.0


def test_chi_matches_finite_difference_of_lnsqrtk():
    proto = reference_protocol()
    p = proto.momenta()[0]
    t = 0.41 * proto.t_f
    h = 1e-6
    fd = (
        math.log(proto.luttinger(p, t + h).K) - math.log(proto.luttinger(p, t - h).K)
    ) / (4 * h)
    assert proto.chi(p, t) == pytest.approx(fd, abs=1e-8)


def test_sound_velocity_rate_finite_difference():
    proto = reference_protocol()
    p = proto.momenta()[0]
    t = 0.6 * proto.t_f
    h = 1e-6
    fd = (proto.luttinger(p, t + h).v_s - proto.luttinger(p, t - h).v_s) / (2 * h)
    assert proto.sound_velocity_rate(p, t) == pytest.approx(fd, abs=1e-8)


def test_controlled_equals_bare_frequencies():
    proto = reference_protocol()
    p = proto.momenta()[1]
    t = 0.5 * proto.t_f
    cc = proto.controlled(p, t)
    omega, g = proto.pair_frequencies(p, t)
    assert cc.omega_cd == pytest.approx(omega, rel=1e-12)
    assert cc.g_cd == pytest.approx(g, rel=1e-12)
    assert cc.chi == pytest.approx(proto.chi(p, t), abs=1e-14)


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


def test_adiabaticity_identity_at_slowest_mode():
    # parameter at p = 2 pi / L equals L/(2 pi) |v_sdot| / v_s^2
    proto = reference_protocol()
    p = TWO_PI / proto.L
    t = 0.5 * proto.t_f
    lp = proto.luttinger(p, t)
    expect = proto.L / TWO_PI * abs(proto.sound_velocity_rate(p, t)) / lp.v_s**2
    assert adiabaticity_parameter(proto, p, t) == pytest.approx(expect, rel=1e-12)


def test_adiabatic_time_scales_with_tf():
    slow = stability_margin(reference_protocol(t_f=20.0))
    # max adiabaticity ~ 1/t_f, so t_adiabatic is t_f-independent
    fast = stability_margin(reference_protocol(t_f=10.0))
    assert slow.t_adiabatic == pytest.approx(fast.t_adiabatic, rel=1e-2)


def test_validate_rejects_unstable_coupling():
    proto = DriveProtocol(
        coupling=CouplingSpec(g2_start=0.0, g2_end=TWO_PI + 0.5),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=5.0,
        L=100.0,
        n_modes=2,
    )
    with pytest.raises(ContractError, match="luttinger-instability"):
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


def test_coefficient_grid_matches_scalar_methods():
    proto = reference_protocol()
    p = proto.momenta()
    t = np.linspace(0.0, proto.t_f, 7)
    grid = proto.grid(p, t)
    for got, want in zip((grid.omega, grid.g, grid.chi), proto.coefficients(p, t)):
        assert np.array_equal(got, want)
    for i, pi in enumerate(p):
        for j, tj in enumerate(t):
            lp = proto.luttinger(pi, tj)
            assert grid.K[i, j] == lp.K and grid.v_s[i, j] == lp.v_s
            assert grid.chi_cd[i, j] == 0.5 * proto.kdot_over_k(pi, tj)
            assert grid.v_s_rate[i, j] == proto.sound_velocity_rate(pi, tj)
            assert grid.adiabaticity[i, j] == adiabaticity_parameter(proto, pi, tj)


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
