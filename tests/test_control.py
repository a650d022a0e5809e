"""Schedules, counterdiabatic amplitudes and the auxiliary real-space /
gauge-field formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd.control import (
    POLY5_MAX_DPDS,
    Schedule,
    ScheduleKind,
    cd_amplitude_contact,
    cd_amplitude_lorentzian,
    controlled_coefficients,
    delta_coefficients,
    gauge_field_amplitude,
    realspace_cd_kernel,
    schedule_value,
    spectrum_with_cd,
)
from tllcd.errors import CDInstabilityError, ContractError, LuttingerInstabilityError
from tllcd.model import TWO_PI, luttinger_params, pair_frequencies


def test_poly5_endpoints_and_midpoint():
    sch = Schedule(ScheduleKind.POLY5)
    assert schedule_value(0.0, sch) == (0.0, 0.0)
    assert schedule_value(1.0, sch) == (1.0, 0.0)
    P, dP = schedule_value(0.5, sch)
    assert P == pytest.approx(0.5, abs=1e-14)
    assert dP == pytest.approx(1.875, abs=1e-14)
    assert sch.max_derivative() == POLY5_MAX_DPDS == 1.875


def test_poly5_flat_ends():
    # vanishing first and second derivatives at both ends
    sch = Schedule(ScheduleKind.POLY5)
    h = 1e-4
    for s0 in (0.0, 1.0):
        s = min(max(s0 + (h if s0 == 0 else -h), 0.0), 1.0)
        _, dP = schedule_value(s, sch)
        assert abs(dP) < 1e-6


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_poly5_derivative_consistent(s):
    sch = Schedule(ScheduleKind.POLY5)
    P, dP = schedule_value(s, sch)
    assert -1e-12 <= P <= 1.0 + 1e-12
    h = 1e-6
    lo, hi = max(s - h, 0.0), min(s + h, 1.0)
    fd = (schedule_value(hi, sch)[0] - schedule_value(lo, sch)[0]) / (hi - lo)
    assert dP == pytest.approx(fd, abs=1e-6)


def test_linear_schedule():
    sch = Schedule(ScheduleKind.LINEAR)
    assert schedule_value(0.25, sch) == (0.25, 1.0)
    assert sch.max_derivative() == 1.0


def test_custom_schedule():
    sch = Schedule(
        ScheduleKind.CUSTOM_SAMPLES, samples=((0.0, 0.0), (0.5, 0.2), (1.0, 1.0))
    )
    P, dP = schedule_value(0.25, sch)
    assert P == pytest.approx(0.1) and dP == pytest.approx(0.4)
    assert sch.max_derivative() == pytest.approx(1.6)
    with pytest.raises(ContractError):
        Schedule(ScheduleKind.CUSTOM_SAMPLES, samples=((0.0, 0.1), (1.0, 1.0)))
    with pytest.raises(ContractError):
        Schedule(ScheduleKind.CUSTOM_SAMPLES, samples=((0.0, 0.0),))


def test_custom_schedule_steepest_slope_may_fall():
    # a ramp that rises at 2.5, falls at -20 and rises at 20/11: the
    # steepest slope is the falling one, |dP/ds| = 20, everywhere the
    # schedule is evaluated, not the largest signed slope
    sch = Schedule(
        ScheduleKind.CUSTOM_SAMPLES,
        samples=((0.0, 0.0), (0.4, 1.0), (0.45, 0.0), (1.0, 1.0)),
    )
    assert sch.max_derivative() == pytest.approx(20.0, rel=1e-12)
    _, dP = schedule_value(np.linspace(0.0, 1.0, 1001), sch)
    assert sch.max_derivative() == pytest.approx(np.max(np.abs(dP)), rel=1e-12)


def test_custom_schedule_refuses_a_repeated_s():
    # two samples at one s would make P(s) jump and max_derivative divide
    # by zero (warnings are errors here): refused at construction
    for samples in (((0.0, 0.0), (0.5, 0.2), (0.5, 0.8), (1.0, 1.0)),
                    ((0.0, 0.0), (0.0, 0.0), (1.0, 1.0))):
        with pytest.raises(ContractError, match="distinct s"):
            Schedule(ScheduleKind.CUSTOM_SAMPLES, samples=samples)


def test_schedule_domain():
    with pytest.raises(ContractError):
        schedule_value(1.2, Schedule(ScheduleKind.POLY5))


@given(
    st.floats(min_value=-1.0, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
def test_contact_amplitude_equal_coupling_reduction(g, gdot):
    # g2 = g4 = g, equal rates: Kdot/K = -gdot/(2 pi v_F + 2 g)
    chi = cd_amplitude_contact(g, g, gdot, gdot, 1.0)
    assert 2 * chi == pytest.approx(-gdot / (TWO_PI + 2 * g), rel=1e-10, abs=1e-12)


@given(
    st.floats(min_value=-1.0, max_value=3.0),
    st.floats(min_value=-0.5, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
def test_contact_amplitude_vs_finite_difference(g2, g4, dg2, dg4):
    # chi = d/dt [ln sqrt(K)] along the parametrized coupling path
    chi = cd_amplitude_contact(g2, g4, dg2, dg4, 1.0)
    h = 1e-6

    def lnsqrtk(eps):
        return 0.5 * math.log(
            luttinger_params(g2 + eps * dg2, g4 + eps * dg4, 1.0).K
        )

    fd = (lnsqrtk(h) - lnsqrtk(-h)) / (2 * h)
    assert chi == pytest.approx(fd, abs=2e-6)


def test_contact_amplitude_instability():
    with pytest.raises(Exception):
        cd_amplitude_contact(TWO_PI + 0.1, 0.0, 1.0, 1.0, 1.0)


def test_contact_amplitude_has_the_domain_of_luttinger_params():
    # 2 pi v_F + g4 = -2 pi < -|g2|: (2 pi v_F + g4)^2 > g2^2, yet omega < 0
    args = (0.0, -2 * TWO_PI, 0.1, 0.1, 1.0)
    with pytest.raises(LuttingerInstabilityError, match="luttinger-instability"):
        luttinger_params(*args[:2], 1.0)
    with pytest.raises(LuttingerInstabilityError, match="luttinger-instability"):
        cd_amplitude_contact(*args)


def test_lorentzian_amplitude_exact():
    lam, dlam, R0, p = 0.8, 0.5, 0.1, 1.0
    g24 = lam * math.exp(-R0 * p)
    expect = 0.5 * (-0.5 * dlam * math.exp(-R0 * p) / (math.pi + g24))
    assert cd_amplitude_lorentzian(lam, dlam, R0, p, 1.0) == pytest.approx(
        expect, rel=1e-12
    )


def test_lorentzian_amplitude_linearized_close_at_small_r0p():
    lam, dlam, R0, p = 0.8, 0.5, 0.02, 1.0
    exact = cd_amplitude_lorentzian(lam, dlam, R0, p, 1.0)
    lin = cd_amplitude_lorentzian(lam, dlam, R0, p, 1.0, linearized=True)
    assert lin == pytest.approx(exact, rel=1e-3)


def test_lorentzian_amplitude_warns_outside_expansion():
    with pytest.warns(UserWarning, match="0.3"):
        cd_amplitude_lorentzian(0.8, 0.5, 1.0, 1.0, 1.0)


def test_lorentzian_amplitude_matches_contact_momentum_resolved():
    # same chi as the contact formula evaluated with the momentum-resolved
    # couplings g2(p) = g4(p) = lambda exp(-R0 p) and their rates
    lam, dlam, R0, p = 0.8, 0.5, 0.1, 1.0
    damp = math.exp(-R0 * p)
    via_contact = cd_amplitude_contact(lam * damp, lam * damp, dlam * damp, dlam * damp, 1.0)
    assert cd_amplitude_lorentzian(lam, dlam, R0, p, 1.0) == pytest.approx(
        via_contact, rel=1e-12
    )


def test_controlled_coefficients_match_pair_frequencies():
    p, g2, g4 = 0.4, 1.1, 0.3
    lp = luttinger_params(g2, g4, 1.0)
    cc = controlled_coefficients(p, lp.K, lp.v_s, 0.2, 1.0)
    omega, g = pair_frequencies(p, g2, g4, 1.0)
    assert cc.omega_cd == pytest.approx(omega, rel=1e-12)
    assert cc.g_cd == pytest.approx(g, rel=1e-12)
    assert cc.chi == pytest.approx(0.1, abs=1e-14)
    with pytest.raises(ContractError):
        controlled_coefficients(-p, lp.K, lp.v_s, 0.2, 1.0)


def test_spectrum_with_cd():
    assert spectrum_with_cd(2.0, 1.0, 0.0) == pytest.approx(2.0)
    assert spectrum_with_cd(2.0, 1.0, 1.0) == pytest.approx(math.sqrt(3.0))
    with pytest.raises(CDInstabilityError, match="cd-instability"):
        spectrum_with_cd(2.0, 1.0, 2.0)
    with pytest.raises(CDInstabilityError):
        spectrum_with_cd(2.0, 1.0, -2.5)
    # strictly below threshold is fine
    spectrum_with_cd(2.0, 1.0, 2.0 * (1 - 1e-12))


def test_delta_coefficients():
    lam, dlam, R0 = 0.8, 0.5, 0.1
    base = math.pi + lam
    d1, d2 = delta_coefficients(lam, dlam, R0, 1.0)
    assert d1 == pytest.approx(-0.25 * math.pi * dlam / base, rel=1e-12)
    assert d2 == pytest.approx(0.25 * dlam * R0 * math.pi / base**2, rel=1e-12)


def test_gauge_field_amplitude():
    lam, dlam, R0, L = 0.8, 0.5, 0.1, 100.0
    nu = gauge_field_amplitude(lam, dlam, R0, 1.0, L)
    assert nu == pytest.approx(
        -R0 * dlam / (8 * L * L * (math.pi + lam) ** 3), rel=1e-12
    )
    with pytest.raises(ContractError):
        gauge_field_amplitude(lam, dlam, R0, 1.0, -1.0)


def test_realspace_kernel_contact():
    chi = 0.2
    val = realspace_cd_kernel(10.0, 30.0, 100.0, chi)
    assert val == pytest.approx(math.pi * chi * 20.0 / 100.0, rel=1e-12)
    # antisymmetric in x <-> x'
    assert realspace_cd_kernel(30.0, 10.0, 100.0, chi) == pytest.approx(-val)
    with pytest.raises(ContractError):
        realspace_cd_kernel(-1.0, 10.0, 100.0, chi)


def test_realspace_kernel_lorentzian():
    val = realspace_cd_kernel(
        10.0, 30.0, 100.0, 0.0, family="lorentzian", Delta1=0.3, Delta2=0.1
    )
    assert val == pytest.approx(0.3 * 20.0 / 100.0 + 0.1 / (10.0 - 30.0), rel=1e-12)
    diag = realspace_cd_kernel(
        10.0, 10.0, 100.0, 0.0, family="lorentzian", Delta1=0.3, Delta2=0.1
    )
    assert math.isinf(diag) and diag < 0
