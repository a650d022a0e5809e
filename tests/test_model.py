"""Model-layer tests: coupling families, Luttinger parameters, pair
frequencies, spectrum and the oscillator mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd.errors import ContractError, LuttingerInstabilityError
from tllcd.model import (
    TWO_PI,
    CouplingFamily,
    CouplingSpec,
    bogoliubov_angle,
    ground_state_energy,
    instantaneous_spectrum,
    luttinger_params,
    mass_frequency,
    mode_momenta,
    pair_frequencies,
)


def test_luttinger_free_point():
    lp = luttinger_params(0.0, 0.0, 1.0)
    assert lp.K == 1.0 and lp.v_s == 1.0


def test_luttinger_frozen_endpoint():
    # g2 = 1, g4 = 0.5, v_F = 1 endpoint of the reference ramp
    lp = luttinger_params(1.0, 0.5, 1.0)
    assert lp.K == pytest.approx(0.8619952425563819, abs=1e-12)
    assert lp.v_s == pytest.approx(1.0677814482182002, abs=1e-12)


@given(st.floats(min_value=-3.1, max_value=10.0))
@settings(max_examples=300, deadline=None)
def test_galilean_invariant_product(g):
    # g2 = g4 = g gives K * v_s = v_F exactly
    lp = luttinger_params(g, g, 1.0)
    assert lp.K * lp.v_s == pytest.approx(1.0, rel=1e-12)


def test_luttinger_instability_raised():
    with pytest.raises(LuttingerInstabilityError, match="luttinger-instability"):
        luttinger_params(2 * math.pi + 0.1, 0.0, 1.0)


def test_pair_frequencies_values():
    omega, g = pair_frequencies(0.3, 1.0, 0.5, 1.0)
    assert omega == pytest.approx(0.3 * (1.0 + 0.5 / TWO_PI), abs=1e-14)
    assert g == pytest.approx(0.3 / TWO_PI, abs=1e-14)
    with pytest.raises(ContractError):
        pair_frequencies(-0.1, 0.0, 0.0, 1.0)


def test_spectrum_matches_sound_velocity():
    # epsilon(p) = v_s |p| ties the pair spectrum to the sound velocity
    p, g2, g4 = 0.7, 1.3, 0.4
    omega, g = pair_frequencies(p, g2, g4, 1.0)
    eps = instantaneous_spectrum(omega, g)
    assert eps == pytest.approx(luttinger_params(g2, g4, 1.0).v_s * p, rel=1e-12)


def test_spectrum_instability():
    with pytest.raises(LuttingerInstabilityError):
        instantaneous_spectrum(1.0, 1.0)
    with pytest.raises(LuttingerInstabilityError):
        bogoliubov_angle(1.0, -1.2)


def test_bogoliubov_angle_diagonalizes():
    omega, g = 2.0, 1.0
    eta = bogoliubov_angle(omega, g)
    assert math.tanh(2 * eta) == pytest.approx(-g / omega, abs=1e-12)
    # rotated coefficients: off-diagonal part vanishes at the solution
    c2, s2 = math.cosh(2 * eta), math.sinh(2 * eta)
    assert omega * s2 + g * c2 == pytest.approx(0.0, abs=1e-12)
    assert omega * c2 + g * s2 == pytest.approx(
        instantaneous_spectrum(omega, g), abs=1e-12
    )


def test_ground_state_energy_pair_convention():
    omegas = [1.0, 2.0]
    gs = [0.5, 0.3]
    expect = sum(math.sqrt(w * w - g * g) - w for w, g in zip(omegas, gs))
    assert ground_state_energy(omegas, gs) == pytest.approx(expect, abs=1e-14)
    assert ground_state_energy(omegas, gs) < 0.0


def test_mass_frequency():
    M, Omega = mass_frequency(0.5, 0.9, 1.2, 1.0)
    assert Omega == pytest.approx(0.6, abs=1e-14)
    assert M == pytest.approx(1.0 / (0.9 * 1.2), abs=1e-14)
    with pytest.raises(ContractError):
        mass_frequency(0.5, -0.9, 1.2, 1.0)


@given(st.floats(min_value=-2.0, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_mass_is_unity_for_equal_couplings(g):
    lp = luttinger_params(g, g, 1.0)
    M, _ = mass_frequency(0.4, lp.K, lp.v_s, 1.0)
    assert M == pytest.approx(1.0, rel=1e-12)


def test_mode_momenta():
    p = mode_momenta(100.0, 3)
    assert np.allclose(p, TWO_PI * np.array([1, 2, 3]) / 100.0)
    with pytest.raises(ContractError):
        mode_momenta(0.0, 3)
    with pytest.raises(ContractError):
        mode_momenta(10.0, 0)


def test_contact_coupling_ramp():
    spec = CouplingSpec(g2_start=0.2, g2_end=1.0, g4_start=0.0, g4_end=0.5)
    assert spec.values(0.3, 0.0) == (0.2, 0.0)
    assert spec.values(0.3, 1.0) == (1.0, 0.5)
    g2, g4 = spec.values(0.3, 0.5)
    assert g2 == pytest.approx(0.6) and g4 == pytest.approx(0.25)
    assert spec.derivatives(0.3, 0.5) == (0.8, 0.5)


def test_lorentzian_coupling():
    spec = CouplingSpec(
        family=CouplingFamily.LORENTZIAN,
        g2_start=0.0,
        g2_end=1.0,
        g4_start=0.0,
        g4_end=1.0,
        R0=0.5,
    )
    g2, g4 = spec.values(2.0, 1.0)
    assert g2 == g4 == pytest.approx(math.exp(-1.0), abs=1e-14)
    dg2, dg4 = spec.derivatives(2.0, 0.3)
    assert dg2 == dg4 == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_lorentzian_requires_matching_endpoints_and_range():
    with pytest.raises(ContractError):
        CouplingSpec(
            family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=0.5, R0=0.5
        )
    with pytest.raises(ContractError):
        CouplingSpec(
            family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=1.0, R0=0.0
        )


def test_custom_table_interpolation():
    spec = CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE,
        table=((0.0, 0.0, 0.0), (1.0, 2.0, 1.0)),
    )
    g2, g4 = spec.values(0.5, 1.0)
    assert g2 == pytest.approx(1.0) and g4 == pytest.approx(0.5)
    # ramped from zero by the schedule progress
    g2, g4 = spec.values(0.5, 0.5)
    assert g2 == pytest.approx(0.5) and g4 == pytest.approx(0.25)
    # clamped outside the table
    assert spec.values(5.0, 1.0) == (2.0, 1.0)
    with pytest.raises(ContractError):
        CouplingSpec(family=CouplingFamily.CUSTOM_TABLE)


def test_custom_table_row_order_is_irrelevant():
    rows = ((0.0, 0.9, 0.45), (0.5, 0.85, 0.45), (1.0, 0.8, 0.4), (2.5, 0.6, 0.35))
    ordered = CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=rows)
    shuffled = CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE, table=(rows[2], rows[0], rows[3], rows[1])
    )
    for p in (0.0, 0.2, 0.5, 0.77, 1.9, 3.0):
        for progress in (0.0, 0.3, 1.0):
            assert shuffled.values(p, progress) == ordered.values(p, progress)
        assert shuffled.derivatives(p, 0.5) == ordered.derivatives(p, 0.5)


def test_custom_table_refuses_a_repeated_p():
    # np.interp needs increasing p: two rows at one p made the profile jump
    # from g2 = 0.214 at p = 0.49 to 0.8 at p = 0.5.  Refused at construction
    rows = ((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (0.5, 0.2, 0.1), (2.5, 0.6, 0.35))
    with pytest.raises(ContractError, match="distinct p"):
        CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=rows)
