"""Model-layer tests: coupling families, Luttinger parameters, pair
frequencies, spectrum, the oscillator mapping and the two stability rules'
refusals."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd import cli
from tllcd.closed_forms import bogoliubov_angle, ground_state_energy, mass_frequency
from tllcd.dynamics import run_simulation
from tllcd.errors import CDInstabilityError, ContractError, LuttingerInstabilityError
from tllcd.model import (
    TWO_PI,
    CouplingFamily,
    CouplingSpec,
    cd_amplitude_contact,
    instantaneous_spectrum,
    luttinger_params,
    mode_momenta,
    pair_frequencies,
    spectrum_with_cd,
)
from tllcd.protocol import DriveProtocol, Schedule


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
    assert np.array_equal(mode_momenta(100.0, np.int64(3)), p)
    with pytest.raises(ContractError):
        mode_momenta(0.0, 3)
    with pytest.raises(ContractError):
        mode_momenta(10.0, 0)
    # np.arange(1, 3.5) has 3 entries: a float or a bool is no mode count
    for n_modes in (2.5, 4.0, np.float64(3.0), True):
        with pytest.raises(ContractError, match="integer n_modes"):
            mode_momenta(10.0, n_modes)


def test_contact_coupling_ramp():
    spec = CouplingSpec(g2_start=0.2, g2_end=1.0, g4_start=0.0, g4_end=0.5)
    assert spec.at(0.3, 0.0)[:2] == (0.2, 0.0)
    assert spec.at(0.3, 1.0)[:2] == (1.0, 0.5)
    g2, g4, dg2, dg4 = spec.at(0.3, 0.5)
    assert g2 == pytest.approx(0.6) and g4 == pytest.approx(0.25)
    assert (dg2, dg4) == (0.8, 0.5)


def test_lorentzian_coupling():
    spec = CouplingSpec(
        family=CouplingFamily.LORENTZIAN,
        g2_start=0.0,
        g2_end=1.0,
        g4_start=0.0,
        g4_end=1.0,
        R0=0.5,
    )
    g2, g4, _, _ = spec.at(2.0, 1.0)
    assert g2 == g4 == pytest.approx(math.exp(-1.0), abs=1e-14)
    _, _, dg2, dg4 = spec.at(2.0, 0.3)
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
    g2, g4, _, _ = spec.at(0.5, 1.0)
    assert g2 == pytest.approx(1.0) and g4 == pytest.approx(0.5)
    # ramped from zero by the schedule progress
    g2, g4, _, _ = spec.at(0.5, 0.5)
    assert g2 == pytest.approx(0.5) and g4 == pytest.approx(0.25)
    # clamped outside the table
    assert spec.at(5.0, 1.0)[:2] == (2.0, 1.0)
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
            assert shuffled.at(p, progress)[:2] == ordered.at(p, progress)[:2]
        assert shuffled.at(p, 0.5)[2:] == ordered.at(p, 0.5)[2:]


def test_custom_table_refuses_a_repeated_p():
    # np.interp needs increasing p: two rows at one p made the profile jump
    # from g2 = 0.214 at p = 0.49 to 0.8 at p = 0.5.  Refused at construction
    rows = ((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (0.5, 0.2, 0.1), (2.5, 0.6, 0.35))
    with pytest.raises(ContractError, match="distinct p"):
        CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=rows)


def test_coupling_family_is_checked_where_built():
    # an unknown family used to fail at the first evaluation with TypeError
    assert CouplingSpec(family="lorentzian", R0=1.0).family is CouplingFamily.LORENTZIAN
    with pytest.raises(ContractError, match="unknown coupling family 'bogus'"):
        CouplingSpec(family="bogus")


def test_custom_table_refuses_a_ragged_row():
    # a 2-entry row used to raise IndexError at the first evaluation
    for rows in (((0.0, 0.5, 0.2), (1.0, 0.4)), ((0.0, 0.5, 0.2, 0.1), (1.0, 0.4, 0.2))):
        with pytest.raises(ContractError, match="triples"):
            CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=rows)


# a number as "%.6g" writes it, without its sign
NUMBER = r"\d+(\.\d+)?(e[-+]\d+)?"


def refusal_pattern(rule, coordinates) -> str:
    """The one message of both stability rules: the coordinates of the
    worst point that the site knows, then its margin, which is not
    positive."""
    at = ", ".join(f"{x} = -?{NUMBER}" for x in coordinates)
    return rf"{rule}{' at ' if at else ''}{at}: margin (-{NUMBER}|-?0|nan) <= 0"


def test_each_stability_rule_refuses_alike_at_every_site(tmp_path, capsys):
    # check_pair_stable and require_cd_stable are the only refusals of the
    # Luttinger and the CD rule: every site that refuses raises its rule's
    # one class with its one message
    unstable = DriveProtocol(
        CouplingSpec(g2_end=TWO_PI + 0.5), Schedule(), t_f=5.0, L=100.0, n_modes=2
    )
    reference = replace(unstable, coupling=CouplingSpec(g2_end=1.0, g4_end=0.5))
    config = tmp_path / "run.cfg"
    config.write_text("family = contact\ng2_end = 6.8\nt_f = 5.0\nL = 100.0\nn_modes = 2\n")

    def refusal(error, call, passed=None):
        with pytest.raises(ContractError) as caught:
            call()
        assert type(caught.value) is error
        if passed is not None:
            assert caught.value.report.passed is passed
        return str(caught.value)

    def stability_command():
        assert cli.main(["stability", "--config", str(config)]) == cli.EXIT_INSTABILITY
        label, message = capsys.readouterr().err.rstrip("\n").split(": ", 1)
        assert label == "instability"
        return message

    L = LuttingerInstabilityError
    CD = CDInstabilityError
    sites = {
        # DriveProtocol.validate, through a run and through the command
        "run_simulation": (L, "pt", refusal(L, lambda: run_simulation(unstable))),
        "stability command": (L, "pt", stability_command()),
        "luttinger_params": (L, "", refusal(L, lambda: luttinger_params(6.8, 0.0, 1.0))),
        "instantaneous_spectrum": (L, "", refusal(L, lambda: instantaneous_spectrum(1.0, -2.0))),
        "cd_amplitude_contact": (
            L, "", refusal(L, lambda: cd_amplitude_contact(6.8, 0.0, 1.0, 0.0, 1.0))
        ),
        "bogoliubov_angle": (L, "", refusal(L, lambda: bogoliubov_angle(1.0, 1.0))),
        "gate": (
            CD, "pt", refusal(CD, lambda: run_simulation(replace(reference, t_f=0.1)), False)
        ),
        "spectrum_with_cd": (CD, "p", refusal(CD, lambda: spectrum_with_cd(2.0, 1.0, -2.5))),
    }
    for site, (error, coordinates, message) in sites.items():
        rule = "luttinger-instability" if error is L else "cd-instability"
        assert re.fullmatch(refusal_pattern(rule, coordinates), message), (site, message)
