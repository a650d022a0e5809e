"""Algebra-level tests for the Bogoliubov/squeeze maps and the Gaussian
state formulas, including cross-checks against the brute-force Fock sums."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd import fock, su11
from tllcd.errors import ContractError
from tllcd.su11 import (
    IDENTITY,
    BogoliubovMap,
    compose,
    inverse,
    squeeze_from_angle,
    state_overlap,
    vacuum_observables,
)

angles = st.floats(min_value=-3.0, max_value=3.0)
phases = st.floats(min_value=-math.pi, max_value=math.pi)


def random_map(eta, phi):
    """A generic SU(1,1) element: squeeze conjugated by a phase rotation."""
    c, s = math.cosh(eta), math.sinh(eta)
    return BogoliubovMap(complex(c), -s * cmath.exp(1j * phi))


def test_identity_map():
    assert IDENTITY.u == 1.0 and IDENTITY.v == 0.0
    assert IDENTITY.invariant_defect() == 0.0


def test_squeeze_zero_is_identity():
    m = squeeze_from_angle(0.0)
    assert m.u == 1.0 and m.v == 0.0


def test_squeeze_frozen_values():
    # direct evaluation of cosh/sinh at eta = -0.27465
    m = squeeze_from_angle(-0.27465)
    assert m.u.real == pytest.approx(1.0379539948784164, abs=1e-12)
    assert m.v.real == pytest.approx(0.27811597488109846, abs=1e-12)
    assert m.invariant_defect() == pytest.approx(0.0, abs=1e-14)


def test_squeeze_ratio_is_minus_tanh():
    m = squeeze_from_angle(0.5)
    assert (m.v / m.u).real == pytest.approx(-math.tanh(0.5), abs=1e-14)


def test_squeeze_rejects_nonfinite_and_overflow():
    with pytest.raises(ContractError):
        squeeze_from_angle(math.nan)
    with pytest.raises(OverflowError):
        squeeze_from_angle(351.0)


def test_check_map_policy():
    with pytest.raises(ContractError):
        su11.check_map(BogoliubovMap(1.5, 0.0))
    with pytest.warns(UserWarning):
        su11.check_map(BogoliubovMap(complex(math.sqrt(1 + 1e-8)), 0.0))


@given(angles, phases)
@settings(max_examples=200, deadline=None)
def test_compose_preserves_invariant(eta, phi):
    m = random_map(eta, phi)
    out = compose(m, squeeze_from_angle(0.3))
    assert abs(out.invariant_defect()) < 1e-10


@given(angles, phases)
@settings(max_examples=200, deadline=None)
def test_compose_with_identity(eta, phi):
    m = random_map(eta, phi)
    left = compose(IDENTITY, m)
    right = compose(m, IDENTITY)
    for out in (left, right):
        assert out.u == pytest.approx(m.u, abs=1e-14)
        assert out.v == pytest.approx(m.v, abs=1e-14)


@given(angles, phases)
@settings(max_examples=200, deadline=None)
def test_inverse_roundtrip(eta, phi):
    m = random_map(eta, phi)
    out = compose(m, inverse(m))
    assert abs(out.u - 1.0) < 1e-10
    assert abs(out.v) < 1e-10


def test_squeeze_composition_adds_angles():
    a, b = 0.4, -0.9
    out = compose(squeeze_from_angle(a), squeeze_from_angle(b))
    ref = squeeze_from_angle(a + b)
    assert out.u == pytest.approx(ref.u, abs=1e-12)
    assert out.v == pytest.approx(ref.v, abs=1e-12)


def test_vacuum_observables_identity():
    obs = vacuum_observables(IDENTITY)
    assert obs.occupation == 0.0
    assert obs.pair_correlator == 0.0
    assert obs.k0_expectation == 0.5


def test_vacuum_observables_squeeze():
    eta = 0.8
    obs = vacuum_observables(squeeze_from_angle(eta))
    assert obs.occupation == pytest.approx(math.sinh(eta) ** 2, abs=1e-12)


@given(angles, phases)
@settings(max_examples=200, deadline=None)
def test_gaussian_correlator_identity(eta, phi):
    # |<bb>|^2 = n(n+1) for any pure Gaussian pair state
    obs = vacuum_observables(random_map(eta, phi))
    n = obs.occupation
    assert abs(abs(obs.pair_correlator) ** 2 - n * (n + 1)) < 1e-9 * (1 + n) ** 2


@pytest.mark.parametrize("eta", [-0.8, -0.2, 0.4, 1.1])
def test_observables_vs_fock_sums(eta):
    state = squeeze_from_angle(eta)
    obs = vacuum_observables(state)
    ref = fock.gaussian_state(state, 150)
    assert ref.cutoff_safe
    assert obs.occupation == pytest.approx(ref.occupation(), abs=1e-10)
    assert obs.pair_correlator == pytest.approx(ref.pair_correlator(), abs=1e-10)


@pytest.mark.parametrize("r", [0.2, 0.7, 1.5])
def test_overlap_with_vacuum(r):
    # <0|squeeze(r)|0> = 1/cosh(r)
    assert state_overlap(IDENTITY, squeeze_from_angle(r)) == pytest.approx(
        1.0 / math.cosh(r), abs=1e-12
    )


def test_overlap_vs_fock_inner_product():
    a = random_map(0.3, 0.9)
    b = random_map(0.7, -0.4)
    fock_val = abs(fock.gaussian_state(a, 150).overlap(fock.gaussian_state(b, 150)))
    assert state_overlap(a, b) == pytest.approx(fock_val, abs=1e-10)


@given(angles, phases)
@settings(max_examples=100, deadline=None)
def test_overlap_symmetric_and_bounded(eta, phi):
    a = random_map(eta, phi)
    b = squeeze_from_angle(0.4)
    assert state_overlap(a, b) == pytest.approx(state_overlap(b, a), abs=1e-12)
    assert 0.0 < state_overlap(a, b) <= 1.0
    assert state_overlap(a, a) == pytest.approx(1.0, abs=1e-12)


def test_overlap_phase_invariance():
    # (u, v) -> e^{i theta}(u, v) labels the same physical state
    a = squeeze_from_angle(0.6)
    phase = cmath.exp(0.77j)
    b = BogoliubovMap(a.u * phase, a.v * phase)
    assert state_overlap(a, b) == pytest.approx(1.0, abs=1e-12)


def test_fock_amplitudes_match_tmsv():
    eta = 0.5
    amps = su11.fock_amplitudes(squeeze_from_angle(eta), 40)
    ref = fock.tmsv_amplitudes(eta, 40).amplitudes
    assert np.allclose(np.array(amps), ref, atol=1e-12)


def test_fock_amplitudes_normalized():
    amps = np.array(su11.fock_amplitudes(squeeze_from_angle(1.0), 400))
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-10)
