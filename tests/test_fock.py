"""Truncated-Fock oracle tests: sector structure, Hamiltonian matrix,
eigenvalues and the time evolution used to certify the Gaussian integrator."""

import math

import numpy as np
import pytest

from tllcd import fock, su11
from tllcd.errors import ContractError
from tllcd.model import PairCoefficients


def test_vacuum_state():
    st = fock.vacuum_state(20)
    assert st.norm == 1.0
    assert st.occupation() == 0.0
    assert st.pair_correlator() == 0.0


def test_tmsv_normalized_and_annihilated():
    eta = 0.5
    st = fock.tmsv_amplitudes(eta, 200)
    assert st.norm == pytest.approx(1.0, abs=1e-12)
    assert st.cutoff_safe
    # [cosh(eta) b - sinh(eta) b†] kills the state: the |m, m+1> coefficient
    # sqrt(m+1)[cosh(eta) c_{m+1} - sinh(eta) c_m] vanishes for all m
    root = np.sqrt(np.arange(1, 201))
    killed = root * (
        math.cosh(eta) * st.amplitudes[1:] - math.sinh(eta) * st.amplitudes[:-1]
    )
    assert np.linalg.norm(killed) < 1e-12


def test_tmsv_occupation():
    eta = -0.7
    st = fock.tmsv_amplitudes(eta, 300)
    assert st.occupation() == pytest.approx(math.sinh(eta) ** 2, abs=1e-10)


def test_tmsv_tail_flag():
    st = fock.tmsv_amplitudes(2.5, 10)
    assert not st.cutoff_safe


def test_gaussian_state_matches_tmsv():
    eta = 0.6
    a = fock.gaussian_state(su11.squeeze_from_angle(eta), 150)
    b = fock.tmsv_amplitudes(eta, 150)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def test_hamiltonian_matrix_structure():
    H = fock.pair_hamiltonian_matrix(PairCoefficients(1.5, 0.4, 0.2), 3)
    n = np.arange(4)
    assert np.allclose(np.diag(H).real, 3.0 * (n + 0.5))
    assert np.allclose(np.diag(H, -1), (0.4 + 0.2j) * (n[:-1] + 1))
    assert np.allclose(H, H.conj().T)
    with pytest.raises(ContractError):
        fock.pair_hamiltonian_matrix(PairCoefficients(1.0, 0.0, 0.0), 0)


def test_ground_eigenvalue_is_spectrum():
    # ground eigenvalue of 2 omega K0 + g(K+ + K-) equals sqrt(omega^2 - g^2)
    H = fock.pair_hamiltonian_matrix(PairCoefficients(2.0, 1.0, 0.0), 200)
    ev = np.linalg.eigvalsh(H)
    assert ev[0] == pytest.approx(math.sqrt(3.0), abs=1e-9)
    # uniform ladder spacing 2 epsilon
    gaps = np.diff(ev[:5])
    assert np.allclose(gaps, 2 * math.sqrt(3.0), atol=1e-7)


def test_ground_eigenvalue_with_cd_term():
    # the anti-Hermitian-generator term shifts the spectrum to
    # sqrt(omega^2 - g^2 - chi^2)
    coeffs = PairCoefficients(2.0, 1.0, 0.8)
    H = fock.pair_hamiltonian_matrix(coeffs, 200)
    ev = np.linalg.eigvalsh(H)
    expect = math.sqrt(4.0 - 1.0 - 0.64)
    assert ev[0] == pytest.approx(expect, abs=1e-9)


def test_ground_eigenvector_matches_gaussian_gs():
    from tllcd.closed_forms import bogoliubov_angle

    omega, g = 2.0, 1.0
    H = fock.pair_hamiltonian_matrix(PairCoefficients(omega, g, 0.0), 200)
    w, vecs = np.linalg.eigh(H)
    gs = vecs[:, 0]
    gs = gs / gs[0] * abs(gs[0])  # fix sign/phase
    ref = fock.gaussian_state(
        su11.squeeze_from_angle(bogoliubov_angle(omega, g)), 200
    ).amplitudes
    overlap = abs(np.vdot(gs, ref))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_evolve_fock_static_phase():
    # static H: amplitudes pick up e^{-i E t} per eigenstate; vacuum under
    # free H (g = chi = 0) stays vacuum up to the zero-point phase
    omega = 1.3
    t_f = 2.0
    states = fock.evolve_fock(
        fock.vacuum_state(40),
        lambda t: PairCoefficients(omega, 0.0, 0.0),
        t_f,
    )
    final = states[-1]
    assert abs(final.amplitudes[0] - np.exp(-1j * omega * t_f)) < 1e-9
    assert np.linalg.norm(final.amplitudes[1:]) < 1e-10


def test_evolve_fock_norm_conserved():
    states = fock.evolve_fock(
        fock.vacuum_state(80),
        lambda t: PairCoefficients(1.0, 0.4 * t, 0.1),
        3.0,
        t_eval=np.linspace(0.0, 3.0, 7),
    )
    for st in states:
        assert st.norm == pytest.approx(1.0, abs=1e-9)
    assert states[-1].cutoff_safe


def test_evolve_fock_flags_unsafe_cutoff():
    # strong drive on a tiny sector must trip the tail-mass flag
    states = fock.evolve_fock(
        fock.vacuum_state(3),
        lambda t: PairCoefficients(1.0, 0.95, 0.0),
        8.0,
    )
    assert not states[-1].cutoff_safe


def test_evolve_fock_requires_normalized_start():
    bad = fock.vacuum_state(10)
    bad.amplitudes = bad.amplitudes * 2.0
    with pytest.raises(ContractError):
        fock.evolve_fock(bad, lambda t: PairCoefficients(1.0, 0.0, 0.0), 1.0)
