"""Evolution tests: integrator conventions against the Fock oracle,
observable identities, transitionless driving and sweeps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd import dynamics, fock, su11
from tllcd.control import Schedule, ScheduleKind
from tllcd.errors import (
    CDInstabilityError,
    ContractError,
    IntegrationError,
    LuttingerInstabilityError,
)
from tllcd.model import (
    CouplingFamily,
    CouplingSpec,
    PairCoefficients,
    bogoliubov_angle,
    instantaneous_spectrum,
)
from tllcd.protocol import DriveProtocol, closed_form_bound


def make_protocol(
    t_f=6.0,
    L=20.0,
    n_modes=1,
    cd=True,
    g2_start=0.0,
    g2_end=1.0,
    g4_start=0.0,
    g4_end=0.5,
):
    return DriveProtocol(
        coupling=CouplingSpec(
            family=CouplingFamily.CONTACT,
            g2_start=g2_start,
            g2_end=g2_end,
            g4_start=g4_start,
            g4_end=g4_end,
        ),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=t_f,
        L=L,
        n_modes=n_modes,
        cd_enabled=cd,
    )


def test_static_free_hamiltonian_keeps_identity():
    proto = make_protocol(g2_end=0.0, g4_end=0.0, cd=False)
    traj = dynamics.evolve_pair(proto.momenta()[0], proto, record_points=21)
    assert np.max(np.abs(traj.u - 1.0)) < 1e-9
    assert np.max(np.abs(traj.v)) < 1e-9


def test_invariant_conserved_along_run():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    assert np.max(np.abs(np.abs(traj.u) ** 2 - np.abs(traj.v) ** 2 - 1.0)) < 1e-8


def test_stored_maps_are_phase_normalized():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto, record_points=31)
    assert np.max(np.abs(traj.u.imag)) <= 1e-12
    assert np.all(traj.u.real > 0.0)
    assert traj.annihilator_phase.shape == traj.u.shape == (1, 31)
    assert traj.annihilator_phase[0, 0] == 0.0


def test_cd_run_is_transitionless():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    assert np.min(traj.fidelity) >= 1 - 1e-9
    assert traj.n_qp[0, -1] < 1e-10


def test_cd_final_state_is_target_squeeze():
    # exact solution: squeeze of angle (1/2) ln K_p(t_f)
    proto = make_protocol()
    p = proto.momenta()[0]
    traj = dynamics.evolve_pair(p, proto)
    K_f = proto.grid(p, proto.t_f).K[0, 0]
    target = su11.squeeze_from_angle(0.5 * math.log(K_f))
    assert su11.state_overlap(target, traj.map(0, -1)) >= 1 - 1e-10


def test_integrator_vs_fock_oracle():
    proto = make_protocol()
    p = proto.momenta()[0]
    for cd in (True, False):
        pr = proto.with_cd(cd)
        traj = dynamics.evolve_pair(p, pr, record_points=41)
        states = fock.evolve_fock(
            fock.vacuum_state(120),
            lambda t: pr.pair_generator(p, t),
            pr.t_f,
            t_eval=traj.times,
        )
        assert states[-1].cutoff_safe
        for k in range(0, len(traj.times), 10):
            ov = abs(states[k].overlap(fock.gaussian_state(traj.map(0, k), 120)))
            assert ov >= 1 - 1e-8


def test_quasiparticle_frame_of_ground_state():
    eta = -0.3
    framed = dynamics.quasiparticle_frame(su11.squeeze_from_angle(eta), eta)
    assert abs(framed.u - 1.0) < 1e-12
    assert abs(framed.v) < 1e-12


def test_quasiparticle_frame_angle_difference():
    # squeeze(eta') in frame eta has occupation sinh^2(eta' - eta)
    eta, etap = -0.2, 0.5
    framed = dynamics.quasiparticle_frame(su11.squeeze_from_angle(etap), eta)
    assert abs(framed.v) ** 2 == pytest.approx(
        math.sinh(etap - eta) ** 2, rel=1e-10
    )


def test_pair_energy_of_ground_state():
    coeffs = PairCoefficients(2.0, 1.0, 0.0)
    gs = su11.squeeze_from_angle(bogoliubov_angle(2.0, 1.0))
    e = dynamics.pair_energy(gs, coeffs)
    assert e == pytest.approx(math.sqrt(3.0) - 2.0, abs=1e-12)


def test_controlled_pair_energy_matches_fock_expectation():
    # pins the sign of the chi term against the dense matrix expectation
    coeffs = PairCoefficients(2.0, 1.0, 0.7)
    state = su11.BogoliubovMap(
        complex(math.cosh(0.4)), -math.sinh(0.4) * np.exp(0.6j)
    )
    H = fock.pair_hamiltonian_matrix(coeffs, 200)
    amps = fock.gaussian_state(state, 200).amplitudes
    expect = float(np.real(np.vdot(amps, H @ amps)))
    got = 2 * coeffs.omega * (0.5 + abs(state.v) ** 2)
    assert dynamics.controlled_pair_energy(state, coeffs) == pytest.approx(
        expect, abs=1e-8
    )
    assert got != pytest.approx(expect, abs=1e-3)  # chi/g terms do matter


def test_residual_energy_nonnegative():
    proto = make_protocol(cd=False)
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    assert np.min(traj.residual) >= -1e-10


def test_sudden_quench_occupation():
    # near-instantaneous CD-off ramp: state stays vacuum, quasiparticle
    # occupation relative to the final Hamiltonian equals sinh^2(eta_f)
    proto = make_protocol(t_f=1e-4, cd=False)
    p = proto.momenta()[0]
    traj = dynamics.evolve_pair(p, proto, record_points=11)
    c = proto.pair_generator(p, proto.t_f)
    eta_f = bogoliubov_angle(c.omega, c.g)
    assert traj.n_bare[0, -1] < 1e-8
    assert traj.n_qp[0, -1] == pytest.approx(
        math.sinh(eta_f) ** 2, abs=1e-8
    )


def test_interacting_initial_map():
    # start in the interacting ground state of a static Hamiltonian: nothing
    # happens (up to phase), quasiparticle occupation stays zero
    proto = make_protocol(g2_start=1.0, g2_end=1.0, g4_start=0.5, g4_end=0.5, cd=False)
    p = proto.momenta()[0]
    c = proto.pair_generator(p, 0.0)
    gs = su11.squeeze_from_angle(bogoliubov_angle(c.omega, c.g))
    traj = dynamics.evolve_pair(p, proto, initial=gs, record_points=21)
    assert np.max(traj.n_qp) < 1e-9
    assert np.min(traj.fidelity) >= 1 - 1e-9


def test_dynamical_phase_convention():
    proto = make_protocol()
    p = proto.momenta()[0]
    traj = dynamics.evolve_pair(p, proto, initial_occupation=2.0)
    c = proto.pair_generator(p, 0.0)
    eps0 = instantaneous_spectrum(c.omega, c.g)
    # phase = -eps(p,0) n_p(0) * integral of v_s/v_F (= 1/sigma_s^2) dt
    assert traj.phase[0, 0] == 0.0
    assert traj.phase[0, -1] == pytest.approx(
        -eps0 * 2.0 * traj.sigma_integral[0, -1], rel=1e-12
    )
    assert traj.sigma_integral[0, -1] > proto.t_f  # v_s grows above v_F


def test_mean_energy_scaling_requires_cd():
    proto = make_protocol(cd=False)
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    with pytest.raises(ContractError):
        dynamics.mean_energy_scaling_check(traj, proto)


OBSERVED_COUPLINGS = {
    "contact": CouplingSpec(family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5),
    "lorentzian": CouplingSpec(
        family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=1.0, R0=0.2
    ),
    "custom_table": CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE,
        table=((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (2.5, 0.6, 0.35)),
    ),
}


@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
@pytest.mark.parametrize("family", sorted(OBSERVED_COUPLINGS))
def test_observation_identities(family, cd):
    # the overlap with the instantaneous ground state is (1 + n_qp)^(-1/2)
    # and the excess energy is 2 eps n_qp, elementwise over modes and records
    proto = make_protocol(n_modes=8, cd=cd)
    proto = replace(proto, coupling=OBSERVED_COUPLINGS[family])
    traj = dynamics.run_simulation(proto, record_points=41).trajectories
    c = proto.grid(traj.p, traj.times)
    eps = instantaneous_spectrum(c.omega, c.g)
    assert np.max(np.abs(traj.fidelity - (1.0 + traj.n_qp) ** -0.5)) <= 1e-13
    assert np.all(np.abs(traj.residual - 2.0 * eps * traj.n_qp) <= 1e-13 * c.omega)
    # CD keeps n_qp at roundoff; without CD the identities hold on real excitations
    assert cd or np.max(traj.n_qp) > 1e-6


def test_mean_energy_scaling_cd_on():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    assert dynamics.mean_energy_scaling_check(traj, proto) < 1e-10


def test_run_simulation_aggregates():
    proto = make_protocol(L=40.0, n_modes=3)
    result = dynamics.run_simulation(proto, record_points=41)
    assert result.trajectories.n_qp.shape == (3, 41)
    assert result.total_residual.shape == result.times.shape
    assert abs(result.total_residual[-1]) < 1e-8  # CD keeps it at tolerance
    assert result.stability.margin > 0
    assert result.K[-1] == pytest.approx(0.8619952425563819, abs=1e-10)
    assert result.v_s[-1] == pytest.approx(1.0677814482182002, abs=1e-10)


def test_sweep_tf_rows():
    proto = make_protocol(L=40.0, n_modes=1, cd=False)
    rows = dynamics.sweep_tf(proto, [4.0, 40.0], record_points=21)
    assert [r.t_f for r in rows] == [4.0, 40.0]
    # adiabatic limit: residual decreases with slower driving
    assert rows[1].final_residual < rows[0].final_residual
    with pytest.raises(ContractError):
        dynamics.sweep_tf(proto, [])


def test_sweep_tf_flags_unstable():
    proto = make_protocol(L=40.0, n_modes=1, cd=True)
    rows = dynamics.sweep_tf(proto, [0.02], record_points=11)
    assert not rows[0].stability_pass
    assert math.isnan(rows[0].final_residual)


def test_reference_run_is_warning_free_and_symplectic():
    # the north-star ramp: 128 modes x 201 records, t_f twice the closed-form bound
    proto = make_protocol(L=100.0, n_modes=128)
    proto = proto.with_tf(2.0 * closed_form_bound(proto))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        result = dynamics.run_simulation(proto)
    assert result.integration.max_invariant_defect <= 1e-12
    assert abs(result.total_residual[-1]) <= 1e-12


def test_sweep_over_unstable_coupling_raises():
    # the CD margin at p_min fails at this t_f, but the coupling itself is
    # unstable above p_min: that is an error, not a flagged row
    coupling = CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE,
        table=((0.0, 1.0, 0.0), (0.1, 1.0, 0.0), (0.2, 7.0, 0.0), (2.0, 7.0, 0.0)),
    )
    proto = replace(make_protocol(L=100.0, n_modes=8), coupling=coupling)
    with pytest.raises(LuttingerInstabilityError, match="p=0.502655"):
        dynamics.sweep_tf(proto, [0.01], record_points=11)


def test_cd_sweep_residual_does_not_drift_with_tf():
    proto = make_protocol(L=100.0, n_modes=32)
    rows = dynamics.sweep_tf(proto, [5.0, 10.0, 20.0, 40.0])
    assert all(r.stability_pass for r in rows)
    assert max(abs(r.final_residual) for r in rows) <= 1e-12


def test_cd_instability_fails_before_integration(monkeypatch):
    # the controlled spectrum v_s p > |chi| is checked on the (mode, record)
    # grid before any integration work
    def no_integration(*args, **kwargs):
        raise AssertionError("integration ran on an unstable CD protocol")

    proto = make_protocol(t_f=9.498860966469166, L=100.0, n_modes=4)
    monkeypatch.setattr(dynamics, "integrate_modes", no_integration)
    with pytest.raises(CDInstabilityError, match="cd-instability at p = 0.0628319"):
        dynamics.run_simulation(proto.with_tf(0.05), record_points=31)


def test_invariant_check_raises_and_warns_once(monkeypatch):
    proto = make_protocol(n_modes=3)
    real = dynamics.integrate_protocol

    def drifted(defect):
        def integrate(*args):
            u, v, report = real(*args)
            return u, v, replace(report, max_invariant_defect=defect)

        return integrate

    monkeypatch.setattr(dynamics, "integrate_protocol", drifted(1e-8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dynamics.run_simulation(proto, record_points=21)
    assert [str(w.message) for w in caught] == [
        "Bogoliubov invariant drift 1.000e-08 exceeds 1e-09"
    ]
    monkeypatch.setattr(dynamics, "integrate_protocol", drifted(2e-6))
    with pytest.raises(IntegrationError, match="invariant violated"):
        dynamics.run_simulation(proto, record_points=21)


def unit_maps(r, phase_u, phase_v):
    """States with |u|^2 - |v|^2 = 1 and arbitrary annihilator phases."""
    return np.cosh(r) * np.exp(1j * phase_u), np.sinh(r) * np.exp(1j * phase_v)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 2.0),
            st.floats(-math.pi, math.pi),
            st.floats(-math.pi, math.pi),
            st.floats(0.1, 5.0),
            st.floats(-0.95, 0.95),
            st.floats(-2.0, 2.0),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_array_observables_match_scalar_references(rows):
    r, phase_u, phase_v, omega, g_ratio, chi = (np.array(col) for col in zip(*rows))
    u, v = unit_maps(r, phase_u, phase_v)
    rotation = np.exp(-1j * np.angle(u))
    u, v = u * rotation, v * rotation
    g = g_ratio * omega
    obs = dynamics.observables(u, v, omega, g, chi)
    for k in range(len(rows)):
        state = su11.BogoliubovMap(complex(u[k]), complex(v[k]))
        coeffs = PairCoefficients(omega[k], g[k], chi[k])
        eta = bogoliubov_angle(omega[k], g[k])
        energy = dynamics.pair_energy(state, coeffs)
        want = {
            "n_bare": su11.vacuum_observables(state).occupation,
            "n_qp": abs(dynamics.quasiparticle_frame(state, eta).v) ** 2,
            "fidelity": su11.state_overlap(su11.squeeze_from_angle(eta), state),
            "pair_energy": energy,
            "residual": energy - (instantaneous_spectrum(omega[k], g[k]) - omega[k]),
            "controlled_energy": dynamics.controlled_pair_energy(state, coeffs),
        }
        scale = 1.0 + abs(omega[k]) * np.cosh(2.0 * r[k])
        for name, value in want.items():
            assert abs(obs[name][k] - value) <= 1e-13 * scale, name
