"""Evolution tests: integrator conventions against the Fock oracle,
observable identities, transitionless driving and sweeps."""

import math
import warnings

import numpy as np
import pytest

from tllcd import dynamics, fock, su11
from tllcd.control import Schedule, ScheduleKind
from tllcd.errors import ContractError
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
    for m in traj.maps:
        assert abs(m.u - 1.0) < 1e-9
        assert abs(m.v) < 1e-9


def test_invariant_conserved_along_run():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    for m in traj.maps:
        assert abs(m.invariant_defect()) < 1e-8


def test_stored_maps_are_phase_normalized():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto, record_points=31)
    for m in traj.maps:
        assert m.u.imag == pytest.approx(0.0, abs=1e-12)
        assert m.u.real > 0.0
    assert traj.annihilator_phase is not None
    assert traj.annihilator_phase[0] == 0.0


def test_cd_run_is_transitionless():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    for rec in traj.records:
        assert rec.fidelity_instantaneous_gs >= 1 - 1e-9
    assert traj.records[-1].occupation_quasiparticle < 1e-10


def test_cd_final_state_is_target_squeeze():
    # exact solution: squeeze of angle (1/2) ln K_p(t_f)
    proto = make_protocol()
    p = proto.momenta()[0]
    traj = dynamics.evolve_pair(p, proto)
    K_f = proto.luttinger(p, proto.t_f).K
    target = su11.squeeze_from_angle(0.5 * math.log(K_f))
    assert su11.state_overlap(target, traj.maps[-1]) >= 1 - 1e-10


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
        for st, m in zip(states[::10], traj.maps[::10]):
            ov = abs(st.overlap(fock.gaussian_state(m, 120)))
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
    for rec in traj.records:
        assert rec.residual_energy >= -1e-10


def test_sudden_quench_occupation():
    # near-instantaneous CD-off ramp: state stays vacuum, quasiparticle
    # occupation relative to the final Hamiltonian equals sinh^2(eta_f)
    proto = make_protocol(t_f=1e-4, cd=False)
    p = proto.momenta()[0]
    traj = dynamics.evolve_pair(p, proto, record_points=11)
    omega, g = proto.pair_frequencies(p, proto.t_f)
    eta_f = bogoliubov_angle(omega, g)
    assert traj.records[-1].occupation_bare < 1e-8
    assert traj.records[-1].occupation_quasiparticle == pytest.approx(
        math.sinh(eta_f) ** 2, abs=1e-8
    )


def test_interacting_initial_map():
    # start in the interacting ground state of a static Hamiltonian: nothing
    # happens (up to phase), quasiparticle occupation stays zero
    proto = make_protocol(g2_start=1.0, g2_end=1.0, g4_start=0.5, g4_end=0.5, cd=False)
    p = proto.momenta()[0]
    omega, g = proto.pair_frequencies(p, 0.0)
    gs = su11.squeeze_from_angle(bogoliubov_angle(omega, g))
    traj = dynamics.evolve_pair(p, proto, initial=gs, record_points=21)
    for rec in traj.records:
        assert rec.occupation_quasiparticle < 1e-9
        assert rec.fidelity_instantaneous_gs >= 1 - 1e-9


def test_dynamical_phase_convention():
    proto = make_protocol()
    p = proto.momenta()[0]
    traj = dynamics.evolve_pair(p, proto, initial_occupation=2.0)
    omega0, g0 = proto.pair_frequencies(p, 0.0)
    eps0 = instantaneous_spectrum(omega0, g0)
    # phase = -eps(p,0) n_p(0) * integral of v_s/v_F (= 1/sigma_s^2) dt
    assert traj.phase[0] == 0.0
    assert traj.phase[-1] == pytest.approx(
        -eps0 * 2.0 * traj.sigma_integral[-1], rel=1e-12
    )
    assert traj.sigma_integral[-1] > proto.t_f  # v_s grows above v_F


def test_mean_energy_scaling_requires_cd():
    proto = make_protocol(cd=False)
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    with pytest.raises(ContractError):
        dynamics.mean_energy_scaling_check(traj, proto)


def test_mean_energy_scaling_cd_on():
    proto = make_protocol()
    traj = dynamics.evolve_pair(proto.momenta()[0], proto)
    assert dynamics.mean_energy_scaling_check(traj, proto) < 1e-10


def test_run_simulation_aggregates():
    proto = make_protocol(L=40.0, n_modes=3)
    result = dynamics.run_simulation(proto, record_points=41)
    assert len(result.trajectories) == 3
    assert result.total_residual.shape == result.times.shape
    assert abs(result.total_residual[-1]) < 1e-8  # CD keeps it at tolerance
    assert result.min_margin > 0
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


def test_cd_sweep_residual_does_not_drift_with_tf():
    proto = make_protocol(L=100.0, n_modes=32)
    rows = dynamics.sweep_tf(proto, [5.0, 10.0, 20.0, 40.0])
    assert all(r.stability_pass for r in rows)
    assert max(abs(r.final_residual) for r in rows) <= 1e-12
