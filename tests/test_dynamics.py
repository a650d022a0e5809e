"""Evolution tests: integrator conventions against the Fock oracle,
observable identities, transitionless driving and sweeps."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tllcd import dynamics, fock, integrator, model, su11, validate
from tllcd.closed_forms import bogoliubov_angle
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
    instantaneous_spectrum,
)
from tllcd.protocol import DriveProtocol, Schedule, ScheduleKind, closed_form_bound


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
    traj = dynamics.run_simulation(proto, record_points=21).trajectories
    # the vacuum, with its phase e^(i omega t) kept in u
    assert np.max(np.abs(np.abs(traj.u) - 1.0)) < 1e-9
    assert np.max(np.abs(traj.v)) < 1e-9


def test_invariant_conserved_along_run():
    proto = make_protocol()
    traj = dynamics.run_simulation(proto).trajectories
    assert np.max(np.abs(np.abs(traj.u) ** 2 - np.abs(traj.v) ** 2 - 1.0)) < 1e-8


def test_stored_maps_are_phase_normalized():
    proto = make_protocol()
    p = proto.momenta()[0]
    traj = dynamics.run_simulation(proto, record_points=31).trajectories
    for j in range(len(traj.times)):
        state = validate.state_map(traj, 0, j)
        assert abs(state.u.imag) <= 1e-12
        assert state.u.real > 0.0
    # the stored (u, v) are the integrator's lab state, phase included
    u, v, _, _ = integrator.integrate_modes(
        proto.grid, traj.times, proto.grid([p], traj.times), [1.0], [0.0],
        dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL,
    )
    assert np.array_equal(traj.u, u)
    assert np.array_equal(traj.v, v)


def test_cd_run_is_transitionless():
    proto = make_protocol()
    traj = dynamics.run_simulation(proto).trajectories
    assert np.min(traj.fidelity) >= 1 - 1e-9
    assert traj.n_qp[0, -1] < 1e-10


def test_cd_final_state_is_target_squeeze():
    # exact solution: squeeze of angle (1/2) ln K_p(t_f)
    proto = make_protocol()
    p = proto.momenta()[0]
    traj = dynamics.run_simulation(proto).trajectories
    K_f = proto.grid(p, proto.t_f).K[0, 0]
    target = su11.squeeze_from_angle(0.5 * math.log(K_f))
    assert su11.state_overlap(target, validate.state_map(traj, 0, -1)) >= 1 - 1e-10


def test_integrator_vs_fock_oracle():
    # every record, CD on and off
    for cd in (True, False):
        assert validate.fock_vs_run(make_protocol(cd=cd), 41, 120)[0] <= 1e-8


def test_quasiparticle_frame_of_ground_state():
    eta = -0.3
    framed = validate.quasiparticle_frame(su11.squeeze_from_angle(eta), eta)
    assert abs(framed.u - 1.0) < 1e-12
    assert abs(framed.v) < 1e-12


def test_quasiparticle_frame_angle_difference():
    # squeeze(eta') in frame eta has occupation sinh^2(eta' - eta)
    eta, etap = -0.2, 0.5
    framed = validate.quasiparticle_frame(su11.squeeze_from_angle(etap), eta)
    assert abs(framed.v) ** 2 == pytest.approx(
        math.sinh(etap - eta) ** 2, rel=1e-10
    )


def test_pair_energy_of_ground_state():
    coeffs = PairCoefficients(2.0, 1.0, 0.0)
    gs = su11.squeeze_from_angle(bogoliubov_angle(2.0, 1.0))
    e = validate.pair_energy(gs, coeffs)
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
    assert validate.controlled_pair_energy(state, coeffs) == pytest.approx(
        expect, abs=1e-8
    )
    assert got != pytest.approx(expect, abs=1e-3)  # chi/g terms do matter


def test_residual_energy_nonnegative():
    proto = make_protocol(cd=False)
    traj = dynamics.run_simulation(proto).trajectories
    assert np.min(traj.residual) >= -1e-10


def test_sudden_quench_occupation():
    # near-instantaneous CD-off ramp: state stays vacuum, quasiparticle
    # occupation relative to the final Hamiltonian equals sinh^2(eta_f)
    proto = make_protocol(t_f=1e-4, cd=False)
    p = proto.momenta()[0]
    traj = dynamics.run_simulation(proto, record_points=11).trajectories
    c = proto.pair_generator(p, proto.t_f)
    eta_f = bogoliubov_angle(c.omega, c.g)
    assert traj.n_bare[0, -1] < 1e-8
    assert traj.n_qp[0, -1] == pytest.approx(
        math.sinh(eta_f) ** 2, abs=1e-8
    )


def test_interacting_initial_map():
    # start in the interacting ground state of a static Hamiltonian: nothing
    # happens (up to phase), quasiparticle occupation |v'|^2 stays zero and
    # the fidelity min(1/|u'|, 1) one, in the frame state (u', v')
    proto = make_protocol(g2_start=1.0, g2_end=1.0, g4_start=0.5, g4_end=0.5, cd=False)
    p = proto.momenta()[:1]
    c = proto.pair_generator(p[0], 0.0)
    gs = su11.squeeze_from_angle(bogoliubov_angle(c.omega, c.g))
    times = np.linspace(0.0, proto.t_f, 21)
    _, _, _, (u_frame, v_frame) = integrator.integrate_modes(
        proto.grid, times, proto.grid(p, times), [gs.u], [gs.v],
        dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL,
    )
    assert np.max(np.abs(v_frame) ** 2) < 1e-9
    assert np.min(np.minimum(1.0 / np.abs(u_frame), 1.0)) >= 1 - 1e-9


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


@pytest.mark.parametrize(
    "family, cd",
    [("contact", False), ("lorentzian", True), ("custom_table", True)],
    ids=["contact-off", "lorentzian-on", "custom_table-on"],
)
def test_mean_energy_scaling_requires_cd(family, cd):
    # the check holds only for CD on with contact couplings, whose v_s is
    # the same for every mode
    proto = replace(make_protocol(cd=cd), coupling=OBSERVED_COUPLINGS[family])
    traj = dynamics.run_simulation(proto).trajectories
    with pytest.raises(ContractError):
        validate.mean_energy_scaling_check(traj, proto)


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


@pytest.mark.parametrize("family", sorted(OBSERVED_COUPLINGS))
def test_cd_run_gains_the_dynamical_phase(family):
    # from the vacuum with CD on, each pair stays in its instantaneous ground
    # state and u gains only Phi_p(t) = integral of eps_p = p v_s(p) dt
    proto = make_protocol(n_modes=3)
    proto = replace(proto, coupling=OBSERVED_COUPLINGS[family])
    traj = dynamics.run_simulation(proto, record_points=21).trajectories
    for p, u in zip(traj.p, traj.u):
        phi = np.unwrap(np.angle(u))

        def v_s(t):
            return proto.grid(p, t).v_s[0, 0]

        want = [p * quad(v_s, 0.0, t, epsabs=0.0, epsrel=1e-13)[0] for t in traj.times]
        np.testing.assert_allclose(phi, want, rtol=dynamics.DEFAULT_RTOL, atol=0.0)


def test_dynamical_phase_outgrows_the_free_phase():
    # on the default ramp v_s grows above v_F, so Phi(t_f) > p v_F t_f
    proto = make_protocol()
    p = proto.momenta()[0]
    traj = dynamics.run_simulation(proto).trajectories
    assert np.unwrap(np.angle(traj.u[0]))[-1] > p * proto.v_F * proto.t_f


def test_mean_energy_scaling_cd_on():
    proto = make_protocol()
    traj = dynamics.run_simulation(proto).trajectories
    assert validate.mean_energy_scaling_check(traj, proto) < 1e-10


def test_run_simulation_aggregates():
    proto = make_protocol(L=40.0, n_modes=3)
    result = dynamics.run_simulation(proto, record_points=41)
    assert result.trajectories.n_qp.shape == (3, 41)
    assert result.total_residual.shape == result.trajectories.times.shape
    assert abs(result.total_residual[-1]) < 1e-8  # CD keeps it at tolerance
    assert result.stability.margin > 0
    assert result.K[-1] == pytest.approx(0.8619952425563819, abs=1e-10)
    assert result.v_s[-1] == pytest.approx(1.0677814482182002, abs=1e-10)


@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
def test_record_grid_is_evaluated_once_per_run(cd, monkeypatch):
    # the coefficients on the record grid serve the observables and the
    # integrator's adiabatic frame alike: one (modes x records) evaluation
    # per run, and the aggregates take the slowest mode's row from a one-row
    # grid
    proto = make_protocol(n_modes=4, cd=cd)
    times = np.linspace(0.0, proto.t_f, 21)
    grid, calls = DriveProtocol.grid, []

    def spy(self, p, t):
        calls.append((np.atleast_1d(p).copy(), np.atleast_1d(t).copy()))
        return grid(self, p, t)

    monkeypatch.setattr(DriveProtocol, "grid", spy)
    dynamics.run_simulation(proto, record_points=21)
    on_records = [p for p, t in calls if np.array_equal(t, times)]
    grids = [proto.momenta(), proto.momenta()[:1]]
    assert len(on_records) == len(grids)
    assert all(map(np.array_equal, on_records, grids))
    # and the passes of the integrator ran, on other grids
    assert len(calls) > 1


def test_sweep_tf_rows():
    proto = make_protocol(L=40.0, n_modes=1, cd=False)
    rows = dynamics.sweep_tf(proto, [4.0, 40.0], record_points=21)
    assert [r.t_f for r in rows] == [4.0, 40.0]
    # adiabatic limit: residual decreases with slower driving
    assert rows[1].final_residual < rows[0].final_residual
    with pytest.raises(ContractError):
        dynamics.sweep_tf(proto, [])


def test_sweep_tf_takes_any_sequence_of_t_f():
    # an array, a tuple and a generator give the rows of the list
    proto = make_protocol(L=40.0, n_modes=1, cd=False)
    want = dynamics.sweep_tf(proto, [4.0, 40.0], record_points=21)
    for tf_list in (np.array([4.0, 40.0]), (4.0, 40.0), (t for t in (4.0, 40.0))):
        assert dynamics.sweep_tf(proto, tf_list, record_points=21) == want
    with pytest.raises(ContractError, match="nonempty"):
        dynamics.sweep_tf(proto, np.array([]))


@pytest.mark.parametrize(
    "settings",
    [
        dict(record_points=0),
        dict(record_points=1),
        dict(record_points=-1),
        dict(rtol=-1e-10),
        dict(rtol=0.0),
        dict(rtol=math.inf),
        dict(atol=math.nan),
        dict(record_points=2.5),
        dict(record_points=np.float64(3.0)),
        dict(record_points=True),
    ],
    ids=["points-0", "points-1", "points-negative", "rtol-negative", "rtol-zero",
         "rtol-inf", "atol-nan", "points-fraction", "points-numpy-float", "points-bool"],
)
def test_run_settings_are_refused_before_integration(settings, monkeypatch):
    # the one evolution refuses what the command line refuses, for every
    # entry point, before it forms the record grid or integrates
    calls = []
    monkeypatch.setattr(dynamics, "integrate_modes", lambda *args: calls.append(args))
    proto = make_protocol(L=100.0, n_modes=32, cd=False, t_f=20.0)
    for run in (
        lambda: dynamics.run_simulation(proto, **settings),
        lambda: dynamics.sweep_tf(proto, [10.0, 20.0], **settings),
    ):
        with pytest.raises(ContractError, match="record_points|rtol|atol") as caught:
            run()
        assert type(caught.value) is ContractError
    assert calls == []


def test_sweep_tf_flags_unstable():
    proto = make_protocol(L=40.0, n_modes=1, cd=True)
    rows = dynamics.sweep_tf(proto, [0.02], record_points=11)
    assert not rows[0].stability_pass
    assert math.isnan(rows[0].final_residual)


@pytest.mark.parametrize(
    "family, kind, cd",
    [
        ("contact", ScheduleKind.POLY5, True),
        ("contact", ScheduleKind.POLY5, False),
        ("lorentzian", ScheduleKind.POLY5, True),
        ("custom_table", ScheduleKind.LINEAR, False),
    ],
    ids=["contact-on", "contact-off", "lorentzian-on", "custom_table-off"],
)
def test_sweep_rows_match_run_simulation_bit_for_bit(family, kind, cd):
    # the sweep observes the last record alone; its rows keep the bits of
    # run_simulation's aggregates.  t_f = 0.5 fails the gate (a NaN row with
    # CD on), and t_f = 40 without CD climbs past one substep per interval
    proto = DriveProtocol(
        coupling=OBSERVED_COUPLINGS[family], schedule=Schedule(kind),
        t_f=3.0, L=100.0, n_modes=8, cd_enabled=cd,
    )
    tf_list = [0.5, 3.0, 40.0]
    rows = dynamics.sweep_tf(proto, tf_list, record_points=41)
    nan_rows, climbed = 0, False
    for t_f, row in zip(tf_list, rows):
        assert row.t_f == t_f
        try:
            result = dynamics.run_simulation(proto.with_tf(t_f), record_points=41)
        except CDInstabilityError as exc:
            nan_rows += 1
            assert math.isnan(row.final_residual) and math.isnan(row.final_fidelity)
            assert row.stability_pass == exc.report.passed
            continue
        assert row.final_residual == result.total_residual[-1]
        assert row.final_fidelity == np.min(result.trajectories.fidelity[:, -1])
        assert row.stability_pass == result.stability.passed
        climbed |= result.integration.substeps > 1
    assert nan_rows == (1 if cd else 0)
    assert climbed != cd


def test_sweep_observes_the_last_record_alone(monkeypatch):
    # no sweep forms a (modes x records) observable; run_simulation still
    # observes every record
    proto = make_protocol(L=100.0, n_modes=8)
    observables, shapes = dynamics.observables, []

    def spy(u, v, frame, c):
        shapes.append(np.shape(u))
        return observables(u, v, frame, c)

    monkeypatch.setattr(dynamics, "observables", spy)
    dynamics.sweep_tf(proto, [5.0, 10.0], record_points=41)
    assert shapes == [(8, 1), (8, 1)]
    shapes.clear()
    dynamics.run_simulation(proto, record_points=41)
    assert shapes == [(8, 41)]


def result_shapes(monkeypatch, name):
    """The shape of each result of model.<name> (of omega, for
    pair_frequencies), wherever tllcd looks the function up."""
    real, shapes = getattr(model, name), []

    def spy(*args):
        result = real(*args)
        shapes.append(np.shape(result[0] if name == "pair_frequencies" else result))
        return result

    for module in (model, dynamics):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)
    return shapes


def test_cd_sweep_forms_no_record_grid_spectrum(monkeypatch):
    # the record grid is checked by its CD margin alone: omega, g and
    # epsilon_cd are formed on the t_f column of each t_f (and omega, g on
    # validate's two schedule ends), never over the 21 records
    proto = make_protocol(L=100.0, n_modes=8)
    omega = result_shapes(monkeypatch, "pair_frequencies")
    epsilon_cd = result_shapes(monkeypatch, "spectrum_with_cd")
    rows = dynamics.sweep_tf(proto, [5.0, 10.0], record_points=21)
    assert all(row.stability_pass and row.failure is None for row in rows)
    assert epsilon_cd == [(8, 1), (8, 1)]
    assert sorted(set(omega)) == [(8, 1), (8, 2)]
    assert omega.count((8, 1)) == 2


def test_bare_run_forms_its_spectrum_once(monkeypatch):
    # without CD, epsilon_cd is the bare spectrum that the residual
    # subtracts: one (modes x records) evaluation per run
    proto = make_protocol(L=100.0, n_modes=8, cd=False)
    spectra = result_shapes(monkeypatch, "instantaneous_spectrum")
    traj = dynamics.run_simulation(proto, record_points=21).trajectories
    assert spectra.count((8, 21)) == 1
    c = proto.grid(traj.p, traj.times)
    assert np.array_equal(traj.epsilon_cd, model.instantaneous_spectrum(c.omega, c.g))


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
    message = r"^luttinger-instability at p = 0\.502655, t = 0\.01: margin -0\.0573452 <= 0$"
    with pytest.raises(LuttingerInstabilityError, match=message):
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
    real = dynamics.integrate_modes

    def drifted(defect):
        def integrate(*args, **kwargs):
            u, v, report, frame = real(*args, **kwargs)
            return u, v, replace(report, max_invariant_defect=defect), frame

        return integrate

    monkeypatch.setattr(dynamics, "integrate_modes", drifted(1e-8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dynamics.run_simulation(proto, record_points=21)
    assert [str(w.message) for w in caught] == [
        "Bogoliubov invariant drift 1.000e-08 exceeds 1e-09"
    ]
    monkeypatch.setattr(dynamics, "integrate_modes", drifted(2e-6))
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
    states = [su11.BogoliubovMap(complex(x), complex(y)) for x, y in zip(u, v)]
    etas = [bogoliubov_angle(*coupling) for coupling in zip(omega, g)]
    # the frame coordinates (u', v') of each state, from the scalar reference
    framed = [validate.quasiparticle_frame(*args) for args in zip(states, etas)]
    frame = np.array([[x.u for x in framed], [x.v for x in framed]])
    coefficients = SimpleNamespace(omega=omega, g=g, chi=chi, cd_enabled=False)
    obs = dynamics.observables(u, v, frame, coefficients)
    for k, (state, eta) in enumerate(zip(states, etas)):
        coeffs = PairCoefficients(omega[k], g[k], chi[k])
        energy = validate.pair_energy(state, coeffs)
        want = {
            "n_bare": su11.vacuum_observables(state).occupation,
            "n_qp": abs(validate.quasiparticle_frame(state, eta).v) ** 2,
            "fidelity": su11.state_overlap(su11.squeeze_from_angle(eta), state),
            "pair_energy": energy,
            "residual": energy - (instantaneous_spectrum(omega[k], g[k]) - omega[k]),
            "controlled_energy": validate.controlled_pair_energy(state, coeffs),
            # without CD, the spectrum applied is the bare one
            "epsilon_cd": instantaneous_spectrum(omega[k], g[k]),
        }
        scale = 1.0 + abs(omega[k]) * np.cosh(2.0 * r[k])
        for name, value in want.items():
            assert abs(obs[name][k] - value) <= 1e-13 * scale, name


@pytest.mark.parametrize("kind", [ScheduleKind.POLY5, ScheduleKind.LINEAR])
@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
def test_contact_pairs_depend_on_p_and_t_f_only_through_their_product(kind, cd):
    # the pair equations in s = t/t_f carry p and t_f only as p t_f when the
    # couplings do not depend on p: mode k at t_f = 40 is mode 4k at
    # t_f = 10, record for record, within the two runs' own bounds
    rtol, atol = dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL
    proto = replace(make_protocol(L=100.0, cd=cd), schedule=Schedule(kind))
    slow = dynamics.run_simulation(replace(proto, t_f=40.0, n_modes=8), record_points=21)
    fast = dynamics.run_simulation(replace(proto, t_f=10.0, n_modes=32), record_points=21)
    np.testing.assert_array_equal(slow.trajectories.p * 40.0, fast.trajectories.p[3::4] * 10.0)
    for name in ("u", "v"):
        a = getattr(slow.trajectories, name)
        b = getattr(fast.trajectories, name)[3::4]
        assert np.all(np.abs(a - b) <= 2 * (atol + rtol * np.maximum(abs(a), abs(b))))
