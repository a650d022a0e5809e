"""Oracle checks, off the run path: the scalar su11 references of the
observables that `dynamics.observables` computes on arrays, `state_map`,
which reads one state of a run as an su11 map, the mean-energy scaling
check, and the suite that `tll-cd-sim validate` runs against the
truncated-Fock oracle.  No run imports this module."""

from __future__ import annotations

import math

import numpy as np

from . import dynamics, fock, integrator, su11
from .errors import ContractError
from .model import CouplingFamily, CouplingSpec, PairCoefficients
from .protocol import DriveProtocol, Schedule, ScheduleKind


def state_map(traj: dynamics.Trajectories, mode: int, record: int) -> su11.BogoliubovMap:
    """The state of one mode at one record of `traj`, for the scalar su11
    references and the Fock oracle, with its overall phase stripped (u real
    and positive), so that su11.compose, which depends on that phase, acts
    on squeeze content only."""
    # on one-element arrays, rounded as a whole row would be: numpy's scalar
    # complex product can differ from its array product in the last bit
    u, v = traj.u[mode, [record]], traj.v[mode, [record]]
    rotation = np.exp(-1j * np.angle(u))
    return su11.BogoliubovMap(complex((u * rotation)[0]), complex((v * rotation)[0]))


def quasiparticle_frame(state: su11.BogoliubovMap, eta_t: float) -> su11.BogoliubovMap:
    """State map expressed in the instantaneous eigenbasis: compose the
    inverse diagonalizing squeeze with the evolved map."""
    return su11.compose(su11.inverse(su11.squeeze_from_angle(eta_t)), state)


def pair_energy(state: su11.BogoliubovMap, coeffs: PairCoefficients) -> float:
    """<H_TL, pair> = 2 omega (n + 1/2) - omega + 2 g Re<bb>, zero-point
    constant -omega included (pair form of -sum hbar omega/2)."""
    obs = su11.vacuum_observables(state)
    return (
        2.0 * coeffs.omega * (obs.occupation + 0.5)
        - coeffs.omega
        + 2.0 * coeffs.g * obs.pair_correlator.real
    )


def controlled_pair_energy(state: su11.BogoliubovMap, coeffs: PairCoefficients) -> float:
    """Full controlled energy in the zero-point-included convention:
    2 omega <K0> + 2 g Re<bb> + 2 chi Im<bb>.

    The +2 chi Im<bb> sign follows from <K-> = <bb>; it is pinned by the
    Fock-oracle ground-eigenvalue test.
    """
    obs = su11.vacuum_observables(state)
    return (
        2.0 * coeffs.omega * obs.k0_expectation
        + 2.0 * coeffs.g * obs.pair_correlator.real
        + 2.0 * coeffs.chi * obs.pair_correlator.imag
    )


def mean_energy_scaling_check(traj: dynamics.Trajectories, protocol: DriveProtocol) -> float:
    """Max relative deviation of <H(t)> from (v_s(t)/v_F) <H(0)>.

    Uses the zero-point-included convention of the controlled Hamiltonian;
    only CD on with contact couplings (momentum-independent v_s) scales so,
    and any other protocol raises ContractError."""
    if not protocol.cd_enabled or protocol.coupling.family != CouplingFamily.CONTACT:
        raise ContractError("mean-energy scaling requires CD on and contact couplings")
    totals = traj.controlled_energy.sum(axis=0)
    scale = protocol.grid(traj.p, traj.times).v_s[0] / protocol.v_F
    return float(np.max(np.abs(totals - scale * totals[0])) / abs(totals[0]))


def run_validation_suite() -> int:
    """Oracle cross-checks: Gaussian formulas and integrator conventions
    against the truncated-Fock reference.  Prints one [PASS] or [FAIL]
    line per check and returns the failure count."""
    checks = []

    def check(name, ok):
        checks.append((name, ok))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    for eta in (-0.8, -0.2, 0.4, 1.1):
        gauss = su11.squeeze_from_angle(eta)
        obs = su11.vacuum_observables(gauss)
        ref = fock.gaussian_state(gauss, 120)
        check(
            f"occupation closed form vs Fock sum (eta={eta})",
            abs(obs.occupation - ref.occupation()) < 1e-8,
        )
        check(
            f"pair correlator closed form vs Fock sum (eta={eta})",
            abs(obs.pair_correlator - ref.pair_correlator()) < 1e-8,
        )

    a = su11.squeeze_from_angle(0.3)
    b = su11.squeeze_from_angle(0.7)
    fock_ov = abs(fock.gaussian_state(a, 120).overlap(fock.gaussian_state(b, 120)))
    check(
        "overlap closed form vs Fock inner product",
        abs(su11.state_overlap(a, b) - fock_ov) < 1e-10,
    )

    # annihilation condition: coefficient of |m, m+1> in
    # [cosh(eta) b(p) - sinh(eta) b†(-p)] applied to the state must vanish
    eta = 0.5
    st = fock.tmsv_amplitudes(eta, 100)
    root = np.sqrt(np.arange(1, 101))
    killed = root * (
        math.cosh(eta) * st.amplitudes[1:] - math.sinh(eta) * st.amplitudes[:-1]
    )
    check("tmsv annihilation condition", float(np.linalg.norm(killed)) < 1e-10)

    # integrator conventions vs oracle on a small contact protocol
    proto = DriveProtocol(
        coupling=CouplingSpec(
            family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5
        ),
        schedule=Schedule(kind=ScheduleKind.POLY5),
        t_f=6.0,
        L=20.0,
        n_modes=1,
        cd_enabled=True,
    )
    for cd in (True, False):
        pr = proto.with_cd(cd)
        p = pr.momenta()[0]
        traj = dynamics.evolve_pair(p, pr, record_points=41)
        states = fock.evolve_fock(
            fock.vacuum_state(120),
            lambda t: pr.pair_generator(p, t),
            pr.t_f,
            t_eval=traj.times,
        )
        ov = abs(states[-1].overlap(fock.gaussian_state(state_map(traj, 0, -1), 120)))
        check(
            f"integrator vs Fock oracle (cd={'on' if cd else 'off'})",
            ov >= 1 - 1e-8 and states[-1].cutoff_safe,
        )

    # integrator order on the same protocol, 4 record intervals: each halving
    # of the step cuts the step-doubling difference |y_N - y_2N| by 2^6 at
    # sixth order and by 2^4 at fourth, so a lower-order step fails here.
    # With CD on it measures the phase route that runs (the quadrature of
    # the phase integral alone), without CD the whole Magnus step
    p = proto.momenta()
    times = np.linspace(0.0, proto.t_f, 5)
    for cd in (True, False):
        grid = proto.with_cd(cd).grid
        y = [
            np.array(integrator.fixed_steps(grid, times, grid(p, times), [1.0], [0.0], n))
            for n in (2, 4, 8)
        ]
        diffs = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(y, y[1:])]
        check(
            f"integrator order (cd={'on' if cd else 'off'}): halving the step "
            "cuts |y_N - y_2N| by >= 2^5",
            diffs[0] >= 2**5 * diffs[1] > 0,
        )

    # CD-on referee on the same protocol: the transitionless answer, no
    # quasiparticle at any mode or record, at one step per record interval
    # after the pass at one per two (40 record intervals)
    result = dynamics.run_simulation(proto, record_points=41)
    traj, report = result.trajectories, result.integration
    check(
        "CD-on referee: n_qp = 0, 1 substep, 3/2 steps per interval",
        bool(np.all(traj.n_qp == 0.0))
        and report.substeps == 1
        and report.steps == 3 * 40 // 2,
    )

    # error control on the same protocol: every record of a run within
    # atol + rtol |y| of one at 64 times its substeps, on an even interval
    # count (whose first pass takes one step per two intervals) and an odd one
    rtol, atol = dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL
    for points in (41, 40):
        times = np.linspace(0.0, proto.t_f, points)
        c = proto.grid(p, times)
        u, v, report, _ = integrator.integrate_modes(
            proto.grid, times, c, [1.0], [0.0], rtol, atol
        )
        # Magnus steps for the reference: chi a copy of chi_cd, as its cache
        vars(c)["chi"] = c.chi_cd.copy()
        n = 64 * report.substeps
        ref = integrator.fixed_steps(proto.grid, times, c, [1.0], [0.0], n)
        check(
            "error control: within tolerance of 64x the substeps "
            f"({points - 1} record intervals)",
            all(
                np.all(np.abs(got - want) <= atol + rtol * np.abs(want))
                for got, want in zip((u, v), ref)
            ),
        )

    # pair ground energy vs dense eigenvalue
    coeffs = PairCoefficients(omega=2.0, g=1.0, chi=0.0)
    H = fock.pair_hamiltonian_matrix(coeffs, 200)
    ground = float(np.linalg.eigvalsh(H)[0])
    check("pair ground eigenvalue = epsilon", abs(ground - math.sqrt(3.0)) < 1e-9)

    return sum(1 for _, ok in checks if not ok)
