"""Oracle checks, off the run path: the scalar su11 references of the
observables that `dynamics.observables` computes on arrays, `state_map`,
which reads one state of a run as an su11 map, the mean-energy scaling
check, and the checks of `tll-cd-sim validate`.  Each of those takes its
inputs and returns the value it measured and the bound it holds it to;
`suite` is the table of them that `run_validation_suite` runs, and the
tests call the same functions on their own inputs.  No run imports this
module."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import dynamics, fock, integrator, su11
from .closed_forms import cd_amplitude_lorentzian, mass_frequency
from .errors import ContractError
from .model import CouplingFamily, CouplingSpec, PairCoefficients, cd_amplitude_contact
from .model import luttinger_params
from .protocol import DriveProtocol, Schedule, ScheduleKind, schedule_value


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


# Each check below returns (value, bound): what it measured and the bound it
# holds that value to.  It passes where value <= bound, so a NaN fails, and a
# Fock reference whose tail is not cutoff-safe measures inf.


def _fock_safe(value: float, *states: fock.FockState) -> float:
    return value if all(st.cutoff_safe for st in states) else math.inf


def closed_form_vs_fock(observable: str, eta: float, cutoff: int) -> tuple[float, float]:
    """|closed form - Fock sum| of `observable` ("occupation" or
    "pair_correlator") on the squeezed vacuum of angle `eta`; bound 1e-8."""
    state = su11.squeeze_from_angle(eta)
    ref = fock.gaussian_state(state, cutoff)
    closed = getattr(su11.vacuum_observables(state), observable)
    return _fock_safe(abs(closed - getattr(ref, observable)()), ref), 1e-8


def overlap_vs_fock(
    a: su11.BogoliubovMap, b: su11.BogoliubovMap, cutoff: int
) -> tuple[float, float]:
    """|state_overlap(a, b) - |<a|b>| of the Fock amplitudes|; bound 1e-10."""
    fock_a, fock_b = fock.gaussian_state(a, cutoff), fock.gaussian_state(b, cutoff)
    value = abs(su11.state_overlap(a, b) - abs(fock_a.overlap(fock_b)))
    return _fock_safe(value, fock_a, fock_b), 1e-10


def tmsv_annihilation(eta: float, cutoff: int) -> tuple[float, float]:
    """The norm of [cosh(eta) b(p) - sinh(eta) b†(-p)] applied to the
    two-mode squeezed vacuum of angle `eta`: its |m, m+1> coefficients
    sqrt(m+1)[cosh(eta) c_{m+1} - sinh(eta) c_m] vanish; bound 1e-10."""
    c = fock.tmsv_amplitudes(eta, cutoff)
    killed = np.sqrt(np.arange(1, cutoff + 1)) * (
        math.cosh(eta) * c.amplitudes[1:] - math.sinh(eta) * c.amplitudes[:-1]
    )
    return _fock_safe(float(np.linalg.norm(killed)), c), 1e-10


def ground_eigenvalue(coeffs: PairCoefficients, cutoff: int) -> tuple[float, float]:
    """|least eigenvalue of the pair Hamiltonian - sqrt(omega^2 - g^2 -
    chi^2)|, the spectrum the CD term shifts; bound 1e-9."""
    ground = float(np.linalg.eigvalsh(fock.pair_hamiltonian_matrix(coeffs, cutoff))[0])
    return abs(ground - math.sqrt(coeffs.omega**2 - coeffs.g**2 - coeffs.chi**2)), 1e-9


def fock_vs_run(protocol: DriveProtocol, record_points: int, cutoff: int) -> tuple[float, float]:
    """1 - the least overlap, over every record, of the first mode's state
    with the Fock oracle's from the vacuum; bound 1e-8.  The state is mode 0
    of run_simulation on the protocol cut to one mode, which is its first
    mode, bit for bit."""
    one = replace(protocol, n_modes=1)
    traj = dynamics.run_simulation(one, record_points=record_points).trajectories
    p = traj.p[0]
    states = fock.evolve_fock(
        fock.vacuum_state(cutoff), lambda t: protocol.pair_generator(p, t), protocol.t_f,
        t_eval=traj.times,
    )
    overlap = min(
        abs(st.overlap(fock.gaussian_state(state_map(traj, 0, k), cutoff)))
        for k, st in enumerate(states)
    )
    return _fock_safe(1.0 - overlap, *states), 1e-8


def step_order(protocol: DriveProtocol, record_points: int) -> tuple[float, float]:
    """|y_4 - y_8| / |y_2 - y_4| of fixed_steps at N = 2, 4 and 8 steps per
    record interval, largest over every mode (inf where one is 0).  Each
    halving of the step cuts |y_N - y_2N| by 2^6 at sixth order and 2^4 at
    fourth: bound 2^-5.  fixed_steps takes Magnus steps for any chi, so
    with CD on it measures the Magnus step at zero mixing (a rotation by
    the Gauss quadrature of the phase integral), the reference of
    error_control, and without CD the whole Magnus step."""
    p, grid, ones = protocol.momenta(), protocol.grid, np.ones(protocol.n_modes)
    times = np.linspace(0.0, protocol.t_f, record_points)
    y = [
        np.array(integrator.fixed_steps(grid, times, grid(p, times), ones, 0 * ones, n))
        for n in (2, 4, 8)
    ]
    coarse, fine = (float(np.max(np.abs(b - a))) for a, b in zip(y, y[1:]))
    return (fine / coarse if fine > 0.0 and coarse > 0.0 else math.inf), 2.0**-5


def cd_referee(protocol: DriveProtocol, record_points: int) -> tuple[float, float]:
    """The largest n_qp of a CD-on run, at any mode and record, whose exact
    value is 0: bound 0.  Inf unless the run took the Chebyshev route, the
    one that CD on takes."""
    result = dynamics.run_simulation(protocol, record_points=record_points)
    if result.integration.method != integrator.CHEBYSHEV:
        return math.inf, 0.0
    return float(np.max(result.trajectories.n_qp)), 0.0


def error_control(protocol: DriveProtocol, record_points: int, factor: int) -> tuple[float, float]:
    """The largest |y - y_ref| / (atol + rtol |y_ref|) of run_simulation at
    the default tolerances, over every mode, component and record, with
    y_ref from fixed_steps (Magnus steps, for any chi) at `factor` times
    the run's accepted substeps: bound 1, the run's own tolerance."""
    result = dynamics.run_simulation(protocol, record_points=record_points)
    traj, ones = result.trajectories, np.ones(protocol.n_modes)
    c, n = protocol.grid(traj.p, traj.times), factor * result.integration.substeps
    ref = integrator.fixed_steps(protocol.grid, traj.times, c, ones, 0 * ones, n)
    rtol, atol = dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL
    ratios = [
        np.abs(y - want) / (atol + rtol * np.abs(want)) for y, want in zip((traj.u, traj.v), ref)
    ]
    return float(np.max(ratios)), 1.0


# the driven oscillator's DOP853 tolerances, on each entry of S
OSC_RTOL, OSC_ATOL = 1e-12, 1e-14


def _oscillator(protocol: DriveProtocol, p: float, t: float) -> tuple[float, float, float]:
    """(M, Omega, chi) of mode p at time t, from the scalar formulas: the
    couplings at p, luttinger_params, mass_frequency, and the family's own
    CD amplitude (0 without CD)."""
    P, dP = schedule_value(t / protocol.t_f, protocol.schedule)
    g2, g4, dg2, dg4 = protocol.coupling.at(p, P)
    lp = luttinger_params(g2, g4, protocol.v_F)
    M, Omega = mass_frequency(p, float(lp.K), float(lp.v_s), protocol.v_F)
    rate, c = dP / protocol.t_f, protocol.coupling
    if not protocol.cd_enabled:
        chi = 0.0
    elif c.family == CouplingFamily.LORENTZIAN:
        lam = c.g2_start + (c.g2_end - c.g2_start) * P
        chi = cd_amplitude_lorentzian(lam, (c.g2_end - c.g2_start) * rate, c.R0, p, protocol.v_F)
    else:
        chi = cd_amplitude_contact(g2, g4, dg2 * rate, dg4 * rate, protocol.v_F)
    return M, Omega, float(chi)


def oscillator_excitation(
    protocol: DriveProtocol, traj: dynamics.Trajectories, k: int
) -> tuple[float, float]:
    """(n, the bound on |n_qp - n|) of mode k of the run `traj` of
    `protocol` at t_f, by the paper's oscillator equivalence (Deffner,
    Jarzynski & del Campo, PRX 4, 021013 (2014)): the pair is an oscillator
    H = pi^2/(2M) + M Omega^2 phi^2/2 with driven mass M = v_F/(K v_s) and
    frequency Omega = v_s p, and the CD term is the dilation
    chi (phi pi + pi phi)/2.  A Gaussian state moves by the real symplectic
    flow dS/dt = [[chi, 1/M], [-M Omega^2, -chi]] S on (phi, pi), here by
    DOP853, and n = (Sigma_pipi/M1 + M1 Omega1^2 Sigma_phiphi)/(2 Omega1) -
    1/2 with Sigma = S Sigma0 S^T, Sigma0 = diag(1/(2 M0 Omega0), M0 Omega0/2).
    In the coordinates scaled by D = diag(sqrt(M Omega), 1/sqrt(M Omega)),
    n + 1/2 = |D1 S D0^-1|_F^2/4, so an error dS of S moves n by at most
    |S~|_F |dS~|_F/2 + |dS~|_F^2/4, with dS~ = D1 dS D0^-1 and
    |dS| <= OSC_ATOL + OSC_RTOL |S| entrywise.

    The run's n_qp = |v'|^2 adds its own error: each of u, v is within
    atol + rtol |y|, and the frame map (u, v) -> (u', v') has row sums
    c + |s| = e^|eta|, with e^(2|eta|) = (omega + |g|)/eps, so
    |dv'| <= e^|eta| max(du, dv) and |d n_qp| <= 2 |v'| |dv'| + |dv'|^2."""
    from scipy.integrate import solve_ivp

    p = float(traj.p[k])

    def flow(t, y):
        M, Omega, chi = _oscillator(protocol, p, t)
        return (np.array([[chi, 1.0 / M], [-M * Omega**2, -chi]]) @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(
        flow, (0.0, protocol.t_f), np.eye(2).ravel(), method="DOP853",
        rtol=OSC_RTOL, atol=OSC_ATOL,
    )
    if not sol.success:
        return math.nan, math.inf
    S = sol.y[:, -1].reshape(2, 2)
    (M0, Omega0, _), (M1, Omega1, _) = (_oscillator(protocol, p, t) for t in (0.0, protocol.t_f))
    Sigma = S @ np.diag([1.0 / (2.0 * M0 * Omega0), M0 * Omega0 / 2.0]) @ S.T
    n = (Sigma[1, 1] / M1 + M1 * Omega1**2 * Sigma[0, 0]) / (2.0 * Omega1) - 0.5
    d0, d1 = math.sqrt(M0 * Omega0), math.sqrt(M1 * Omega1)
    scale = np.array([[d1 / d0, d1 * d0], [1.0 / (d1 * d0), d0 / d1]])
    norm = np.linalg.norm(scale * S)
    dnorm = np.linalg.norm(scale * (OSC_ATOL + OSC_RTOL * np.abs(S)))
    rtol, atol = dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL
    c = protocol.pair_generator(p, protocol.t_f)
    eps = math.sqrt(c.omega**2 - c.g**2)
    y = max(abs(traj.u[k, -1]), abs(traj.v[k, -1]))
    dv = math.sqrt((c.omega + abs(c.g)) / eps) * (atol + rtol * y)
    run = 2.0 * math.sqrt(traj.n_qp[k, -1]) * dv + dv**2
    return float(n), norm * dnorm / 2.0 + dnorm**2 / 4.0 + run


def driven_oscillator(
    protocol: DriveProtocol, record_points: int, modes=None
) -> tuple[float, float]:
    """The largest |n_qp(t_f) - n| of run_simulation over `modes` (every
    mode by default), each in units of its bound from
    oscillator_excitation: bound 1."""
    traj = dynamics.run_simulation(protocol, record_points=record_points).trajectories
    ratios = []
    for k in range(protocol.n_modes) if modes is None else modes:
        n, bound = oscillator_excitation(protocol, traj, k)
        ratios.append(abs(traj.n_qp[k, -1] - n) / bound)
    return float(np.max(ratios)), 1.0


def suite() -> list:
    """(name, check, arguments) of every check of `tll-cd-sim validate`, in
    the order it prints them.  Its drive is a small contact ramp, one mode."""
    on = DriveProtocol(
        coupling=CouplingSpec(family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5),
        schedule=Schedule(kind=ScheduleKind.POLY5),
        t_f=6.0, L=20.0, n_modes=1, cd_enabled=True,
    )
    cds = (("on", on), ("off", on.with_cd(False)))
    rows = [
        (f"{what} closed form vs Fock sum (eta={eta})", closed_form_vs_fock,
         (what.replace(" ", "_"), eta, 120))
        for eta in (-0.8, -0.2, 0.4, 1.1)
        for what in ("occupation", "pair correlator")
    ]
    squeezes = (su11.squeeze_from_angle(0.3), su11.squeeze_from_angle(0.7))
    rows.append(("overlap closed form vs Fock inner product", overlap_vs_fock, (*squeezes, 120)))
    rows.append(("tmsv annihilation condition", tmsv_annihilation, (0.5, 100)))
    rows += [
        (f"integrator vs Fock oracle (cd={cd})", fock_vs_run, (pr, 41, 120)) for cd, pr in cds
    ]
    rows += [
        (f"integrator order (cd={cd}): halving the step cuts |y_N - y_2N| by >= 2^5",
         step_order, (pr, 5))
        for cd, pr in cds
    ]
    referee = "CD-on referee: n_qp = 0 on the chebyshev route"
    rows.append((referee, cd_referee, (on, 41)))
    rows += [
        (f"error control: within tolerance of 64x the substeps ({points - 1} record intervals)",
         error_control, (on, points, 64))
        for points in (41, 40)
    ]
    ground = PairCoefficients(omega=2.0, g=1.0, chi=0.0)
    rows.append(("pair ground eigenvalue = epsilon", ground_eigenvalue, (ground, 200)))
    rows += [
        (f"n_qp(t_f) vs the driven oscillator (cd={cd})", driven_oscillator, (pr, 41))
        for cd, pr in cds
    ]
    return rows


def run_validation_suite() -> int:
    """Run every check of suite(), print `[PASS] <name>: <value> <= <bound>`
    or `[FAIL] <name>: <value> > <bound>` for each, and return the failure
    count."""
    failures = 0
    for name, check, args in suite():
        value, bound = check(*args)
        if value <= bound:
            print(f"[PASS] {name}: {value:.3e} <= {bound:.3e}")
        else:
            failures += 1
            print(f"[FAIL] {name}: {value:.3e} > {bound:.3e}")
    return failures
