"""Time evolution of each momentum pair under the driven TLL, with or
without the counterdiabatic term; observables, ensemble aggregation and
protocol sweeps.

State representation: the Schrodinger-picture state of a pair is the
two-mode squeezed vacuum annihilated by c = u b(p) + v b†(-p); the pair
(u, v) is evolved by i dc/dt = [H(t), c].  The exact CD-driven trajectory is
the squeeze of angle (1/2) ln K_p(t), which the integrator must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su11
from .errors import CDInstabilityError, ContractError
from .integrator import IntegrationReport, integrate_modes
from .model import PairCoefficients, instantaneous_spectrum
from .protocol import DriveProtocol
from .su11 import BogoliubovMap

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_RECORD_POINTS = 201


@dataclass(frozen=True)
class ObservableRecord:
    t: float
    p: float
    occupation_bare: float
    occupation_quasiparticle: float
    fidelity_instantaneous_gs: float
    pair_energy: float
    residual_energy: float
    epsilon_cd: float
    chi: float


@dataclass
class ModeTrajectory:
    p: float
    times: np.ndarray
    maps: list
    records: list
    # integral of v_s(s)/v_F ds (= 1/sigma_s^2 integrand) and the resulting
    # dynamical phase for the initial occupation; the multiplicative
    # zero-point convention is left to the caller.
    sigma_integral: np.ndarray = None
    phase: np.ndarray = None
    # phase of the evolved annihilator, stripped from the stored maps so
    # that map composition acts on physical squeeze content only
    annihilator_phase: np.ndarray = None


def quasiparticle_frame(state: BogoliubovMap, eta_t: float) -> BogoliubovMap:
    """State map expressed in the instantaneous eigenbasis: compose the
    inverse diagonalizing squeeze with the evolved map."""
    return su11.compose(su11.inverse(su11.squeeze_from_angle(eta_t)), state)


def pair_energy(state: BogoliubovMap, coeffs: PairCoefficients) -> float:
    """<H_TL, pair> = 2 omega (n + 1/2) - omega + 2 g Re<bb>, zero-point
    constant -omega included (pair form of -sum hbar omega/2)."""
    obs = su11.vacuum_observables(state)
    return (
        2.0 * coeffs.omega * (obs.occupation + 0.5)
        - coeffs.omega
        + 2.0 * coeffs.g * obs.pair_correlator.real
    )


def controlled_pair_energy(state: BogoliubovMap, coeffs: PairCoefficients) -> float:
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


def evolve_pair(
    p: float,
    protocol: DriveProtocol,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    record_points: int = DEFAULT_RECORD_POINTS,
    initial: BogoliubovMap = su11.IDENTITY,
    initial_occupation: float = 0.0,
) -> ModeTrajectory:
    """Evolve one (p, -p) pair over [0, t_f] and record observables.

    `initial` supports interacting starts (gamma_p(0) != 1) as a Bogoliubov
    map; excited Fock starts live only in the Fock oracle.
    `initial_occupation` enters the recorded dynamical phase (CD runs).
    """
    su11.check_map(initial)
    times = np.linspace(0.0, protocol.t_f, record_points)
    u, v, _ = integrate_protocol(protocol, [p], times, rtol, atol, initial)
    return _trajectory(p, times, u[0], v[0], protocol, initial_occupation)


def integrate_protocol(
    protocol: DriveProtocol, momenta, times, rtol, atol, initial=su11.IDENTITY
):
    """(u, v, IntegrationReport) of every pair in `momenta` (rows) on the
    record grid `times` (columns), all started from the map `initial`, in
    one Magnus pass."""
    momenta = np.asarray(momenta, dtype=float)
    start = np.ones(len(momenta), dtype=complex)
    return integrate_modes(
        lambda t: protocol.coefficients(momenta, t),
        times,
        initial.u * start,
        initial.v * start,
        rtol,
        atol,
    )


def _trajectory(p, times, u, v, protocol, initial_occupation=0.0) -> ModeTrajectory:
    """Trajectory of one pair from its integrated (u, v) on the record grid."""
    # the overall annihilator phase (u, v) -> e^{i theta}(u, v) labels the
    # same state; strip it so maps compose as pure squeeze content
    phases = np.angle(u)
    maps = [
        BogoliubovMap(complex(ui * np.exp(-1j * th)), complex(vi * np.exp(-1j * th)))
        for ui, vi, th in zip(u, v, phases)
    ]
    records = []
    for t, m in zip(times, maps):
        records.append(_observe(p, t, m, protocol))

    traj = ModeTrajectory(
        p=p,
        times=times,
        maps=maps,
        records=records,
        annihilator_phase=np.unwrap(phases),
    )
    vs_over_vf = np.array(
        [protocol.luttinger(p, t).v_s / protocol.v_F for t in times]
    )
    traj.sigma_integral = _cumulative_trapezoid(vs_over_vf, times)
    omega0, g0 = protocol.pair_frequencies(p, 0.0)
    eps0 = instantaneous_spectrum(omega0, g0)
    traj.phase = -eps0 * initial_occupation * traj.sigma_integral
    return traj


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y(x), starting at 0."""
    steps = np.diff(x) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


def _observe(p, t, state, protocol: DriveProtocol) -> ObservableRecord:
    from .control import spectrum_with_cd
    from .model import bogoliubov_angle

    coeffs = protocol.pair_generator(p, t)
    lp = protocol.luttinger(p, t)
    eta_t = bogoliubov_angle(coeffs.omega, coeffs.g)
    gs_map = su11.squeeze_from_angle(eta_t)

    obs = su11.vacuum_observables(state)
    framed = quasiparticle_frame(state, eta_t)
    n_qp = abs(framed.v) ** 2
    fidelity = su11.state_overlap(gs_map, state)

    energy = pair_energy(state, coeffs)
    eps = instantaneous_spectrum(coeffs.omega, coeffs.g)
    residual = energy - (eps - coeffs.omega)
    # stability check along the run, not only at construction time
    epsilon_cd = spectrum_with_cd(lp.v_s, p, coeffs.chi) if protocol.cd_enabled else eps
    return ObservableRecord(
        t=float(t),
        p=float(p),
        occupation_bare=obs.occupation,
        occupation_quasiparticle=n_qp,
        fidelity_instantaneous_gs=fidelity,
        pair_energy=energy,
        residual_energy=residual,
        epsilon_cd=epsilon_cd,
        chi=coeffs.chi,
    )


def mean_energy_scaling_check(trajectories, protocol: DriveProtocol) -> float:
    """Max relative deviation of <H(t)> from (v_s(t)/v_F) <H(0)>.

    Uses the zero-point-included convention of the controlled Hamiltonian;
    valid for CD on with contact couplings (momentum-independent v_s).
    """
    if not protocol.cd_enabled:
        raise ContractError("mean-energy scaling requires CD on")
    if isinstance(trajectories, ModeTrajectory):
        trajectories = [trajectories]
    times = trajectories[0].times
    totals = np.zeros_like(times)
    for traj in trajectories:
        for i, (t, m) in enumerate(zip(times, traj.maps)):
            coeffs = protocol.pair_generator(traj.p, t)
            totals[i] += controlled_pair_energy(m, coeffs)
    e0 = totals[0]
    scale = np.array(
        [protocol.luttinger(trajectories[0].p, t).v_s / protocol.v_F for t in times]
    )
    return float(np.max(np.abs(totals - scale * e0)) / abs(e0))


@dataclass
class SimulationResult:
    protocol: DriveProtocol
    trajectories: list
    times: np.ndarray
    total_residual: np.ndarray
    total_energy: np.ndarray
    v_s: np.ndarray
    K: np.ndarray
    min_margin: float
    integration: IntegrationReport


def run_simulation(
    protocol: DriveProtocol,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    record_points: int = DEFAULT_RECORD_POINTS,
) -> SimulationResult:
    """Evolve all modes independently and aggregate in fixed mode order,
    so that identical inputs give identical outputs."""
    from .protocol import stability_margin

    protocol.validate()
    times = np.linspace(0.0, protocol.t_f, record_points)
    momenta = protocol.momenta()
    u_all, v_all, integration = integrate_protocol(protocol, momenta, times, rtol, atol)
    trajectories = []
    total_residual = np.zeros_like(times)
    total_energy = np.zeros_like(times)
    for p, u, v in zip(momenta, u_all, v_all):
        traj = _trajectory(p, times, u, v, protocol)
        trajectories.append(traj)
        for i, rec in enumerate(traj.records):
            total_residual[i] += rec.residual_energy
            total_energy[i] += controlled_pair_energy(
                traj.maps[i], protocol.pair_generator(p, times[i])
            )
    p_min = protocol.momenta()[0]
    lutt = [protocol.luttinger(p_min, t) for t in times]
    report = stability_margin(protocol)
    return SimulationResult(
        protocol=protocol,
        trajectories=trajectories,
        times=times,
        total_residual=total_residual,
        total_energy=total_energy,
        v_s=np.array([l.v_s for l in lutt]),
        K=np.array([l.K for l in lutt]),
        min_margin=report.margin,
        integration=integration,
    )


@dataclass(frozen=True)
class SweepRow:
    t_f: float
    final_residual: float
    final_fidelity: float
    stability_pass: bool


def sweep_tf(protocol: DriveProtocol, tf_list, **kwargs) -> list:
    """One row per t_f; rows failing the stability criterion are flagged,
    not dropped."""
    from .protocol import stability_margin

    if not tf_list:
        raise ContractError("sweep requires a nonempty t_f list")
    rows = []
    for t_f in tf_list:
        proto = protocol.with_tf(float(t_f))
        passed = stability_margin(proto).passed
        if proto.cd_enabled and not passed:
            rows.append(SweepRow(float(t_f), math.nan, math.nan, False))
            continue
        try:
            result = run_simulation(proto, **kwargs)
        except CDInstabilityError:
            rows.append(SweepRow(float(t_f), math.nan, math.nan, False))
            continue
        final_res = float(result.total_residual[-1])
        final_fid = min(
            traj.records[-1].fidelity_instantaneous_gs
            for traj in result.trajectories
        )
        rows.append(SweepRow(float(t_f), final_res, final_fid, passed))
    return rows
