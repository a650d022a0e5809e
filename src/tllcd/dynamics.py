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
from .control import spectrum_with_cd
from .errors import CDInstabilityError, ContractError, IntegrationError
from .integrator import IntegrationReport, integrate_modes
from .model import PairCoefficients, bogoliubov_angle, instantaneous_spectrum
from .protocol import DriveProtocol, StabilityReport
from .su11 import BogoliubovMap

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_RECORD_POINTS = 201


@dataclass(frozen=True)
class Trajectories:
    """Recorded evolution of a set of (p, -p) pairs.

    Every array field except `p` and `times` has shape (n_modes, n_times):
    one row per mode, one column per record time.
    """

    p: np.ndarray
    times: np.ndarray
    # annihilator coefficients with the overall phase stripped (u real and
    # positive), so that map composition acts on squeeze content only; the
    # stripped phase, unwrapped along each row, is annihilator_phase
    u: np.ndarray
    v: np.ndarray
    annihilator_phase: np.ndarray
    n_bare: np.ndarray
    n_qp: np.ndarray
    fidelity: np.ndarray  # overlap with the instantaneous ground state
    pair_energy: np.ndarray
    residual: np.ndarray  # pair_energy minus the instantaneous ground energy
    controlled_energy: np.ndarray  # energy under the controlled Hamiltonian
    epsilon_cd: np.ndarray
    chi: np.ndarray
    # integral of v_s(s)/v_F ds (= 1/sigma_s^2 integrand) and the resulting
    # dynamical phase for the initial occupation; the multiplicative
    # zero-point convention is left to the caller.
    sigma_integral: np.ndarray
    phase: np.ndarray

    def map(self, mode: int, record: int) -> BogoliubovMap:
        """The stored state of one mode at one record, for the scalar su11
        references and the Fock oracle."""
        u, v = self.u[mode, record], self.v[mode, record]
        return BogoliubovMap(complex(u), complex(v))


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


def observables(u, v, omega, g, chi) -> dict:
    """Observables of the phase-stripped states (u, v) under the pair
    coefficients (omega, g, chi), elementwise over arrays.

    The array forms of the scalar references: n_bare of vacuum_observables,
    n_qp of quasiparticle_frame, fidelity of state_overlap with the
    instantaneous ground state, pair_energy and residual of pair_energy, and
    controlled_energy of controlled_pair_energy.
    """
    n = np.abs(v) ** 2
    corr = -np.conj(u) * v
    eta = bogoliubov_angle(omega, g)
    c, s = np.cosh(eta), np.sinh(eta)
    energy = 2.0 * omega * (n + 0.5) - omega + 2.0 * g * corr.real
    return {
        "n_bare": n,
        "n_qp": np.abs(c * v + s * np.conj(u)) ** 2,
        "fidelity": np.minimum(np.abs(1.0 / (c * u + s * v)), 1.0),
        "pair_energy": energy,
        "residual": energy - (instantaneous_spectrum(omega, g) - omega),
        "controlled_energy": 2.0 * omega * (n + 0.5)
        + 2.0 * g * corr.real
        + 2.0 * chi * corr.imag,
    }


def transitionless_roundoff(u, v, omega, g):
    """Largest n_qp that rounding alone leaves on a transitionless run,
    elementwise over the phase-stripped states (u, v) and the pair
    coefficients (omega, g): the bound for a CD run from the instantaneous
    vacuum.

    With CD on, the integrator's state in the adiabatic frame is
    (e^(i Phi) u'_0, 0) exactly (the phase route carries v' = e^(-i Phi) v'_0,
    and v'_0 = 0 from the vacuum), so with u' = e^(i Phi) u'_0 the recorded
    (u, v) = (c u', -s u') and n_qp = |c_o v + s_o u|^2 with
    (c_o, s_o) = (cosh, sinh) of the Bogoliubov angle cancels to rounding.
    Each of the two terms reaches it through about 14 roundings of at most
    the unit roundoff: the frame's c and s (7), the back-transform (1), the
    phase strip (2), arctanh, cosh or sinh (3) and the product (1); the
    frame's omega^2 - g^2 amplifies its share by
    kappa = (omega^2 + g^2)/(omega^2 - g^2).  The bound allows 16 kappa of
    them per term."""
    eta = bogoliubov_angle(omega, g)
    terms = np.abs(np.cosh(eta) * v) + np.abs(np.sinh(eta) * u)
    kappa = (omega * omega + g * g) / (omega * omega - g * g)
    return (16.0 * kappa * (np.finfo(float).eps / 2) * terms) ** 2


def evolve_pair(
    p: float,
    protocol: DriveProtocol,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    record_points: int = DEFAULT_RECORD_POINTS,
    initial: BogoliubovMap = su11.IDENTITY,
    initial_occupation: float = 0.0,
) -> Trajectories:
    """Evolve one (p, -p) pair over [0, t_f] and record observables: the
    one-row case of the trajectories of a run.

    `initial` supports interacting starts (gamma_p(0) != 1) as a Bogoliubov
    map; excited Fock starts live only in the Fock oracle.
    `initial_occupation` enters the recorded dynamical phase (CD runs).
    """
    su11.check_map(initial)
    times = np.linspace(0.0, protocol.t_f, record_points)
    traj, _, _ = _evolve(protocol, [p], times, rtol, atol, initial, initial_occupation)
    return traj


def integrate_protocol(
    protocol: DriveProtocol, momenta, times, rtol, atol, initial=su11.IDENTITY, records=None
):
    """(u, v, IntegrationReport) of every pair in `momenta` (rows) on the
    record grid `times` (columns), all started from the map `initial`, in
    one integrate_modes call, on its phase route with CD on.  `records` is
    protocol.grid(momenta, times) when the caller has it already: the
    integrator then reads the adiabatic frame at the records from it
    instead of evaluating it again."""
    grid = protocol.grid
    if records is not None:

        def grid(p, t):
            return records if t is times else protocol.grid(p, t)

    start = np.ones(len(momenta), dtype=complex)
    return integrate_modes(
        grid, momenta, times, initial.u * start, initial.v * start, rtol, atol,
        phase=protocol.cd_enabled,
    )


def _evolve(protocol, momenta, times, rtol, atol, initial, initial_occupation):
    """(Trajectories, CoefficientGrid, IntegrationReport) of the pairs
    `momenta` on the record grid `times`, from one coefficient evaluation."""
    c = protocol.grid(momenta, times)
    eps = instantaneous_spectrum(c.omega, c.g)
    # every mode at every record: raises before any integration where the
    # controlled spectrum turns imaginary between stability-grid points
    epsilon_cd = spectrum_with_cd(c.v_s, c.p, c.chi) if protocol.cd_enabled else eps
    u, v, report = integrate_protocol(protocol, momenta, times, rtol, atol, initial, c)
    try:
        su11.check_defect(report.max_invariant_defect)
    except ContractError as exc:  # the integrator's error, not the caller's
        raise IntegrationError(str(exc)) from None

    phases = np.angle(u)
    rotation = np.exp(-1j * phases)
    u, v = u * rotation, v * rotation
    sigma_integral = _cumulative_trapezoid(c.v_s / protocol.v_F, times)
    traj = Trajectories(
        p=np.asarray(momenta, dtype=float),
        times=times,
        u=u,
        v=v,
        annihilator_phase=np.unwrap(phases, axis=1),
        epsilon_cd=epsilon_cd,
        chi=c.chi,
        sigma_integral=sigma_integral,
        phase=-eps[:, :1] * initial_occupation * sigma_integral,
        **observables(u, v, c.omega, c.g, c.chi),
    )
    return traj, c, report


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y(x) along the last axis, from 0."""
    steps = np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0
    start = np.zeros(y.shape[:-1] + (1,))
    return np.concatenate((start, np.cumsum(steps, axis=-1)), axis=-1)


def mean_energy_scaling_check(traj: Trajectories, protocol: DriveProtocol) -> float:
    """Max relative deviation of <H(t)> from (v_s(t)/v_F) <H(0)>.

    Uses the zero-point-included convention of the controlled Hamiltonian;
    valid for CD on with contact couplings (momentum-independent v_s).
    """
    if not protocol.cd_enabled:
        raise ContractError("mean-energy scaling requires CD on")
    totals = traj.controlled_energy.sum(axis=0)
    scale = protocol.grid(traj.p, traj.times).v_s[0] / protocol.v_F
    return float(np.max(np.abs(totals - scale * totals[0])) / abs(totals[0]))


@dataclass
class SimulationResult:
    trajectories: Trajectories
    times: np.ndarray
    total_residual: np.ndarray
    total_energy: np.ndarray
    # Luttinger parameters and Kdot/(2K) of the slowest mode, whether or
    # not CD is applied
    v_s: np.ndarray
    K: np.ndarray
    chi: np.ndarray
    stability: StabilityReport
    integration: IntegrationReport


def run_simulation(
    protocol: DriveProtocol,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    record_points: int = DEFAULT_RECORD_POINTS,
) -> SimulationResult:
    """Evolve all modes independently and aggregate in fixed mode order,
    so that identical inputs give identical outputs.  stability_margin is
    the gate: an unstable coupling, or CD on with a margin that is not
    positive, raises before any integration.  Every error raised after
    stability_margin returns carries its report as `report`."""
    from .protocol import stability_margin

    stability = stability_margin(protocol)
    times = np.linspace(0.0, protocol.t_f, record_points)
    try:
        if protocol.cd_enabled and not stability.passed:
            raise CDInstabilityError(
                f"cd-instability at p = {stability.argmin_p:.6g}, "
                f"t = {stability.argmin_t:.6g}: margin {stability.margin:.6g} <= 0"
            )
        traj, c, integration = _evolve(
            protocol, protocol.momenta(), times, rtol, atol, su11.IDENTITY, 0.0
        )
    except (ContractError, IntegrationError) as exc:
        exc.report = stability
        raise
    # sums over axis 0 add the modes one after another, in mode order
    return SimulationResult(
        trajectories=traj,
        times=times,
        total_residual=traj.residual.sum(axis=0),
        total_energy=traj.controlled_energy.sum(axis=0),
        v_s=c.v_s[0],
        K=c.K[0],
        chi=c.chi_cd[0],
        stability=stability,
        integration=integration,
    )


@dataclass(frozen=True)
class SweepRow:
    t_f: float
    final_residual: float
    final_fidelity: float
    stability_pass: bool
    # why the integration of this t_f stopped, for a row of NaN values
    integration_error: str = ""


def sweep_tf(
    protocol: DriveProtocol,
    tf_list,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    record_points: int = DEFAULT_RECORD_POINTS,
) -> list:
    """One row per t_f, from run_simulation; a row whose CD run is refused
    as unstable, or whose integration stops (IntegrationError), is flagged
    with NaN values, not dropped, so the other t_f still finish.  An
    unstable coupling raises."""
    if not tf_list:
        raise ContractError("sweep requires a nonempty t_f list")
    rows = []
    for t_f in map(float, tf_list):
        try:
            result = run_simulation(protocol.with_tf(t_f), rtol, atol, record_points)
        except CDInstabilityError:
            rows.append(SweepRow(t_f, math.nan, math.nan, False))
            continue
        except IntegrationError as exc:
            passed = exc.report.passed
            rows.append(SweepRow(t_f, math.nan, math.nan, passed, str(exc)))
            continue
        final_res = float(result.total_residual[-1])
        final_fid = float(np.min(result.trajectories.fidelity[:, -1]))
        rows.append(SweepRow(t_f, final_res, final_fid, result.stability.passed))
    return rows
