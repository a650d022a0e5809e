"""Time evolution of every momentum pair of a run from the vacuum under the
driven TLL, with or without the counterdiabatic term, in one integration;
observables, the invariant policy, ensemble aggregation and protocol
sweeps.

State representation: the Schrodinger-picture state of a pair is the
two-mode squeezed vacuum annihilated by c = u b(p) + v b†(-p); the pair
(u, v) is evolved by i dc/dt = [H(t), c].  The exact CD-driven trajectory is
the squeeze of angle (1/2) ln K_p(t), which the integrator must reproduce.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CDInstabilityError, ContractError, IntegrationError
from .integrator import IntegrationReport, integrate_modes
from .model import instantaneous_spectrum, spectrum_with_cd
from .protocol import DriveProtocol, StabilityReport

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_RECORD_POINTS = 201
# Invariant drift policy: warn early, fail hard, never renormalize silently.
INVARIANT_WARN_TOL = 1e-9
INVARIANT_ERROR_TOL = 1e-6


@dataclass(frozen=True)
class Trajectories:
    """Recorded evolution of a set of (p, -p) pairs.

    Every array field except `p` and `times` has shape (n_modes, n_times):
    one row per mode, one column per record time.
    """

    p: np.ndarray
    times: np.ndarray
    # annihilator coefficients as the integrator returns them, overall phase
    # included: on a CD run from the vacuum, arg u is the dynamical phase
    # Phi_p(t), the integral of epsilon_p from 0 to t
    u: np.ndarray
    v: np.ndarray
    n_bare: np.ndarray
    # read in the adiabatic frame, from the integrator's frame state (u', v')
    n_qp: np.ndarray  # |v'|^2
    fidelity: np.ndarray  # min(1/|u'|, 1): overlap with the instantaneous ground state
    pair_energy: np.ndarray
    residual: np.ndarray  # pair_energy minus the instantaneous ground energy
    controlled_energy: np.ndarray  # energy under the controlled Hamiltonian
    epsilon_cd: np.ndarray
    chi: np.ndarray


def observables(u, v, frame, omega, g, chi) -> dict:
    """Observables of the states (u, v), whose adiabatic frame state is
    frame = (u', v'), under the pair coefficients (omega, g, chi),
    elementwise over arrays: the array forms of the scalar references,
    which live in `validate`.  n_qp = |v'|^2 (quasiparticle_frame) and
    fidelity = min(1/|u'|, 1) (state_overlap with the instantaneous ground
    state) are read in the frame; n_bare (vacuum_observables), pair_energy,
    residual and controlled_energy (controlled_pair_energy) from (u, v).
    """
    u_frame, v_frame = frame
    n = np.abs(v) ** 2
    corr = -np.conj(u) * v
    energy = 2.0 * omega * (n + 0.5) - omega + 2.0 * g * corr.real
    return {
        "n_bare": n,
        "n_qp": np.abs(v_frame) ** 2,
        "fidelity": np.minimum(1.0 / np.abs(u_frame), 1.0),
        "pair_energy": energy,
        "residual": energy - (instantaneous_spectrum(omega, g) - omega),
        "controlled_energy": 2.0 * omega * (n + 0.5)
        + 2.0 * g * corr.real
        + 2.0 * chi * corr.imag,
    }


def evolve_pair(
    p: float,
    protocol: DriveProtocol,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    record_points: int = DEFAULT_RECORD_POINTS,
) -> Trajectories:
    """Evolve one (p, -p) pair from the vacuum over [0, t_f] and record its
    state, as integrated, and observables: the one-row case of the
    trajectories of a run."""
    times = np.linspace(0.0, protocol.t_f, record_points)
    return _evolve(protocol, [p], times, rtol, atol)[0]


def _evolve(protocol, momenta, times, rtol, atol):
    """(Trajectories, CoefficientGrid, IntegrationReport) of the pairs
    `momenta` (rows), all started from the vacuum, on the record grid
    `times` (columns), in one integrate_modes call, on its phase route with
    CD on.  The coefficients on the record grid are evaluated once, here,
    and the integrator reads the modes, the route and the adiabatic frame
    from them; the trajectories keep the lab state (u, v) as integrated,
    and read n_qp and the fidelity from the frame state (u', v')."""
    c = protocol.grid(momenta, times)
    # every mode at every record: raises before any integration where the
    # controlled spectrum turns imaginary between stability-grid points
    if protocol.cd_enabled:
        epsilon_cd = spectrum_with_cd(c.v_s, c.p, c.chi)
    else:
        epsilon_cd = instantaneous_spectrum(c.omega, c.g)
    ones = np.ones(len(momenta))
    u, v, report, frame = integrate_modes(protocol.grid, times, c, ones, 0 * ones, rtol, atol)
    # the invariant policy, once per run
    defect = report.max_invariant_defect
    if defect > INVARIANT_ERROR_TOL:
        raise IntegrationError(
            f"Bogoliubov invariant violated: |u|^2-|v|^2-1 = {defect:.3e}"
        )
    if defect > INVARIANT_WARN_TOL:
        warnings.warn(
            f"Bogoliubov invariant drift {defect:.3e} exceeds {INVARIANT_WARN_TOL}",
            stacklevel=2,
        )

    traj = Trajectories(
        p=np.asarray(momenta, dtype=float),
        times=times,
        u=u,
        v=v,
        epsilon_cd=epsilon_cd,
        chi=c.chi,
        **observables(u, v, frame, c.omega, c.g, c.chi),
    )
    return traj, c, report


@dataclass
class SimulationResult:
    trajectories: Trajectories
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
    the gate, and DriveProtocol.validate its first step: before any
    coefficient is formed, a coefficient out of float64 range raises
    ConfigError and an unstable coupling LuttingerInstabilityError; CD on
    with a margin that is not positive raises CDInstabilityError before any
    integration.  Every error raised after stability_margin returns carries
    its report as `report`."""
    from .protocol import stability_margin

    return _run(protocol, stability_margin(protocol), rtol, atol, record_points)


def _run(protocol, stability, rtol, atol, record_points) -> SimulationResult:
    """run_simulation past its gate, whose report is `stability`."""
    times = np.linspace(0.0, protocol.t_f, record_points)
    try:
        if protocol.cd_enabled and not stability.passed:
            raise CDInstabilityError(
                f"cd-instability at p = {stability.argmin_p:.6g}, "
                f"t = {stability.argmin_t:.6g}: margin {stability.margin:.6g} <= 0"
            )
        traj, c, integration = _evolve(protocol, protocol.momenta(), times, rtol, atol)
    except (ContractError, IntegrationError) as exc:
        exc.report = stability
        raise
    # sums over axis 0 add the modes one after another, in mode order
    return SimulationResult(
        trajectories=traj,
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
    """One row per t_f, as run_simulation gives it; every t_f passes the
    gate, stability_margin, in list order before any is integrated, so an
    unstable coupling or a t_f out of range raises before any integration.
    A row whose CD run is refused as unstable, or whose integration stops
    (IntegrationError), is flagged with NaN values, not dropped, so the
    other t_f still finish."""
    from .protocol import stability_margin

    if not tf_list:
        raise ContractError("sweep requires a nonempty t_f list")
    runs = [protocol.with_tf(t_f) for t_f in map(float, tf_list)]
    reports = [stability_margin(run) for run in runs]
    rows = []
    for run, stability in zip(runs, reports):
        t_f = run.t_f
        try:
            result = _run(run, stability, rtol, atol, record_points)
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
