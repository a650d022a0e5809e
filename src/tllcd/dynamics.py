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

import functools
import math
import operator
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
    return _observe(times, *_evolve(protocol, None, [p], times, rtol, atol))[0]


def enforce_invariant(defect: float, error: type) -> None:
    """The invariant policy of runs and su11 maps, for ||u|^2 - |v|^2 - 1|:
    raise `error` above INVARIANT_ERROR_TOL, warn above INVARIANT_WARN_TOL
    at the call of run_simulation, sweep_tf, evolve_pair or an su11 map."""
    if defect > INVARIANT_ERROR_TOL:
        raise error(f"Bogoliubov invariant violated: |u|^2-|v|^2-1 = {defect:.3e}")
    if defect > INVARIANT_WARN_TOL:
        warnings.warn(
            f"Bogoliubov invariant drift {defect:.3e} exceeds {INVARIANT_WARN_TOL}",
            stacklevel=4,
        )


def _evolve(protocol, stability, momenta, times, rtol, atol):
    """(CoefficientGrid, epsilon_cd, u, v, frame, IntegrationReport) of the
    pairs `momenta` (rows), all started from the vacuum, on the record grid
    `times` (columns), in one integrate_modes call, on its phase route with
    CD on: the one evolution of every run.  The coefficients on the record
    grid are evaluated once, here, and the integrator reads the modes, the
    route and the adiabatic frame from them; the invariant policy follows.
    `stability` is the gate's report, or None (evolve_pair): with a report,
    CD on with a margin that is not positive raises CDInstabilityError
    before the record grid is formed, and every ContractError or
    IntegrationError carries it as `report`."""
    try:
        if protocol.cd_enabled and stability is not None and not stability.passed:
            raise CDInstabilityError(
                f"cd-instability at p = {stability.argmin_p:.6g}, "
                f"t = {stability.argmin_t:.6g}: margin {stability.margin:.6g} <= 0"
            )
        c = protocol.grid(momenta, times)
        # every mode at every record: raises, before any integration, where
        # the spectrum turns imaginary between stability-grid points
        if protocol.cd_enabled:
            epsilon_cd = spectrum_with_cd(c.v_s, c.p, c.chi)
        else:
            epsilon_cd = instantaneous_spectrum(c.omega, c.g)
        ones = np.ones(len(momenta))
        u, v, report, frame = integrate_modes(protocol.grid, times, c, ones, 0 * ones, rtol, atol)
        enforce_invariant(report.max_invariant_defect, IntegrationError)
    except (ContractError, IntegrationError) as exc:
        exc.report = stability
        raise
    return c, epsilon_cd, u, v, frame, report


def _observe(times, c, epsilon_cd, u, v, frame, report):
    """(Trajectories, CoefficientGrid, IntegrationReport) of an _evolve
    result: every mode at every record, the lab state (u, v) as integrated,
    n_qp and the fidelity read from the frame state (u', v'), which is
    released here, before a caller forms more of the coefficients."""
    traj = Trajectories(
        p=c.p[:, 0],
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
    # at call time: tests and the benchmark's tracer patch
    # protocol.stability_margin, which a top-level import would bind unpatched
    from .protocol import stability_margin

    stability = stability_margin(protocol)
    times = np.linspace(0.0, protocol.t_f, record_points)
    # one expression, so that _evolve's frame state is released before the
    # aggregates form more of the coefficients
    traj, c, integration = _observe(
        times, *_evolve(protocol, stability, protocol.momenta(), times, rtol, atol)
    )
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
    """One t_f of a sweep.  `stability_pass` is the gate's verdict,
    stability_margin's `passed`.  `failure` is why a row of NaN values has
    none: the IntegrationError that stopped its integration, or the
    CDInstabilityError of a record grid that refused a t_f the gate passed.
    A t_f that the gate refused has its verdict and no failure."""

    t_f: float
    final_residual: float
    final_fidelity: float
    stability_pass: bool
    failure: Exception | None = None


def sweep_tf(
    protocol: DriveProtocol,
    tf_list,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    record_points: int = DEFAULT_RECORD_POINTS,
) -> list:
    """One row per t_f, with the bits run_simulation gives it: the least
    fidelity over the modes at the last record and the total residual
    there, summed in mode order.  Each t_f takes run_simulation's
    evolution, the spectrum check on every record included, and observes
    only the last record: no Trajectories or aggregates are formed.  Every
    t_f passes the gate, stability_margin, in list order before any is
    integrated, so an unstable coupling or a t_f out of range raises before
    any integration.  A row whose CD run is refused as unstable, or whose
    integration stops (IntegrationError), is flagged with NaN values, not
    dropped, so the other t_f still finish; `stability_pass` is the gate's
    verdict, and the failure is kept as `failure`, unless it is the gate's
    own refusal."""
    # imported here, as in run_simulation
    from .protocol import stability_margin

    if not tf_list:
        raise ContractError("sweep requires a nonempty t_f list")
    runs = [protocol.with_tf(t_f) for t_f in map(float, tf_list)]
    reports = [stability_margin(run) for run in runs]
    rows = []
    for run, stability in zip(runs, reports):
        t_f, passed = run.t_f, stability.passed
        times = np.linspace(0.0, t_f, record_points)
        try:
            c, _, u, v, frame, _ = _evolve(run, stability, run.momenta(), times, rtol, atol)
        except (CDInstabilityError, IntegrationError) as exc:
            gated = isinstance(exc, CDInstabilityError) and not passed
            # the row keeps the error, not the frames of its traceback
            failure = None if gated else exc.with_traceback(None)
            rows.append(SweepRow(t_f, math.nan, math.nan, passed, failure))
            continue
        # the last record alone, as a (modes, 1) column
        last = np.s_[..., -1:]
        obs = observables(u[last], v[last], frame[last], c.omega[last], c.g[last], c.chi[last])
        # one mode after another, in mode order, as residual.sum(axis=0)
        # adds them; a 1-D sum would add pairwise
        final_res = functools.reduce(operator.add, obs["residual"][:, 0])
        final_fid = np.min(obs["fidelity"])
        rows.append(SweepRow(t_f, float(final_res), float(final_fid), passed))
    return rows
