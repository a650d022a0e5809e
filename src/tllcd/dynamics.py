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

# the module, not its name, so that a patched protocol.stability_margin runs
from . import protocol as _protocol
from .errors import CDInstabilityError, ContractError, IntegrationError
from .integrator import IntegrationReport, integrate_modes
from .model import instantaneous_spectrum, is_count, require_cd_stable, spectrum_with_cd
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
    # read in the adiabatic frame, from the moduli of the integrator's frame
    # state (u', v')
    n_qp: np.ndarray  # |v'|^2
    fidelity: np.ndarray  # min(1/|u'|, 1): overlap with the instantaneous ground state
    pair_energy: np.ndarray
    residual: np.ndarray  # pair_energy minus the instantaneous ground energy
    controlled_energy: np.ndarray  # energy under the controlled Hamiltonian
    epsilon_cd: np.ndarray
    chi: np.ndarray


def observables(u, v, moduli, c) -> dict:
    """Observables of the states (u, v), whose adiabatic frame state
    (u', v') has the moduli = (|u'|, |v'|), under the CoefficientGrid `c`
    of their shape, elementwise over arrays: the array forms of the scalar
    references, which live in `validate`.  n_qp = |v'|^2
    (quasiparticle_frame) and fidelity = min(1/|u'|, 1) (state_overlap with
    the instantaneous ground state) are formed in place on the moduli,
    which become those columns; n_bare (vacuum_observables), pair_energy,
    residual and controlled_energy (controlled_pair_energy) from (u, v);
    epsilon_cd is spectrum_with_cd's with CD on, else the bare spectrum.
    Every column is formed in place, and corr = -conj(u) v goes before the
    energies are formed, so that no temporary of their shape outlives the
    room of the columns not yet formed.
    """
    fidelity, n_qp = moduli
    n_qp **= 2
    np.divide(1.0, fidelity, out=fidelity)
    np.minimum(fidelity, 1.0, out=fidelity)
    omega, g, chi = c.omega, c.g, c.chi
    n = np.abs(v)
    n **= 2
    corr = np.conj(u)
    np.negative(corr, out=corr)
    corr *= v
    # 2 omega (n + 1/2) and 2 g Re(corr) are formed once, and added in the
    # order of energy = 2 omega (n + 1/2) - omega + 2 g Re(corr) and of
    # controlled = 2 omega (n + 1/2) + 2 g Re(corr) + 2 chi Im(corr); corr
    # goes before the first of them is formed
    re = np.multiply(2.0, g)
    re *= corr.real
    im = np.multiply(2.0, chi)
    im *= corr.imag
    del corr
    controlled = np.add(n, 0.5)
    controlled *= 2.0 * omega
    energy = np.subtract(controlled, omega)
    energy += re
    controlled += re
    controlled += im
    del re, im
    residual = instantaneous_spectrum(omega, g)
    # the residual is formed over the bare spectrum, which without CD is
    # also the column epsilon_cd
    epsilon = spectrum_with_cd(c.v_s, c.p, chi) if c.cd_enabled else residual.copy()
    residual -= omega
    np.subtract(energy, residual, out=residual)
    return {
        "n_bare": n,
        "n_qp": n_qp,
        "fidelity": fidelity,
        "pair_energy": energy,
        "residual": residual,
        "controlled_energy": controlled,
        "epsilon_cd": epsilon,
    }


def enforce_invariant(defect: float, error: type) -> None:
    """The invariant policy of runs and su11 maps, for ||u|^2 - |v|^2 - 1|:
    raise `error` above INVARIANT_ERROR_TOL, warn above INVARIANT_WARN_TOL
    at the call of run_simulation, sweep_tf or an su11 map."""
    if defect > INVARIANT_ERROR_TOL:
        raise error(f"Bogoliubov invariant violated: |u|^2-|v|^2-1 = {defect:.3e}")
    if defect > INVARIANT_WARN_TOL:
        warnings.warn(
            f"Bogoliubov invariant drift {defect:.3e} exceeds {INVARIANT_WARN_TOL}",
            stacklevel=4,
        )


def require_run_settings(rtol: float, atol: float, record_points: int) -> None:
    """The rule of a run's settings, for the library and the command line
    alike: ContractError, naming the key, unless record_points is an
    integer (is_count) of at least 2 and rtol and atol are finite and
    positive."""
    if not (is_count(record_points) and record_points >= 2):
        raise ContractError(f"record_points must be an integer >= 2, got {record_points!r}")
    for key, tol in (("rtol", rtol), ("atol", atol)):
        if not 0.0 < tol < math.inf:
            raise ContractError(f"{key} must be finite and positive, got {tol}")


def _evolve(protocol, stability, record_points, rtol, atol):
    """(times, CoefficientGrid, u, v, IntegrationReport, moduli), moduli
    the (|u'|, |v'|) of the frame state, of every pair of `protocol` (rows),
    all started from the vacuum, on the record grid of `record_points`
    times over [0, t_f] (columns), in one integrate_modes call, on its
    phase route with CD on: the one evolution of every run.
    The coefficients on the record grid are evaluated once, here, and the
    integrator reads the modes, the route and the adiabatic frame from
    them; the invariant policy follows.
    `stability` is the gate's report, stability_margin's for `protocol`:
    with CD on, require_cd_stable refuses its margin before the record grid
    is formed.  The gate's margin is the least on [0, t_f] where that
    decides the verdict, so a record grid needs no check of its own.  Every
    ContractError or IntegrationError carries the report as `report`.
    Settings that require_run_settings refuses raise its ContractError
    first, the one the command line raises for them."""
    try:
        require_run_settings(rtol, atol, record_points)
        if protocol.cd_enabled:
            require_cd_stable(stability.margin, stability.argmin_p, stability.argmin_t)
        times = np.linspace(0.0, protocol.t_f, record_points)
        c = protocol.grid(protocol.momenta(), times)
        ones = np.ones(len(c.p))
        u, v, report, moduli = integrate_modes(protocol.grid, times, c, ones, 0 * ones, rtol, atol)
        enforce_invariant(report.max_invariant_defect, IntegrationError)
    except (ContractError, IntegrationError) as exc:
        exc.report = stability
        raise
    return times, c, u, v, report, moduli


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
    stability = _protocol.stability_margin(protocol)
    times, c, u, v, integration, moduli = _evolve(protocol, stability, record_points, rtol, atol)
    traj = Trajectories(
        p=c.p[:, 0], times=times, u=u, v=v, chi=c.chi, **observables(u, v, moduli, c)
    )
    # the record grid goes before the aggregates form more of the coefficients
    del c
    # the slowest mode's row alone, on a one-row grid of the record times
    slowest = protocol.grid(traj.p[:1], traj.times)
    # sums over axis 0 add the modes one after another, in mode order
    return SimulationResult(
        trajectories=traj,
        total_residual=traj.residual.sum(axis=0),
        total_energy=traj.controlled_energy.sum(axis=0),
        v_s=slowest.v_s[0],
        K=slowest.K[0],
        chi=slowest.chi_cd[0],
        stability=stability,
        integration=integration,
    )


@dataclass(frozen=True)
class SweepRow:
    """One t_f of a sweep.  `stability_pass` is the gate's verdict,
    stability_margin's `passed`.  `failure` is the IntegrationError that
    stopped the integration of a row of NaN values; a t_f that the gate
    refused has its verdict and no failure."""

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
    evolution and observes only the last record, on a one-column grid at
    t_f: no Trajectories or aggregates are formed.  Every t_f passes the
    gate, stability_margin, in list order before any is integrated, so an
    unstable coupling or a t_f out of range raises before any integration.
    A row whose CD run the gate refused, or whose integration stops
    (IntegrationError), is flagged with NaN values, not dropped, so the
    other t_f still finish; `stability_pass` is the gate's verdict, and an
    IntegrationError is kept as `failure`."""
    # any sequence or iterable: a numpy array has no truth value
    tf_list = [float(t_f) for t_f in tf_list]
    if not tf_list:
        raise ContractError("sweep requires a nonempty t_f list")
    runs = [protocol.with_tf(t_f) for t_f in tf_list]
    reports = [_protocol.stability_margin(run) for run in runs]
    settings = record_points, rtol, atol
    return [_sweep_row(run, stability, *settings) for run, stability in zip(runs, reports)]


def _sweep_row(run, stability, record_points, rtol, atol) -> SweepRow:
    """The SweepRow of the protocol `run` at its t_f, gated by `stability`.
    Its state, moduli and one-column grid are locals here, released when
    the row is returned, before the next t_f integrates."""
    t_f, passed = run.t_f, stability.passed
    try:
        _, _, u, v, _, moduli = _evolve(run, stability, record_points, rtol, atol)
    except CDInstabilityError:
        return SweepRow(t_f, math.nan, math.nan, passed)
    except IntegrationError as exc:
        # the row keeps the error, not the frames of its traceback
        return SweepRow(t_f, math.nan, math.nan, passed, exc.with_traceback(None))
    # the last record alone, as a (modes, 1) column, at t_f exactly
    last = np.s_[..., -1:]
    moduli = tuple(x[last] for x in moduli)
    obs = observables(u[last], v[last], moduli, run.grid(run.momenta(), t_f))
    # one mode after another, in mode order, as residual.sum(axis=0) adds
    # them; a 1-D sum would add pairwise
    final_res = functools.reduce(operator.add, obs["residual"][:, 0])
    final_fid = np.min(obs["fidelity"])
    return SweepRow(t_f, float(final_res), float(final_fid), passed)
