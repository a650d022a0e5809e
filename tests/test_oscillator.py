"""The paper's oscillator equivalence as an exact check of every mode: each
(p, -p) pair is a harmonic oscillator H = pi^2/(2M) + M Omega^2 phi^2/2
with driven mass M = v_F/(K v_s) and frequency Omega = v_s p, and the CD
term is the dilation chi (phi pi + pi phi)/2.  A Gaussian state moves by
the real symplectic flow dS/dt = [[chi, 1/M], [-M Omega^2, -chi]] S on
(phi, pi), so the excitation at t_f follows from S alone and must equal
run_simulation's final n_qp, computed in the (u, v) state space."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tllcd import dynamics
from tllcd.closed_forms import cd_amplitude_lorentzian, mass_frequency
from tllcd.model import (
    CouplingFamily,
    CouplingSpec,
    cd_amplitude_contact,
    luttinger_params,
)
from tllcd.protocol import DriveProtocol, Schedule, ScheduleKind, schedule_value

COUPLINGS = {
    "contact": CouplingSpec(family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5),
    "lorentzian": CouplingSpec(
        family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=1.0, R0=0.5
    ),
    "custom_table": CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE,
        table=((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (2.5, 0.6, 0.35)),
    ),
}
# the oscillator's DOP853 tolerances, on each entry of S
OSC_RTOL, OSC_ATOL = 1e-12, 1e-14


def oscillator(proto, p, t):
    """(M, Omega, chi) of mode p at time t, from the scalar formulas: the
    couplings at p, luttinger_params, mass_frequency, and the family's own
    CD amplitude (0 without CD)."""
    P, dP = schedule_value(t / proto.t_f, proto.schedule)
    g2, g4, dg2, dg4 = proto.coupling.at(p, P)
    lp = luttinger_params(g2, g4, proto.v_F)
    M, Omega = mass_frequency(p, float(lp.K), float(lp.v_s), proto.v_F)
    rate = dP / proto.t_f
    c = proto.coupling
    if not proto.cd_enabled:
        chi = 0.0
    elif c.family == CouplingFamily.LORENTZIAN:
        lam = c.g2_start + (c.g2_end - c.g2_start) * P
        chi = cd_amplitude_lorentzian(lam, (c.g2_end - c.g2_start) * rate, c.R0, p, proto.v_F)
    else:
        chi = cd_amplitude_contact(g2, g4, dg2 * rate, dg4 * rate, proto.v_F)
    return M, Omega, float(chi)


def oscillator_excitation(proto, p):
    """(n, its error bound): the excitation of mode p at t_f from the vacuum,
    n = (Sigma_pipi/M1 + M1 Omega1^2 Sigma_phiphi)/(2 Omega1) - 1/2 with
    Sigma = S Sigma0 S^T, Sigma0 = diag(1/(2 M0 Omega0), M0 Omega0/2).
    In the coordinates scaled by D = diag(sqrt(M Omega), 1/sqrt(M Omega)),
    n + 1/2 = |D1 S D0^-1|_F^2/4, so an error dS of S moves n by at most
    |S~|_F |dS~|_F/2 + |dS~|_F^2/4, with dS~ = D1 dS D0^-1 and
    |dS| <= OSC_ATOL + OSC_RTOL |S| entrywise."""

    def flow(t, y):
        M, Omega, chi = oscillator(proto, p, t)
        A = np.array([[chi, 1.0 / M], [-M * Omega**2, -chi]])
        return (A @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(
        flow, (0.0, proto.t_f), np.eye(2).ravel(), method="DOP853",
        rtol=OSC_RTOL, atol=OSC_ATOL,
    )
    assert sol.success, sol.message
    S = sol.y[:, -1].reshape(2, 2)
    (M0, Omega0, _), (M1, Omega1, _) = oscillator(proto, p, 0.0), oscillator(proto, p, proto.t_f)
    Sigma = S @ np.diag([1.0 / (2.0 * M0 * Omega0), M0 * Omega0 / 2.0]) @ S.T
    n = (Sigma[1, 1] / M1 + M1 * Omega1**2 * Sigma[0, 0]) / (2.0 * Omega1) - 0.5
    d0, d1 = math.sqrt(M0 * Omega0), math.sqrt(M1 * Omega1)
    scale = np.array([[d1 / d0, d1 * d0], [1.0 / (d1 * d0), d0 / d1]])
    norm = np.linalg.norm(scale * S)
    dnorm = np.linalg.norm(scale * (OSC_ATOL + OSC_RTOL * np.abs(S)))
    return n, norm * dnorm / 2.0 + dnorm**2 / 4.0


def run_bound(traj, proto, k):
    """The bound on the error of the run's final n_qp = |v'|^2 of mode k:
    each of u, v is within atol + rtol |y| (the integrator's test), the
    frame map (u, v) -> (u', v') has row sums c + |s| = e^|eta|, with
    e^(2|eta|) = (omega + |g|)/eps, so |dv'| <= e^|eta| max(du, dv) and
    |d n_qp| <= 2 |v'| |dv'| + |dv'|^2."""
    rtol, atol = dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL
    u, v = abs(traj.u[k, -1]), abs(traj.v[k, -1])
    c = proto.pair_generator(traj.p[k], proto.t_f)
    eps = math.sqrt(c.omega**2 - c.g**2)
    dv = math.sqrt((c.omega + abs(c.g)) / eps) * (atol + rtol * max(u, v))
    return 2.0 * math.sqrt(traj.n_qp[k, -1]) * dv + dv**2


@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_every_mode_matches_the_driven_oscillator(family, cd):
    # first, middle and top of 8 modes: poly5, t_f = 10, L = 100
    proto = DriveProtocol(
        coupling=COUPLINGS[family], schedule=Schedule(ScheduleKind.POLY5),
        t_f=10.0, L=100.0, n_modes=8, cd_enabled=cd,
    )
    traj = dynamics.run_simulation(proto, record_points=21).trajectories
    for k in (0, 4, 7):
        n, bound = oscillator_excitation(proto, traj.p[k])
        bound += run_bound(traj, proto, k)
        assert abs(traj.n_qp[k, -1] - n) <= bound, (k, traj.n_qp[k, -1], n, bound)
        # without CD the ramp excites every mode, well above the bound
        assert cd or n > 1e3 * bound
