"""Magnus integrator: agreement with a tight DOP853 reference for every
coupling family and schedule, the symplectic invariant, all-modes versus
per-mode runs, error handling and the array coefficient evaluator."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from tllcd import dynamics, integrator
from tllcd.control import Schedule, ScheduleKind
from tllcd.errors import IntegrationError
from tllcd.model import CouplingFamily, CouplingSpec
from tllcd.protocol import DriveProtocol

COUPLINGS = {
    "contact": CouplingSpec(family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5),
    "lorentzian": CouplingSpec(
        family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=1.0, R0=0.2
    ),
    "custom_table": CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE,
        table=((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (2.5, 0.6, 0.35)),
    ),
}
SCHEDULES = {
    "poly5": Schedule(ScheduleKind.POLY5),
    "linear": Schedule(ScheduleKind.LINEAR),
    "custom_samples": Schedule(
        ScheduleKind.CUSTOM_SAMPLES, samples=((0.0, 0.0), (0.4, 0.3), (1.0, 1.0))
    ),
}
CASES = [
    ("contact", "poly5"),
    ("contact", "linear"),
    ("lorentzian", "poly5"),
    ("custom_table", "linear"),
    ("contact", "custom_samples"),
]


def make_protocol(family="contact", schedule="poly5", cd=True, n_modes=3):
    return DriveProtocol(
        coupling=COUPLINGS[family],
        schedule=SCHEDULES[schedule],
        t_f=6.0,
        L=20.0,
        n_modes=n_modes,
        cd_enabled=cd,
    )


def dop853(proto, p, times):
    """Reference (u, v) of one pair from (1, 0), DOP853 at rtol 1e-12."""

    def rhs(t, y):
        c = proto.pair_generator(p, t)
        u = complex(y[0], y[1])
        v = complex(y[2], y[3])
        du = 1j * c.omega * u - (1j * c.g + c.chi) * v
        dv = -1j * c.omega * v + (1j * c.g - c.chi) * u
        return [du.real, du.imag, dv.real, dv.imag]

    sol = solve_ivp(
        rhs, (0.0, times[-1]), [1.0, 0.0, 0.0, 0.0], method="DOP853",
        t_eval=times, rtol=1e-12, atol=1e-14,
    )
    assert sol.success
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]


@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
@pytest.mark.parametrize("family,schedule", CASES)
def test_matches_dop853(family, schedule, cd):
    proto = make_protocol(family, schedule, cd)
    times = np.linspace(0.0, proto.t_f, 11)
    u, v, report = dynamics.integrate_protocol(
        proto, proto.momenta(), times, 1e-10, 1e-12
    )
    for k, p in enumerate(proto.momenta()):
        u_ref, v_ref = dop853(proto, p, times)
        assert np.max(np.abs(u[k] - u_ref)) < 1e-8
        assert np.max(np.abs(v[k] - v_ref)) < 1e-8
    assert report.max_invariant_defect <= 1e-12
    assert report.error_estimate <= 1e-10


def test_invariant_defect_at_roundoff():
    proto = make_protocol(n_modes=16)
    times = np.linspace(0.0, proto.t_f, 201)
    u, v, report = dynamics.integrate_protocol(
        proto, proto.momenta(), times, 1e-10, 1e-12
    )
    assert report.max_invariant_defect <= 1e-12
    defect = np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0))
    assert defect == report.max_invariant_defect


@pytest.mark.parametrize("cd", [True, False])
def test_all_modes_run_matches_per_mode(cd):
    proto = make_protocol("custom_table", "poly5", cd, n_modes=4)
    traj = dynamics.run_simulation(proto, record_points=21).trajectories
    for k, p in enumerate(traj.p):
        single = dynamics.evolve_pair(p, proto, record_points=21)
        assert np.max(np.abs(traj.u[k] - single.u[0])) < 1e-9
        assert np.max(np.abs(traj.v[k] - single.v[0])) < 1e-9
        assert np.max(np.abs(traj.n_qp[k] - single.n_qp[0])) < 1e-9


def test_blocking_does_not_change_the_result(monkeypatch):
    proto = make_protocol(n_modes=5)
    times = np.linspace(0.0, proto.t_f, 7)
    whole = dynamics.integrate_protocol(proto, proto.momenta(), times, 1e-10, 1e-12)
    # blocks of 2 steps: shorter than one record interval once N > 2
    monkeypatch.setattr(integrator, "BLOCK_POINTS", 2 * 5)
    split = dynamics.integrate_protocol(proto, proto.momenta(), times, 1e-10, 1e-12)
    assert split[2].substeps == whole[2].substeps > 2
    assert np.max(np.abs(split[0] - whole[0])) < 1e-13
    assert np.max(np.abs(split[1] - whole[1])) < 1e-13


def test_raises_at_step_cap(monkeypatch):
    # 2 record intervals x 4 substeps = 8 steps; doubling again would pass the cap
    monkeypatch.setattr(integrator, "MAX_STEPS", 15)
    proto = make_protocol(cd=False)
    times = np.linspace(0.0, proto.t_f, 3)
    with pytest.raises(IntegrationError, match="not converged at 4 substeps"):
        dynamics.integrate_protocol(proto, proto.momenta(), times, 1e-14, 1e-16)


def test_raises_on_non_finite_coefficients():
    def coefficients(t):
        nan = np.full((1, len(t)), np.nan)
        return nan, nan, nan

    with pytest.raises(IntegrationError, match="non-finite"):
        integrator.integrate_modes(coefficients, [0.0, 1.0], [1.0], [0.0], 1e-10, 1e-12)


@pytest.mark.parametrize("z", [-30.0, -0.5, -1e-2, -1e-5, 0.0, 1e-6, 1e-2, 0.7, 12.0])
def test_closed_form_exponential_matches_expm(z):
    # Omega = [[i a, b], [conj(b), -i a]] with |b|^2 - a^2 = z
    a = 6.0
    b = np.sqrt(a * a + z) * np.exp(0.3j)
    C, S = integrator._cosh_sinhc(np.array([z]))
    alpha, beta = C[0] + 1j * S[0] * a, S[0] * b
    want = expm(np.array([[1j * a, b], [np.conj(b), -1j * a]]))
    assert abs(alpha - want[0, 0]) < 1e-14 * abs(want[0, 0])
    assert abs(beta - want[0, 1]) < 1e-14 * max(abs(want[0, 1]), 1.0)
    assert abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0) < 1e-13 * abs(alpha) ** 2


@pytest.mark.parametrize("cd", [True, False])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_coefficients_match_pair_generator(family, schedule, cd):
    proto = make_protocol(family, schedule, cd, n_modes=12)
    p = proto.momenta()
    t = np.linspace(0.0, proto.t_f, 17)
    arrays = proto.coefficients(p, t)
    for i, pi in enumerate(p):
        for j, tj in enumerate(t):
            ref = proto.pair_generator(pi, tj)
            for got, want in zip(arrays, (ref.omega, ref.g, ref.chi)):
                assert abs(got[i, j] - want) <= 1e-14 * abs(want)
