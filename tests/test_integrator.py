"""Magnus integrator: agreement with a tight DOP853 reference for every
coupling family and schedule, the exact transitionless answer of CD runs,
the order of the step, the symplectic invariant, all-modes versus per-mode
runs, error handling, and the coefficient grid it reads, checked against
finite differences for every coupling family and schedule."""

import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from tllcd import dynamics, integrator, su11, validate
from tllcd.closed_forms import bogoliubov_angle
from tllcd.errors import ContractError, IntegrationError
from tllcd.model import CouplingFamily, CouplingSpec
from tllcd.protocol import DriveProtocol, Schedule, ScheduleKind

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
}
CASES = [
    ("contact", "poly5"),
    ("contact", "linear"),
    ("lorentzian", "poly5"),
    ("custom_table", "linear"),
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


def integrate(proto, momenta, times, rtol, atol):
    """integrate_modes as a run calls it: every mode of `momenta` from the
    vacuum, with the coefficients on the record grid, which take the phase
    route with CD on."""
    ones = np.ones(len(momenta))
    return integrator.integrate_modes(
        proto.grid, times, proto.grid(momenta, times), ones, 0 * ones, rtol, atol
    )


def dop853(proto, p, times, rtol=1e-12, y0=(1.0, 0.0)):
    """Reference (u, v) of one pair from y0 = (u, v) at t = 0 (the vacuum
    by default), DOP853 at `rtol`."""

    def rhs(t, y):
        c = proto.pair_generator(p, t)
        u = complex(y[0], y[1])
        v = complex(y[2], y[3])
        du = 1j * c.omega * u - (1j * c.g + c.chi) * v
        dv = -1j * c.omega * v + (1j * c.g - c.chi) * u
        return [du.real, du.imag, dv.real, dv.imag]

    u0, v0 = map(complex, y0)
    sol = solve_ivp(
        rhs, (0.0, times[-1]), [u0.real, u0.imag, v0.real, v0.imag], method="DOP853",
        t_eval=times, rtol=rtol, atol=1e-14,
    )
    assert sol.success
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]


@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
@pytest.mark.parametrize("family,schedule", CASES)
def test_matches_dop853(family, schedule, cd):
    proto = make_protocol(family, schedule, cd)
    times = np.linspace(0.0, proto.t_f, 11)
    u, v, report, _ = integrate(proto, proto.momenta(), times, 1e-10, 1e-12)
    for k, p in enumerate(proto.momenta()):
        u_ref, v_ref = dop853(proto, p, times)
        assert np.max(np.abs(u[k] - u_ref)) < 1e-8
        assert np.max(np.abs(v[k] - v_ref)) < 1e-8
    assert report.max_invariant_defect <= 1e-12
    assert report.error_estimate <= 1e-10


def test_sixth_order_convergence():
    # one slow mode over 4 record intervals: N = 2 is already asymptotic.
    # With CD on only the Gauss quadrature of the phase is left, and its
    # error at N = 8 (~4e-14) is near the reference's; without CD the whole
    # Magnus step is measured, to ~1e-11 at N = 8 (ratios 63.1 and 63.8)
    for cd in (True, False):
        proto = make_protocol(cd=cd, n_modes=1)
        p = proto.momenta()
        times = np.linspace(0.0, proto.t_f, 5)
        c = validate.magnus_route(proto.grid(p, times))
        u_ref, v_ref = dop853(proto, p[0], times, rtol=1e-13)

        def error(substeps):
            u, v = integrator.fixed_steps(proto.grid, times, c, [1.0], [0.0], substeps)
            return max(np.max(np.abs(u[0] - u_ref)), np.max(np.abs(v[0] - v_ref)))

        errors = [error(n) for n in (2, 4, 8)]
        # doubling N divides the error by 2^6 at sixth order, by 2^4 at fourth
        assert errors[0] >= 2**5 * errors[1], cd
        assert errors[1] >= 2**5 * errors[2], cd


def test_fixed_steps_takes_any_step_count():
    # the steps of a pass run as one flat sequence, so N need not be a power
    # of two: at N = 3, 6 and 12 the error against DOP853 falls at sixth
    # order (1.2e-11, 2.0e-13, 2.8e-15), and u(t_f) = -0.3723+0.9311i as at
    # N = 2, 4 and 8
    proto = make_protocol(n_modes=1)
    p = proto.momenta()
    times = np.linspace(0.0, proto.t_f, 5)
    c = validate.magnus_route(proto.grid(p, times))
    u_ref, v_ref = dop853(proto, p[0], times, rtol=1e-13)

    def error(substeps):
        u, v = integrator.fixed_steps(proto.grid, times, c, [1.0], [0.0], substeps)
        return max(np.max(np.abs(u[0] - u_ref)), np.max(np.abs(v[0] - v_ref)))

    errors = [error(n) for n in (3, 6, 12)]
    assert errors[0] >= 2**5 * errors[1]
    assert errors[1] >= 2**5 * errors[2]
    # model.is_count: a bool counts nothing
    for substeps in (0, -1, 2.5, True):
        with pytest.raises(ContractError, match="integer >= 1"):
            integrator.fixed_steps(proto.grid, times, c, [1.0], [0.0], substeps)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("family", ["contact", "lorentzian", "custom_table"])
def test_cd_runs_are_transitionless_to_roundoff(family, schedule):
    # the exact answer of a CD run from the vacuum: no quasiparticles at
    # any mode or record.  Each pair's generator is diagonal in its frame,
    # so the frame state is (e^(i Phi), 0) and n_qp = |v'|^2 is exactly 0;
    # every mode passes at one step per record interval, after the pass at
    # one step per two
    assert validate.cd_referee(make_protocol(family, schedule, n_modes=8), 21)[0] <= 0.0


@pytest.mark.parametrize("family,schedule", CASES)
def test_phase_route_is_the_magnus_step_at_zero_mixing(family, schedule):
    # with CD on the frame generator is (epsilon, 0, 0): each Magnus step is
    # a rotation by the three-node Gauss-Legendre quadrature of the phase
    # integral, which the phase route sums, at any number of steps
    proto = make_protocol(family, schedule, n_modes=4)
    p, ones = proto.momenta(), np.ones(proto.n_modes)
    times = np.linspace(0.0, proto.t_f, 6)
    phase, reference = proto.grid(p, times), validate.magnus_route(proto.grid(p, times))
    for substeps in (1, 3, 8):
        for got, want in zip(
            integrator.fixed_steps(proto.grid, times, phase, ones, 0 * ones, substeps),
            integrator.fixed_steps(proto.grid, times, reference, ones, 0 * ones, substeps),
        ):
            assert np.max(np.abs(got - want)) < 1e-13


class HalfCD(DriveProtocol):
    """A CD-on protocol that applies chi = chi_cd/2 at every (p, t) it
    evaluates, the record grid and the integrator's nodes alike: an
    under-applied control."""

    def grid(self, p, t):
        c = super().grid(p, t)
        vars(c)["chi"] = 0.5 * c.chi_cd
        return c


@pytest.mark.parametrize("case", ["off", "half", "copy", "on"])
def test_the_route_follows_the_coefficients(case):
    # the record-grid coefficients alone pick the route: CD off and a
    # control at half its strength take Magnus steps, which match DOP853
    # of the chi they apply and leave quasiparticles; CD on takes the phase
    # route, and Magnus steps (the reference of the phase route's checks)
    # where chi is a copy of chi_cd.  CD off decides it without forming
    # chi_cd or v_s on the record grid
    proto = make_protocol(cd=case != "off")
    if case == "half":
        proto = HalfCD(proto.coupling, proto.schedule, proto.t_f, proto.L, proto.n_modes)
    p, ones = proto.momenta(), np.ones(proto.n_modes)
    times = np.linspace(0.0, proto.t_f, 11)
    c = validate.magnus_route(proto.grid(p, times)) if case == "copy" else proto.grid(p, times)
    u, v, report, (_, v_mod) = integrator.integrate_modes(
        proto.grid, times, c, ones, 0 * ones, 1e-10, 1e-12
    )
    assert report.method == (integrator.PHASE if case == "on" else integrator.MAGNUS)
    assert case != "off" or not {"chi_cd", "v_s"} & set(vars(c))
    for k in range(proto.n_modes):
        u_ref, v_ref = dop853(proto, p[k], times)
        assert np.max(np.abs(u[k] - u_ref)) < 1e-8
        assert np.max(np.abs(v[k] - v_ref)) < 1e-8
    n_qp = v_mod[:, -1] ** 2
    assert np.all(n_qp == 0.0) if case in ("copy", "on") else np.all(n_qp > 0.0)


# the couplings at t = 0 are non-zero for contact and Lorentzian ramps, so
# the frame maps y0 with s != 0; a custom_table profile is ramped from zero
STARTS = {
    "contact": replace(COUPLINGS["contact"], g2_start=0.5, g4_start=0.25),
    "lorentzian": replace(COUPLINGS["lorentzian"], g2_start=0.5, g4_start=0.5),
    "custom_table": COUPLINGS["custom_table"],
}


@pytest.mark.parametrize("family", sorted(STARTS))
def test_interacting_starts_match_dop853(family):
    # CD on from a squeezed, rotated start (u0, v0): the phase route keeps
    # (u', v') = (e^(i Phi) u'_0, e^(-i Phi) v'_0), so both frame components
    # of y0, and its map into the frame, are on trial
    proto = replace(make_protocol(family, n_modes=3), coupling=STARTS[family])
    r = 0.4
    u0, v0 = math.cosh(r) * cmath.exp(0.3j), math.sinh(r) * cmath.exp(-1.2j)
    p, ones = proto.momenta(), np.ones(proto.n_modes)
    times = np.linspace(0.0, proto.t_f, 11)
    u, v, report, _ = integrator.integrate_modes(
        proto.grid, times, proto.grid(p, times), u0 * ones, v0 * ones, 1e-10, 1e-12
    )
    assert report.method == integrator.PHASE
    for k in range(proto.n_modes):
        u_ref, v_ref = dop853(proto, p[k], times, y0=(u0, v0))
        assert np.max(np.abs(u[k] - u_ref)) < 1e-8
        assert np.max(np.abs(v[k] - v_ref)) < 1e-8


@pytest.mark.parametrize("tight", [False, True], ids=["default", "tight"])
@pytest.mark.parametrize("family", sorted(STARTS))
def test_phase_test_is_never_looser_than_the_lab_test(family, tight):
    # the phase route tests delta Phi by a bound on the lab estimate (module
    # docstring), so a mode it accepts at N passes the lab test at N too:
    # |y_(N/2) - y_N| / 63 <= atol + rtol |y_N| at every record, from
    # fixed_steps.  A squeezed, rotated start makes v'_0 != 0, and the
    # ladder climbs to N = 2, 4 or 8 on two record intervals.  "tight" sets
    # each mode's atol, with rtol = 0, to the bound it was accepted with at
    # rtol = 1e-8, atol = 1e-10: the least atol that passes it at that N.
    # The lab estimate then comes within 2e-6 of it (rounding is ~2e-7
    # there), and a bound without the |s| |v'_0| term, a few per cent of
    # it, fails
    proto = replace(make_protocol(family, n_modes=8), coupling=STARTS[family])
    r = 1.0
    u0, v0 = math.cosh(r) * cmath.exp(0.3j), math.sinh(r) * cmath.exp(-1.2j)
    times = np.linspace(0.0, proto.t_f, 3)

    def run(p, substeps=None, tolerances=None):
        args = proto.grid, times, proto.grid([p], times), [u0], [v0]
        if substeps:
            return np.array(integrator.fixed_steps(*args, substeps))
        return integrator.integrate_modes(*args, *tolerances)

    for p in proto.momenta():
        if tight:
            report = run(p, tolerances=(1e-8, 1e-10))[2]
            rtol, atol = 0.0, report.error_estimate
        else:
            rtol, atol = dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL
        u, v, report, _ = run(p, tolerances=(rtol, atol))
        n = report.substeps
        assert n >= 2 and (report.error_estimate == atol or not tight)
        y = run(p, n)
        assert np.array_equal(y, np.array([u, v]))
        err = np.abs(run(p, n // 2) - y) / 63
        assert np.all(err <= atol + rtol * np.abs(y)), p
        u_ref, v_ref = dop853(proto, p, times, y0=(u0, v0))
        assert np.max(np.abs(u[0] - u_ref)) < 1e-8
        assert np.max(np.abs(v[0] - v_ref)) < 1e-8


def test_fine_cd_off_records_pass_at_the_floor():
    # a CD-off custom_table ramp on a fine record grid, shaped like the
    # table_records benchmark: every mode passes at N = 1, after N = 1/2,
    # so the ladder runs no level beyond its second here either
    rows = ((0.0, 0.9, 0.45), (0.5, 0.85, 0.45), (1.0, 0.8, 0.4),
            (1.5, 0.7, 0.4), (2.5, 0.6, 0.35))
    proto = DriveProtocol(
        coupling=CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=rows),
        schedule=Schedule(ScheduleKind.LINEAR),
        t_f=10.0,
        L=100.0,
        n_modes=32,
        cd_enabled=False,
    )
    report = dynamics.run_simulation(proto, record_points=1001).integration
    assert report.substeps == 1
    assert report.steps == 3 * 32 * 1000 // 2


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_frame_angle_is_half_log_k(family, schedule):
    # the adiabatic frame's angle eta = -(1/2) artanh(g/omega) is (1/2) ln K
    # at every (p, t), so d eta/dt is chi_cd = Kdot/(2K), which
    # test_chi_matches_finite_difference_of_lnsqrtk checks
    proto = make_protocol(family, schedule, n_modes=12)
    c = proto.grid(proto.momenta(), np.linspace(0.0, proto.t_f, 17))
    eta = -0.5 * np.arctanh(c.g / c.omega)
    assert np.max(np.abs(eta - 0.5 * np.log(c.K))) < 1e-15


@pytest.mark.parametrize("family,schedule", CASES)
def test_epsilon_and_frame_on_the_couplings_shape(family, schedule):
    # epsilon = p v_s, and the frame from (omega/p)/v_s and -(g/p)/v_s is
    # the one from omega/epsilon and -g/epsilon, within a few ulp at every
    # (mode, record)
    proto = make_protocol(family, schedule, n_modes=12)
    p = proto.momenta()
    c = proto.grid(p, np.linspace(0.0, proto.t_f, 17))
    omega, g = c.omega, c.g
    eps = np.sqrt(omega * omega - g * g)
    assert np.all(np.abs(c.p * c.v_s - eps) <= 4 * np.spacing(eps))
    cosh = np.sqrt(0.5 + 0.5 * omega / eps)
    sinh = -g / (2.0 * eps * cosh)
    frame, _ = integrator._start(c, np.ones(len(p)), np.zeros(len(p)))
    assert frame.shape == (2,) + omega.shape
    for got, want in zip(frame, (cosh, sinh), strict=True):
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_phases_and_frame_take_the_couplings_rows(family, monkeypatch):
    # contact couplings do not depend on p: the phase route reads v_s at
    # its nodes, and the frame, on one row for every mode, and forms no
    # per-mode omega or g there; the other families need a row per mode
    proto = make_protocol(family, n_modes=8)
    rows = 1 if family == "contact" else proto.n_modes
    nodes, frames = [], []

    def grid(p, t):
        nodes.append(proto.grid(p, t))
        return nodes[-1]

    real_start = integrator._start

    def start(*args):
        frame, y0 = real_start(*args)
        frames.append(frame)
        return frame, y0

    monkeypatch.setattr(integrator, "_start", start)
    p, times = proto.momenta(), np.linspace(0.0, proto.t_f, 21)
    records = proto.grid(p, times)
    ones = np.ones(len(p))
    _, _, report, _ = integrator.integrate_modes(
        grid, times, records, ones, 0 * ones, 1e-10, 1e-12
    )
    assert report.method == integrator.PHASE
    assert nodes and all(len(c.p) == c.v_s.shape[0] == rows for c in nodes)
    assert not any("_pair" in vars(c) for c in nodes + [records])
    (frame,) = frames
    assert frame.shape == (2, len(p), len(times))
    assert (frame.strides[1] == 0) == (rows == 1)


def test_substeps_of_the_long_cd_ramp():
    # the 32-mode CD ramp at t_f = 40 that the fourth-order step needed 32
    # substeps per record interval for
    proto = DriveProtocol(
        coupling=CouplingSpec(family=CouplingFamily.CONTACT, g2_end=1.0, g4_end=0.5),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=40.0,
        L=100.0,
        n_modes=32,
        cd_enabled=True,
    )
    times = np.linspace(0.0, proto.t_f, 201)
    _, _, report, _ = integrate(proto, proto.momenta(), times, 1e-10, 1e-12)
    assert report.substeps <= 8
    assert report.error_estimate <= 1e-10


# (family, schedule, cd, t_f, L, record points): every family and both ramp
# shapes, 10, 40 and 400 record intervals and an odd count (39), and long
# ramps with 8 time units per record interval
REFEREE = [
    ("contact", "poly5", True, 6.0, 20.0, 11),
    ("contact", "linear", False, 6.0, 20.0, 41),
    ("contact", "poly5", True, 6.0, 20.0, 401),
    ("contact", "linear", True, 6.0, 20.0, 40),
    ("lorentzian", "poly5", True, 6.0, 20.0, 41),
    ("lorentzian", "linear", False, 6.0, 20.0, 11),
    ("lorentzian", "poly5", False, 6.0, 20.0, 40),
    ("custom_table", "linear", False, 6.0, 20.0, 401),
    ("custom_table", "poly5", True, 6.0, 20.0, 41),
    ("custom_table", "linear", True, 6.0, 20.0, 40),
    ("contact", "poly5", True, 80.0, 100.0, 11),
    ("lorentzian", "linear", False, 80.0, 100.0, 11),
]


@pytest.mark.parametrize("family,schedule,cd,t_f,L,points", REFEREE)
def test_error_within_tolerance_at_every_record(family, schedule, cd, t_f, L, points):
    # the error contract against the method's own converged answer: every
    # mode, component and record, the records the first pass of an even
    # grid does not reach included
    proto = DriveProtocol(
        coupling=COUPLINGS[family],
        schedule=SCHEDULES[schedule],
        t_f=t_f,
        L=L,
        n_modes=8,
        cd_enabled=cd,
    )
    assert validate.error_control(proto, points, 8)[0] <= 1.0


def test_omega_matches_matrix_magnus():
    # the commutators written out on the zero bi components of the frame
    # generator, against the Gauss-Legendre Magnus formula on 2 x 2 matrices
    def matrix(a, br, bi):
        b = br + 1j * bi
        return np.array([[1j * a, b], [np.conj(b), -1j * a]])

    def comm(x, y):
        return x @ y - y @ x

    rng = np.random.default_rng(7)
    h = rng.uniform(0.1, 1.0, 20)
    a, r = rng.normal(size=(2, 3, 20))
    got = integrator._omega(h, a, r)
    for k in range(len(h)):
        A1, A2, A3 = (matrix(a[j, k], r[j, k], 0.0) for j in range(3))
        a1 = h[k] * A2
        a2 = math.sqrt(15.0) / 3.0 * h[k] * (A3 - A1)
        a3 = 10.0 / 3.0 * h[k] * (A3 - 2.0 * A2 + A1)
        c1 = comm(a1, a2)
        c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
        want = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
        Omega = matrix(*(x[k] for x in got))
        assert np.max(np.abs(Omega - want)) < 1e-14 * np.max(np.abs(want))


def test_invariant_defect_at_roundoff():
    proto = make_protocol(n_modes=16)
    times = np.linspace(0.0, proto.t_f, 201)
    u, v, report, _ = integrate(proto, proto.momenta(), times, 1e-10, 1e-12)
    assert report.max_invariant_defect <= 1e-12
    defect = np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0))
    assert defect == report.max_invariant_defect


@pytest.mark.parametrize("cd", [True, False])
def test_all_modes_run_matches_per_mode(cd):
    # each mode takes its own substeps, so neither the modes beside it nor
    # their number moves its result beyond roundoff
    proto = make_protocol("custom_table", "poly5", cd, n_modes=4)
    traj = dynamics.run_simulation(proto, record_points=21).trajectories
    for k, p in enumerate(traj.p):
        u, v, _, (_, v_frame) = integrate(proto, [p], traj.times, 1e-10, 1e-12)
        assert np.max(np.abs(traj.u[k] - u[0])) < 1e-13
        assert np.max(np.abs(traj.v[k] - v[0])) < 1e-13
        assert np.max(np.abs(traj.n_qp[k] - np.abs(v_frame[0]) ** 2)) < 1e-13
    # the first 4 modes of a 16-mode run, whose upper modes need up to 16
    # substeps where these need 2 to 8
    wide = make_protocol("custom_table", "poly5", cd, n_modes=16)
    first = dynamics.run_simulation(wide, record_points=21).trajectories
    for name in ("u", "v", "n_qp"):
        got, want = getattr(first, name)[:4], getattr(traj, name)
        assert np.max(np.abs(got - want)) < 1e-13, name


@pytest.mark.parametrize("cd", [True, False])
def test_steps_count_every_pass_of_every_mode(cd):
    # each mode runs its own ladder of levels, whatever the modes beside it
    # do, so a run takes the steps of its modes run alone
    proto = make_protocol("custom_table", "poly5", cd, n_modes=16)
    times = np.linspace(0.0, proto.t_f, 21)
    args = (times, 1e-10, 1e-12)
    alone = [integrate(proto, [p], *args)[2] for p in proto.momenta()]
    substeps = [r.substeps for r in alone]
    if cd:
        # each pair's generator is diagonal in its frame: every mode passes
        # at N = 1, after N = 1/2, over the 20 record intervals
        assert substeps == [1] * 16
        assert [r.steps for r in alone] == [20 * 3 // 2] * 16
    else:
        assert len(set(substeps)) > 1
    _, _, report, _ = integrate(proto, proto.momenta(), *args)
    assert report.steps == sum(r.steps for r in alone)
    assert report.substeps == max(substeps)
    worst = max(r.error_estimate for r in alone)
    assert report.error_estimate == pytest.approx(worst, rel=1e-3)


def ladder(proto, p, times, rtol, atol):
    """(levels, (u, v), estimate) of one mode from (1, 0) by the rule of
    integrate_modes, spelled out: the levels (steps per record interval) it
    runs, the (u, v) it keeps, from fixed_steps of the route the protocol
    takes, and the estimate it is accepted with.  Without CD a level is
    tested on the lab (u, v); with CD, on the phase route, on the phase
    integral phi of v_s, by the bounds B_u and B_v of the integrator's
    module docstring."""

    def state(t, n):
        y = integrator.fixed_steps(proto.grid, t, proto.grid([p], t), [1.0], [0.0], n)
        return np.array(y)[:, 0]

    if proto.cd_enabled:
        frame, y0 = integrator._start(proto.grid([p], times), [1.0], [0.0])
        c, s = frame[0, 0], np.abs(frame[1, 0])
        u, v = np.abs(y0[:, 0])

        def run(t, n):
            return integrator._phase(proto.grid, [p], t, n)[0]

        def test(prev, new, records):
            # |delta Phi| = p |phi_(N/2) - phi_N| / 63, and the frame (c, s)
            # and |u'_0|, |v'_0| bound the lab estimate and the lab state
            d = np.abs(prev - new[records]) * (p / 63.0)
            c_r, s_r = c[records], s[records]
            cu, sv, cv, su = c_r * u, s_r * v, c_r * v, s_r * u
            bound_u, bound_v = d * (cu + sv), d * (cv + su)
            passed = np.all(bound_u <= atol + rtol * (cu - sv))
            passed &= np.all(bound_v <= atol + rtol * np.abs(cv - su))
            return passed, max(np.max(bound_u), np.max(bound_v))
    else:
        run = state

        def test(prev, new, records):
            err = np.abs(prev - new[:, records]) / 63
            return np.all(err <= atol + rtol * np.abs(new[:, records])), np.max(err)

    if (len(times) - 1) % 2:
        levels, prev, y, records = [1, 2], run(times, 1), run(times, 2), slice(None)
    else:
        # one step per two record intervals, compared at the even records
        levels, prev, y = [0.5, 1], run(times[::2], 1), run(times, 1)
        records = slice(None, None, 2)
    while True:
        passed, estimate = test(prev, y, records)
        if passed:
            return levels, state(times, levels[-1]), estimate
        levels.append(2 * levels[-1])
        prev, y, records = y, run(times, levels[-1]), slice(None)


@pytest.mark.parametrize("points", [21, 20], ids=["even", "odd"])
@pytest.mark.parametrize("cd", [True, False], ids=["cd", "bare"])
def test_each_mode_follows_the_ladder(cd, points, monkeypatch):
    # an even interval count starts at N = 1/2, an odd one at N = 1, and
    # each pass doubles N; with CD every mode passes at its second level of
    # the phase route, whose passes sum the phase alone, without CD the
    # modes climb to different levels of Magnus steps
    proto = make_protocol("custom_table", "poly5", cd, n_modes=16)
    times = np.linspace(0.0, proto.t_f, points)
    modes = proto.momenta()[::3]
    want = [ladder(proto, p, times, 1e-10, 1e-12) for p in modes]
    if cd:
        first = [0.5, 1] if (points - 1) % 2 == 0 else [1, 2]
        assert all(levels == first for levels, _, _ in want)
    else:
        for levels, _, _ in want:
            assert all(b == 2 * a for a, b in zip(levels, levels[1:]))
        assert max(levels[-1] for levels, _, _ in want) >= 8
    # the passes of either route, (name, level): _phase(grid, momenta, t,
    # substeps) and _propagate(grid, momenta, t, y0, substeps, out)
    passes = []
    for name, at in (("_phase", 0), ("_propagate", 1)):

        def spy(grid, momenta, t, *args, name=name, at=at, real=getattr(integrator, name)):
            passes.append((name, args[at] * (len(t) - 1) / (len(times) - 1)))
            return real(grid, momenta, t, *args)

        monkeypatch.setattr(integrator, name, spy)
    route = "_phase" if cd else "_propagate"
    for p, (levels, y, estimate) in zip(modes, want):
        passes.clear()
        u, v, report, _ = integrate(proto, [p], times, 1e-10, 1e-12)
        assert passes == [(route, level) for level in levels]
        assert report.steps == (len(times) - 1) * sum(levels)
        assert report.substeps == levels[-1]
        assert report.error_estimate == estimate
        assert np.array_equal(u[0], y[0]) and np.array_equal(v[0], y[1])


@pytest.mark.parametrize("points", [21, 20], ids=["even", "odd"])
def test_frame_and_lab_state_come_from_one_pass(points):
    # modes of this CD-off ramp leave the ladder at different N, up to 16:
    # the n_qp and fidelity read from the frame state must be those of the
    # lab (u, v) kept from the same pass.  n_qp is compared on the scale of
    # its mode: near a zero of v' the rounding of v' (~ eps |u|) is all of it
    proto = make_protocol("custom_table", "poly5", False, n_modes=16)
    result = dynamics.run_simulation(proto, record_points=points)
    assert result.integration.substeps >= 8
    traj = result.trajectories
    c = proto.grid(traj.p, traj.times)
    for k in range(len(traj.p)):
        scale = np.max(traj.n_qp[k])
        for j in range(len(traj.times)):
            eta = bogoliubov_angle(c.omega[k, j], c.g[k, j])
            state = validate.state_map(traj, k, j)
            n_qp = abs(validate.quasiparticle_frame(state, eta).v) ** 2
            fidelity = su11.state_overlap(su11.squeeze_from_angle(eta), state)
            assert abs(traj.n_qp[k, j] - n_qp) <= 1e-12 * scale, (k, j)
            assert abs(traj.fidelity[k, j] - fidelity) <= 1e-12 * fidelity, (k, j)


def test_blocking_does_not_change_the_result(monkeypatch):
    # without CD, where these modes need 32 substeps, and with CD on the
    # phase route (2 substeps), whose phase sum runs on from block to block:
    # the lab (u, v) and the frame state alike.  Blocks are sized on the
    # rows a pass evaluates: the 5 modes, or the one row of these contact
    # couplings on the phase route
    for cd in (False, True):
        proto = make_protocol(cd=cd, n_modes=5)
        p = proto.momenta()
        rows = 1 if cd else len(p)
        ones = np.ones(len(p))
        times = np.linspace(0.0, proto.t_f, 7)
        whole = integrate(proto, p, times, 1e-10, 1e-12)
        # blocks of 2 steps: shorter than one record interval once N > 2;
        # blocks of 128 steps: 4 record intervals at N = 32, so the 6
        # intervals take one full and one partial block
        for block in (2, 128):
            monkeypatch.setattr(integrator, "BLOCK_POINTS", block * rows)
            split = integrate(proto, p, times, 1e-10, 1e-12)
            assert split[2].substeps == whole[2].substeps == (2 if cd else 32)
            for got, want in zip((*split[:2], *split[3]), (*whole[:2], *whole[3])):
                assert np.max(np.abs(got - want)) < 1e-13
        # at N = 24, blocks of 2, 8 and 128 steps end inside a record
        # interval, off the interval grid, and some hold no record
        monkeypatch.undo()
        args = (proto.grid, times, proto.grid(p, times), ones, 0 * ones, 24)
        whole = integrator.fixed_steps(*args)
        for block in (2, 8, 128):
            monkeypatch.setattr(integrator, "BLOCK_POINTS", block * rows)
            split = integrator.fixed_steps(*args)
            for got, want in zip(split, whole):
                assert np.max(np.abs(got - want)) < 1e-13
        monkeypatch.undo()
    # the chunks of the test, `_lab`, the phase route's forming of the
    # state and the defect, on 23 records: without CD the 16 modes of this
    # ramp leave the ladder at N = 2, 4, 8 and 16, so later passes write
    # the rows of the modes still on it in place, and with CD on the phase
    # rows are per mode.  Chunks of at most 48 and 80 points are 2 and 3
    # whole rows, which divide none of 15, 13 or 16 modes alike; of at most
    # 7 points and 1 point they are parts of one row, 7, 7, 7 and 2 records
    # long or one record, and some start on an odd record, where the first
    # test, at every other record, reads none
    for cd in (False, True):
        proto = make_protocol("custom_table", "poly5", cd, n_modes=16)
        p = proto.momenta()
        times = np.linspace(0.0, proto.t_f, 23)
        whole = integrate(proto, p, times, 1e-10, 1e-12)
        for points in (1, 7, 48, 80):
            monkeypatch.setattr(integrator, "BLOCK_POINTS", points)
            split = integrate(proto, p, times, 1e-10, 1e-12)
            assert split[2].substeps == whole[2].substeps == (1 if cd else 16)
            u, v = split[:2]
            defect = np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0))
            assert split[2].max_invariant_defect == defect > 0.0
            for got, want in zip((*split[:2], *split[3]), (*whole[:2], *whole[3])):
                assert np.max(np.abs(got - want)) < 1e-13
        monkeypatch.undo()


@pytest.mark.parametrize("length", [1, 5, 8])
def test_scan_matches_sequential_products(length):
    # random SU(1,1) elements: alpha = cosh(r) e^(i phi), beta = sinh(r) e^(i theta)
    r, phi, theta = np.random.default_rng(length).uniform(0.0, 2.0, (3, length, 4))
    alpha, beta = np.cosh(r) * np.exp(1j * phi), np.sinh(r) * np.exp(1j * theta)
    got = integrator._scan(alpha, beta)
    total = alpha[0], beta[0]
    for k in range(length):
        if k:
            total = integrator._product((alpha[k], beta[k]), total)
        for x, want in zip(got, total):
            assert np.max(np.abs(x[k] - want)) <= 1e-14 * np.max(np.abs(want))


def test_raises_at_step_cap(monkeypatch):
    # 2 record intervals at N = 1/2, 1, 2 and 4 substeps: 1, 2, 4 and 8
    # steps; doubling again would pass the cap
    monkeypatch.setattr(integrator, "MAX_STEPS", 15)
    proto = make_protocol(cd=False)
    times = np.linspace(0.0, proto.t_f, 3)
    with pytest.raises(IntegrationError, match="not converged at 4 substeps"):
        integrate(proto, proto.momenta(), times, 1e-14, 1e-16)


def test_phase_route_raises_at_step_cap(monkeypatch):
    # a CD run held to a tolerance below rounding: the phase route fails its
    # test at N = 1/2 and 1 like the Magnus route, and stops at the cap
    monkeypatch.setattr(integrator, "MAX_STEPS", 1)
    proto = make_protocol()
    times = np.linspace(0.0, proto.t_f, 21)
    message = "phase6 step doubling not converged at 1 substeps per record interval$"
    with pytest.raises(IntegrationError, match=message):
        integrate(proto, proto.momenta(), times, 1e-16, 1e-30)


def coarse_grid_protocol():
    """A stable contact ramp without CD whose 2-record grid overflows one
    and two steps per interval.  With CD on no protocol overflows: each
    step is then a rotation by the phase integral of epsilon."""
    return DriveProtocol(
        coupling=COUPLINGS["contact"],
        schedule=SCHEDULES["poly5"],
        t_f=40.0,
        L=40.0,
        n_modes=32,
        cd_enabled=False,
    )


def test_overflowing_coarse_steps_are_refined():
    proto = coarse_grid_protocol()
    p, ones = proto.momenta(), np.ones(proto.n_modes)
    times = np.linspace(0.0, proto.t_f, 2)
    c = proto.grid(p, times)
    # the case: one Magnus step per interval overflows, as do two
    for substeps in (1, 2):
        u, v = integrator.fixed_steps(proto.grid, times, c, ones, 0 * ones, substeps)
        assert not np.all(np.isfinite(u))
    tolerances = dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL
    u, v, report, _ = integrate(proto, p, times, *tolerances)
    fine = np.linspace(0.0, proto.t_f, 201)
    u_fine, v_fine, _, _ = integrate(proto, p, fine, *tolerances)
    assert np.all(np.isfinite(u)) and report.substeps > 2
    assert np.max(np.abs(u[:, -1] - u_fine[:, -1])) <= 1e-8
    assert np.max(np.abs(v[:, -1] - v_fine[:, -1])) <= 1e-8


def test_step_cap_message_names_a_non_finite_state(monkeypatch):
    # passes at 1 and 2 steps per interval, both non-finite; a third would
    # pass the cap
    monkeypatch.setattr(integrator, "MAX_STEPS", 3)
    proto = coarse_grid_protocol()
    times = np.linspace(0.0, proto.t_f, 2)
    message = r"not converged at 2 substeps .*: \(u, v\) non-finite"
    with pytest.raises(IntegrationError, match=message):
        integrate(proto, proto.momenta(), times, 1e-10, 1e-12)


STUB_FIELDS = ("omega_per_p", "g_per_p", "v_s", "chi", "chi_cd")
# a stable pair: v_s = sqrt(0.5^2 - 0.3^2), and chi = chi_cd
STUB_VALUES = (0.5, 0.3, 0.4, 0.1, 0.1)
# the fields the frame reads on the record grid, and those each route
# reads at the nodes of its steps
FRAME_FIELDS = ("omega_per_p", "g_per_p")
NODE_FIELDS = {True: ("v_s",), False: ("v_s", "chi", "chi_cd")}


def stub_coefficients(p, t, values):
    """A grid(p, t) result with CD applied, the momenta `p` as a column and
    the STUB_FIELDS set to `values`, one (len(p), len(t)) array each: chi
    is not the array chi_cd, so it takes Magnus steps."""
    full = np.broadcast_to(np.reshape(values, (-1, 1, 1)), (len(values), len(p), len(t)))
    fields = dict(zip(STUB_FIELDS, full.copy(), strict=True))
    return SimpleNamespace(p=np.reshape(p, (-1, 1)), cd_enabled=True, **fields)


def test_raises_on_non_finite_coefficients():
    calls = []

    def grid(p, t):
        calls.append(len(t))
        return stub_coefficients(p, t, [np.nan] * len(STUB_FIELDS))

    p, t = [1.0], [0.0, 1.0]
    with pytest.raises(IntegrationError, match="non-finite pair coefficients"):
        integrator.integrate_modes(grid, t, grid(p, t), [1.0], [0.0], 1e-10, 1e-12)
    # at once, on the record grid the caller evaluated, not after refining
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", range(len(STUB_FIELDS)))
def test_raises_on_one_non_finite_coefficient(which, bad):
    # one field non-finite at one node of the middle step of the first
    # pass: not an overflow to refine, an error at once.  That pass is the
    # second grid call, after the caller's on the record grid, whose middle
    # record spoils the frame first where the frame reads the field
    calls = []

    def grid(p, t):
        calls.append(len(t))
        coefficients = stub_coefficients(p, t, STUB_VALUES)
        getattr(coefficients, STUB_FIELDS[which])[:, len(t) // 2] = bad
        return coefficients

    p, t = [1.0, 2.0], [0.0, 1.0, 2.0]
    with pytest.raises(IntegrationError, match="non-finite pair coefficients"):
        integrator.integrate_modes(grid, t, grid(p, t), [1.0, 1.0], [0.0, 0.0], 1e-10, 1e-12)
    assert len(calls) == (1 if STUB_FIELDS[which] in FRAME_FIELDS else 2)


def integrate_with_a_bad_node(which, bad, phase):
    """The grid calls of an integration whose one field `which` is
    non-finite at one node of the first pass only (the middle node of its
    one step), not on the record grid the caller evaluated.  On the phase
    route chi is the array chi_cd itself."""
    calls = []

    def grid(p, t):
        calls.append(len(t))
        coefficients = stub_coefficients(p, t, STUB_VALUES)
        if phase:
            coefficients.chi = coefficients.chi_cd
        if len(calls) > 1:
            getattr(coefficients, STUB_FIELDS[which])[:, len(t) // 2] = bad
        return coefficients

    p, t = [1.0, 2.0], [0.0, 1.0, 2.0]
    args = (grid, t, grid(p, t), [1.0, 1.0], [0.0, 0.0], 1e-10, 1e-12)
    if STUB_FIELDS[which] in NODE_FIELDS[phase]:
        with pytest.raises(IntegrationError, match="non-finite pair coefficients"):
            integrator.integrate_modes(*args)
    else:
        # a field the route does not read at its nodes changes nothing
        report = integrator.integrate_modes(*args)[2]
        assert report.substeps == 1
        assert report.method == (integrator.PHASE if phase else integrator.MAGNUS)
    return calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", range(len(STUB_FIELDS)))
def test_phase_route_raises_on_one_non_finite_node(which, bad):
    # the phase route reads v_s alone at its nodes, and raises at once on
    # the second grid call, not after refining
    calls = integrate_with_a_bad_node(which, bad, phase=True)
    assert calls == ([3, 3] if STUB_FIELDS[which] == "v_s" else [3, 3, 6])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", range(len(STUB_FIELDS)))
def test_magnus_route_raises_on_one_non_finite_node(which, bad):
    # the Magnus route reads v_s, chi and chi_cd at its nodes
    calls = integrate_with_a_bad_node(which, bad, phase=False)
    assert calls == ([3, 3] if STUB_FIELDS[which] in NODE_FIELDS[False] else [3, 3, 6])


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
    # the grid the integrator reads against the one-point reads of the
    # DOP853 references and the Fock oracle
    proto = make_protocol(family, schedule, cd, n_modes=12)
    p = proto.momenta()
    t = np.linspace(0.0, proto.t_f, 17)
    c = proto.grid(p, t)
    for i, pi in enumerate(p):
        for j, tj in enumerate(t):
            ref = proto.pair_generator(pi, tj)
            for got, want in zip((c.omega, c.g, c.chi), (ref.omega, ref.g, ref.chi)):
                assert abs(got[i, j] - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_couplings_chain_rule(family, schedule):
    proto = make_protocol(family, schedule)
    h = 1e-6
    c = proto.grid(proto.momenta(), 0.37 * proto.t_f + np.array([-h, 0.0, h]))
    for x, dx in ((c.g2, c.dg2), (c.g4, c.dg4)):
        fd = (x[:, 2] - x[:, 0]) / (2 * h)
        assert np.max(np.abs(dx[:, 1] - fd)) < 1e-7


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_chi_matches_finite_difference_of_lnsqrtk(family, schedule):
    proto = make_protocol(family, schedule)
    h = 1e-6
    c = proto.grid(proto.momenta(), 0.41 * proto.t_f + np.array([-h, 0.0, h]))
    fd = (np.log(c.K[:, 2]) - np.log(c.K[:, 0])) / (4 * h)
    assert np.max(np.abs(c.chi_cd[:, 1] - fd)) < 1e-8


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("family", sorted(COUPLINGS))
def test_sound_velocity_rate_finite_difference(family, schedule):
    proto = make_protocol(family, schedule)
    h = 1e-6
    c = proto.grid(proto.momenta(), 0.6 * proto.t_f + np.array([-h, 0.0, h]))
    fd = (c.v_s[:, 2] - c.v_s[:, 0]) / (2 * h)
    assert np.max(np.abs(c.v_s_rate[:, 1] - fd)) < 1e-8
