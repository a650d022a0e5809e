"""End-to-end acceptance gate.

Each test prints one `[PASS] criterion N` line on success; a failing
criterion fails its test and prints `[FAIL]` with the offending numbers.
"""

import math
import time

import numpy as np
import pytest

from tllcd import dynamics, fock, validate
from tllcd.cli import main
from tllcd.closed_forms import (
    bogoliubov_angle,
    cd_amplitude_lorentzian,
    controlled_coefficients,
    delta_coefficients,
    experimental_sound_velocity,
    gauge_field_amplitude,
    mass_frequency,
)
from tllcd.errors import CDInstabilityError
from tllcd.model import (
    CouplingFamily,
    CouplingSpec,
    cd_amplitude_contact,
    luttinger_params,
    pair_frequencies,
    spectrum_with_cd,
)
from tllcd.protocol import DriveProtocol, Schedule, ScheduleKind, closed_form_bound


def report(num, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def figure_protocol(n_modes=64, cd=True):
    proto = DriveProtocol(
        coupling=CouplingSpec(
            family=CouplingFamily.CONTACT,
            g2_start=0.0,
            g2_end=1.0,
            g4_start=0.0,
            g4_end=0.5,
        ),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=1.0,
        L=100.0,
        n_modes=n_modes,
        cd_enabled=cd,
        v_F=1.0,
    )
    return proto.with_tf(2.0 * closed_form_bound(proto))


@pytest.fixture(scope="module")
def figure_run():
    proto = figure_protocol()
    start = time.perf_counter()
    result = dynamics.run_simulation(proto)
    elapsed = time.perf_counter() - start
    return proto, result, elapsed


def test_criterion_1_transitionless(figure_run):
    proto, result, elapsed = figure_run
    worst_fid = np.min(result.trajectories.fidelity)
    worst_nqp = np.max(result.trajectories.n_qp[:, -1])
    ok = worst_fid >= 1 - 1e-8 and worst_nqp <= 1e-8 and elapsed < 10.0
    report(
        1,
        ok,
        f"min fidelity {worst_fid:.12f}, max final n_qp {worst_nqp:.3e}, "
        f"runtime {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_2_mean_energy_scaling(figure_run):
    proto, result, _ = figure_run
    dev = validate.mean_energy_scaling_check(result.trajectories, proto)
    report(2, dev < 1e-8, f"max relative deviation {dev:.3e} (< 1e-8)")


def test_criterion_3_endpoint_parameters():
    lp = luttinger_params(1.0, 0.5, 1.0)
    ok = abs(lp.K - 0.8620) < 1e-4 and abs(lp.v_s - 1.0678) < 1e-4
    report(3, ok, f"K(t_f) = {lp.K:.6f}, v_s(t_f) = {lp.v_s:.6f}")


def test_criterion_4_stability_bound(tmp_path, capsys):
    cfg = tmp_path / "stab.cfg"
    cfg.write_text("L = 50\nunits = experimental\nsound_velocity = 2.04\n")
    rc = main(["stability", "--config", str(cfg)])
    out = capsys.readouterr().out
    t_min = float(out.split("t_min = ")[1].split(" ")[0])
    t_upper = float(out.split("t_upper = ")[1].split(" ")[0])
    v_s = experimental_sound_velocity(5.2e-9, 1.44e-25, 2 * math.pi * 1400.0, 70e6)
    ok = (
        rc == 0
        and abs(t_min - 3.90) <= 0.01
        and abs(t_upper - 39.0) <= 0.5
        and abs(v_s - 2.04) <= 0.02
    )
    report(
        4,
        ok,
        f"t_min = {t_min:.3f} ms, window upper = {t_upper:.3f} ms, "
        f"v_s(gas) = {v_s:.4f} um/ms",
    )


def test_criterion_5_cd_spectrum():
    proto = figure_protocol(n_modes=1)
    p = proto.momenta()[0]
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        t = frac * proto.t_f
        coeffs = proto.pair_generator(p, t)
        eps = spectrum_with_cd(proto.grid(p, t).v_s[0, 0], p, coeffs.chi)
        ev = np.linalg.eigvalsh(fock.pair_hamiltonian_matrix(coeffs, 200))
        worst = max(worst, abs(ev[0] - eps), abs(0.5 * (ev[1] - ev[0]) - eps))
    # the error must trigger exactly at v_s p <= |chi|
    vp = 2.0 * 1.0
    triggered_at = triggered_above = False
    try:
        spectrum_with_cd(2.0, 1.0, vp)
    except CDInstabilityError:
        triggered_at = True
    try:
        spectrum_with_cd(2.0, 1.0, -(vp + 1e-9))
    except CDInstabilityError:
        triggered_above = True
    below_ok = spectrum_with_cd(2.0, 1.0, vp * (1 - 1e-9)) > 0
    ok = worst < 1e-6 and triggered_at and triggered_above and below_ok
    report(
        5,
        ok,
        f"max |eigen - closed form| {worst:.3e} (< 1e-6), "
        f"instability trigger exact: {triggered_at and triggered_above and below_ok}",
    )


def test_criterion_6_oracle_equivalence():
    proto = figure_protocol(n_modes=1)
    start = time.perf_counter()
    worst = max(validate.fock_vs_run(proto.with_cd(cd), 21, 120)[0] for cd in (True, False))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(6, ok, f"1 - min overlap {worst:.3e} (<= 1e-6), runtime {elapsed:.2f} s")


def test_criterion_7_sudden_quench():
    worst = 0.0
    for ratio in (0.2, 0.5, 0.8):
        g2_end = ratio * 2.0 * math.pi  # g/omega = g2/(2 pi v_F) with g4 = 0
        proto = DriveProtocol(
            coupling=CouplingSpec(family=CouplingFamily.CONTACT, g2_end=g2_end),
            schedule=Schedule(ScheduleKind.POLY5),
            t_f=1e-4,
            L=20.0,
            n_modes=1,
            cd_enabled=False,
        )
        p = proto.momenta()[0]
        traj = dynamics.evolve_pair(p, proto, record_points=11)
        c = proto.pair_generator(p, proto.t_f)
        expect = math.sinh(bogoliubov_angle(c.omega, c.g)) ** 2
        worst = max(worst, abs(traj.n_qp[0, -1] - expect))
    report(7, worst < 1e-6, f"max |n_qp - sinh^2(eta_f)| = {worst:.3e} (< 1e-6)")


def test_criterion_8_adiabatic_convergence():
    proto = figure_protocol(n_modes=1, cd=False)
    p = proto.momenta()[0]
    res = []
    for t_f in (proto.t_f, 10 * proto.t_f):
        traj = dynamics.evolve_pair(p, proto.with_tf(t_f), record_points=21)
        res.append(traj.residual[0, -1])
    factor = res[0] / res[1]
    report(
        8,
        factor >= 10.0,
        f"residual {res[0]:.3e} -> {res[1]:.3e}, improvement {factor:.1f}x (>= 10x)",
    )


def test_criterion_9_identity_suite():
    rng = np.random.default_rng(20260823)
    n_samples = 1000
    worst = {}

    # (a) controlled-Hamiltonian coefficients reduce to the bare pair
    #     frequencies
    err = 0.0
    for _ in range(n_samples):
        v_F = rng.uniform(0.5, 2.0)
        g4 = rng.uniform(-0.5, 3.0)
        g2 = rng.uniform(-0.9, 0.9) * (2 * math.pi * v_F + g4)
        p = rng.uniform(0.01, 5.0)
        lp = luttinger_params(g2, g4, v_F)
        cc = controlled_coefficients(p, lp.K, lp.v_s, 0.0, v_F)
        omega, g = pair_frequencies(p, g2, g4, v_F)
        err = max(err, abs(cc.omega_cd - omega) / omega, abs(cc.g_cd - g) / omega)
    worst["coeff"] = err
    ok_a = err < 1e-10

    # (b) chi vs central finite difference of ln sqrt(K)
    err = 0.0
    h = 1e-6
    for _ in range(n_samples):
        g4 = rng.uniform(-0.5, 2.0)
        g2 = rng.uniform(-0.8, 0.8) * (2 * math.pi + g4)
        dg2, dg4 = rng.uniform(-2, 2, size=2)
        chi = cd_amplitude_contact(g2, g4, dg2, dg4, 1.0)
        fd = (
            math.log(luttinger_params(g2 + h * dg2, g4 + h * dg4, 1.0).K)
            - math.log(luttinger_params(g2 - h * dg2, g4 - h * dg4, 1.0).K)
        ) / (4 * h)
        err = max(err, abs(chi - fd))
    worst["chi-fd"] = err
    ok_b = err < 1e-5

    # (c) oscillator-mapping identity:
    #     chi = -(1/2)(Omegadot/Omega + Mdot/M), via finite differences
    proto = figure_protocol(n_modes=1)
    p = proto.momenta()[0]
    err = 0.0
    for _ in range(n_samples):
        t = rng.uniform(0.05, 0.95) * proto.t_f
        c = proto.grid(p, [t - h, t, t + h])
        (Mm, Om), (M0, O0), (Mp, Op) = (
            mass_frequency(p, c.K[0, k], c.v_s[0, k], proto.v_F) for k in range(3)
        )
        fd = -0.5 * ((Op - Om) / (2 * h) / O0 + (Mp - Mm) / (2 * h) / M0)
        err = max(err, abs(c.chi[0, 1] - fd))
    worst["osc-fd"] = err
    ok_c = err < 1e-5

    # (d) Lorentzian CD amplitude reduces to the contact one as R0 -> 0
    err = 0.0
    for _ in range(n_samples):
        lam = rng.uniform(-0.5, 2.0)
        dlam = rng.uniform(-2.0, 2.0)
        p = rng.uniform(0.01, 5.0)
        lor = cd_amplitude_lorentzian(lam, dlam, 0.0, p, 1.0)
        con = cd_amplitude_contact(lam, lam, dlam, dlam, 1.0)
        err = max(err, abs(lor - con))
    worst["r0-limit"] = err
    ok_d = err < 1e-12

    # (e) Delta2 <-> nu consistency: Delta2 = -2 pi v_F (pi v_F + lambda) L^2 nu
    err = 0.0
    for _ in range(n_samples):
        v_F = rng.uniform(0.5, 2.0)
        lam = rng.uniform(-0.5 * v_F, 2.0)
        dlam = rng.uniform(-2.0, 2.0)
        R0 = rng.uniform(0.01, 1.0)
        L = rng.uniform(10.0, 200.0)
        _, d2 = delta_coefficients(lam, dlam, R0, v_F)
        nu = gauge_field_amplitude(lam, dlam, R0, v_F, L)
        rel = abs(d2 + 2 * math.pi * v_F * (math.pi * v_F + lam) * L * L * nu)
        err = max(err, rel / max(abs(d2), 1e-30))
    worst["delta2-nu"] = err
    ok_e = err < 1e-10

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    report(
        9,
        ok,
        ", ".join(f"{k} max err {v:.2e}" for k, v in worst.items())
        + f" ({n_samples} samples each)",
    )
