"""Correctness gate of the benchmark.

It reads only the files the command wrote (modes.csv, aggregate.csv,
manifest.txt or sweep.csv), so it does not depend on the program's internal
objects.  It checks them against two independent answers:

* the analytic answer of CD-on contact ramps: every pair ends in the
  instantaneous ground state, so the final quasiparticle occupation is 0,
  the fidelity 1, the residual energy 0 and n_bare = sinh^2(eta(t_f)) with
  tanh(2 eta) = -g/omega;
* the benchmark's own tight-tolerance DOP853 integration of
  `DriveProtocol.pair_generator` on the first, middle and top mode.

Everything is held to TOL, the agreement bound between the compiled and
the scipy integration backends (benchmarks/bench_kernel.py).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

TOL = 1e-7
REF_RTOL = 1e-12
REF_ATOL = 1e-14

MODES_HEADER = "t,p,n_bare,n_qp,fidelity,pair_energy,residual,epsilon_cd,chi"
AGGREGATE_HEADER = "t,total_residual,total_energy,v_s,K,chi,min_margin"
SWEEP_HEADER = "t_f,final_residual,final_fidelity,stability_pass"


@dataclass(frozen=True)
class RefMode:
    """Final state of one mode; (u, v) phase-normalized so that u > 0."""

    t_f: float
    mode: int  # 1-based mode number
    p: float
    u: complex
    v: complex
    n_bare: float
    n_qp: float
    fidelity: float


def observables(u: complex, v: complex, omega: float, g: float):
    """(n_bare, n_qp, fidelity) of the pair state annihilated by
    u b(p) + v b†(-p) (u real), measured against the ground state of the
    pair Hamiltonian with frequencies (omega, g)."""
    eta = -0.5 * math.atanh(g / omega)
    c, s = math.cosh(eta), math.sinh(eta)
    n_qp = abs(c * v + s * u) ** 2
    fidelity = min(1.0, 1.0 / abs(c * u + s * v))
    return abs(v) ** 2, n_qp, fidelity


def reference(workload) -> list:
    """RefMode for every final time of the workload and every check mode,
    integrated outside all timed regions."""
    from tllcd.cli import parse_config

    momenta = workload.momenta()
    refs = []
    for t_f in workload.tf_values:
        proto = parse_config(workload.config_text(t_f)).protocol()
        for k in workload.check_modes():
            p = momenta[k - 1]
            u, v = _integrate(proto.pair_generator, p, t_f)
            coeffs = proto.pair_generator(p, t_f)
            refs.append(RefMode(t_f, k, p, u, v, *observables(u, v, coeffs.omega, coeffs.g)))
    return refs


def _integrate(generator, p, t_f):
    """Pair equations i dc/dt = [H, c] from (u, v) = (1, 0):
    du/dt = i omega u - (i g + chi) v,  dv/dt = -i omega v + (i g - chi) u."""

    def rhs(t, y):
        c = generator(p, t)
        u = complex(y[0], y[1])
        v = complex(y[2], y[3])
        du = 1j * c.omega * u - (1j * c.g + c.chi) * v
        dv = -1j * c.omega * v + (1j * c.g - c.chi) * u
        return [du.real, du.imag, dv.real, dv.imag]

    sol = solve_ivp(rhs, (0.0, t_f), [1.0, 0.0, 0.0, 0.0], method="DOP853",
                    t_eval=[t_f], rtol=REF_RTOL, atol=REF_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed at p={p}: {sol.message}")
    u = complex(sol.y[0, -1], sol.y[1, -1])
    v = complex(sol.y[2, -1], sol.y[3, -1])
    phase = u / abs(u)
    return u / phase, v / phase


def analytic_n_bare(workload, p: float) -> float:
    """sinh^2(eta) of the final ground state of a contact ramp."""
    v_F = 1.0
    omega = p * (v_F + workload.param("g4_end") / (2 * math.pi))
    g = p * workload.param("g2_end") / (2 * math.pi)
    return math.sinh(-0.5 * math.atanh(g / omega)) ** 2


def check(workload, out_dir, refs) -> tuple:
    """(failures, summary) for one command's output directory.

    `failures` lists every violated check; `summary` holds the accuracy
    fields max_final_nqp and max_abs_final_residual read from the files."""
    out = Path(out_dir)
    if workload.command == "sweep":
        return _check_sweep(workload, out, refs)
    return _check_simulate(workload, out, refs)


def _table(path: Path, header: str):
    text = path.read_text()
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _check_simulate(workload, out: Path, refs):
    fail = []
    n, points, t_f = (workload.param("n_modes"), workload.param("record_points"),
                      workload.tf_values[0])
    try:
        modes = _table(out / "modes.csv", MODES_HEADER)
        agg = _table(out / "aggregate.csv", AGGREGATE_HEADER)
        manifest = (out / "manifest.txt").read_text().splitlines()
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], {}
    if "status = ok" not in manifest:
        fail.append("manifest does not say 'status = ok'")
    if modes.shape != (n * points, 9) or agg.shape != (points, 7):
        return fail + [f"shapes modes {modes.shape}, aggregate {agg.shape}; "
                       f"expected {(n * points, 9)}, {(points, 7)}"], {}
    if not (np.all(np.isfinite(modes)) and np.all(np.isfinite(agg))):
        return fail + ["non-finite value in modes.csv or aggregate.csv"], {}
    final = modes[points - 1 :: points]
    momenta = np.array(workload.momenta())
    if np.max(np.abs(final[:, 0] - t_f)) > 1e-12 * t_f:
        fail.append("last record of some mode is not at t_f")
    if np.max(np.abs(final[:, 1] - momenta) / momenta) > 1e-12:
        fail.append("mode momenta differ from 2 pi k / L")
    n_bare, n_qp, fid = final[:, 2], final[:, 3], final[:, 4]
    summary = {
        "max_final_nqp": float(np.max(n_qp)),
        "max_abs_final_residual": abs(float(agg[-1, 1])),
    }

    if workload.cd:
        if summary["max_final_nqp"] > TOL:
            fail.append(f"CD on: final n_qp {summary['max_final_nqp']:.3e} > {TOL}")
        if np.min(fid) < 1 - TOL:
            fail.append(f"CD on: final fidelity {np.min(fid):.15f} < 1 - {TOL}")
        if summary["max_abs_final_residual"] > TOL:
            fail.append(f"CD on: final total residual "
                        f"{summary['max_abs_final_residual']:.3e} > {TOL}")
        if workload.param("family") == "contact":
            exact = np.array([analytic_n_bare(workload, p) for p in momenta])
            err = float(np.max(np.abs(n_bare - exact)))
            if err > TOL:
                fail.append(f"CD on: final n_bare off the analytic value by {err:.3e}")
    elif summary["max_final_nqp"] <= TOL:
        fail.append("CD off: no diabatic excitation in the final state")

    for ref in refs:
        row = final[ref.mode - 1]
        for label, got, want in (("n_bare", row[2], ref.n_bare),
                                 ("n_qp", row[3], ref.n_qp),
                                 ("fidelity", row[4], ref.fidelity)):
            if abs(got - want) > TOL:
                fail.append(f"mode {ref.mode}: {label} {got!r} vs reference {want!r}")
    return fail, summary


def _check_sweep(workload, out: Path, refs):
    fail = []
    path = out / "sweep.csv"
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"unreadable output: {exc}"], {}
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"sweep.csv: bad header {lines[:1]!r}"], {}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(workload.tf_values) or any(len(r) != 4 for r in rows):
        return [f"sweep.csv: expected {len(workload.tf_values)} rows of 4 fields"], {}
    tf = [float(r[0]) for r in rows]
    residual = [float(r[1]) for r in rows]
    fidelity = [float(r[2]) for r in rows]
    if tf != list(workload.tf_values):
        fail.append(f"sweep.csv: t_f column {tf} != {list(workload.tf_values)}")
    if any(r[3] != "True" for r in rows):
        fail.append("sweep.csv: a t_f inside the stability window is flagged unstable")
    if not all(math.isfinite(x) for x in residual + fidelity):
        return fail + ["sweep.csv: non-finite result"], {}
    # fidelity = 1/sqrt(1 + n_qp) for a pair squeezed vacuum
    summary = {
        "max_final_nqp": max(1.0 / f**2 - 1.0 for f in fidelity),
        "max_abs_final_residual": max(abs(x) for x in residual),
    }
    if workload.cd:
        if summary["max_abs_final_residual"] > TOL:
            fail.append(f"CD on: final residual "
                        f"{summary['max_abs_final_residual']:.3e} > {TOL}")
        if min(fidelity) < 1 - TOL:
            fail.append(f"CD on: final fidelity {min(fidelity)!r} < 1 - {TOL}")
    # final_fidelity is the minimum over all modes, so it cannot exceed the
    # reference fidelity of any checked mode
    for t_f, fid in zip(workload.tf_values, fidelity):
        ref_min = min((r.fidelity for r in refs if r.t_f == t_f), default=math.inf)
        if fid > ref_min + TOL:
            fail.append(f"t_f={t_f}: fidelity {fid!r} above reference minimum {ref_min!r}")
    return fail, summary
