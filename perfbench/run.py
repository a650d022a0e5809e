#!/usr/bin/env python3
"""End-to-end benchmark of the tll-cd-sim `simulate` and `sweep` commands.

Each call goes through `tllcd.cli.main` in this process, from a config file
to the files the command writes, and the benchmark's gate checks those
files.  Call and set-up times are speed-calibrated (see speed.py), so that
the host's changing speed does not show as a change of the program.  With
`--trace 0` it reports the end-to-end metrics of one workload,
with `--trace 1` the per-layer metrics from spans around each layer's public
calls.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Without `--workload` (or
with `--workload all`) every workload runs in its own process and a table
is printed instead.

Usage:
  python3 perfbench/run.py --workload ref_simulate --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --seconds 25            # all workloads, one table
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# One single-threaded process per workload: pin the BLAS/OpenMP pools
# before numpy is imported, here and in the set-up probes, which inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

END_TO_END = {"norm_call_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_out": "bytes",
    "protocol.validate_s": "s",
    "protocol.stability_s": "s",
    "protocol.coeff_eval_us": "us",
    "backend.integrate_s": "s",
    "backend.kernel_modes": "count",
    "dynamics.evolve_s": "s",
    "dynamics.observe_s": "s",
    "dynamics.aggregate_s": "s",
    "dynamics.records": "count",
    "dynamics.max_final_nqp": "quanta",
    "dynamics.max_invariant_defect": "1",
    "dynamics.max_uv_err": "1",
    "dynamics.max_abs_final_residual": "1/time",
    "su11.drift_warnings": "count",
    "trace.overhead_s": "s",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no tllcd sources to benchmark."""


def import_program():
    """tllcd.cli from the checkout's `src`, never an installed copy."""
    package = SRC / "tllcd"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no tllcd sources at {package}")
    sys.path.insert(0, str(SRC))
    import tllcd.cli

    if Path(tllcd.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported tllcd from {tllcd.cli.__file__}, not {package}")
    return tllcd.cli


def setup_probe(config, out_dir) -> tuple:
    """(calibrated, wall) seconds of one fresh process's set-up."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config), str(out_dir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    norm, wall = proc.stdout.split()[-2:]
    return float(norm), float(wall)


def call_cli(cli, argv):
    """Exit code of one command call; an exception counts as a failure."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return "exception"


def timed_call(cli, argv, tracer=None, run=None) -> dict:
    """One command call, traced when `tracer` is given; stdout is kept
    away from the benchmark's own output.  `wall` and `cpu` are the call's
    wall-clock and process CPU seconds; an untraced call also has `norm`,
    its speed-calibrated seconds, and `speed`."""
    sample = {"warnings": 0}
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            c0 = time.process_time()
            with speed.Calibrated() as clock:
                sample["rc"] = call_cli(cli, argv)
            sample["cpu"] = time.process_time() - c0
            sample.update(wall=clock.wall, norm=clock.seconds, speed=clock.speed)
        else:
            with warnings.catch_warnings(record=True) as caught, tracer.traced(run):
                warnings.simplefilter("always")
                t0, c0 = time.perf_counter(), time.process_time()
                with tracer.span("cli.main"):
                    sample["rc"] = call_cli(cli, argv)
                sample["wall"] = time.perf_counter() - t0
                sample["cpu"] = time.process_time() - c0
            sample["warnings"] = sum(issubclass(w.category, UserWarning) for w in caught)
    return sample


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine since boot (the
    `steal` field of /proc/stat); -1 where it cannot be read."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return -1.0


def digest(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def coeff_eval_us(workload, passes=3) -> float:
    """Mean time of one DriveProtocol.pair_generator call over the
    workload's (p, t) record grid, median of `passes` sweeps of the grid."""
    from tllcd.cli import parse_config

    grids = []
    for t_f in workload.tf_values:
        proto = parse_config(workload.config_text(t_f)).protocol()
        times = np.linspace(0.0, t_f, workload.param("record_points"))
        grids.append((proto.pair_generator, [(p, t) for p in workload.momenta() for t in times]))
    calls = sum(len(points) for _, points in grids)
    took = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for generator, points in grids:
            for p, t in points:
                generator(p, t)
        took.append(time.perf_counter() - t0)
    return statistics.median(took) / calls * 1e6


def uv_error(integrations, refs) -> float:
    """Largest |(u, v) - reference| of the final states of the checked
    modes, both phase-normalized; -1 when no integration was traced."""
    worst = -1.0
    for _, t_f, p, u, v in integrations:
        for ref in refs:
            if ref.t_f == t_f and math.isclose(ref.p, p, rel_tol=1e-12):
                phase = u[-1] / abs(u[-1])
                worst = max(worst, abs(u[-1] / phase - ref.u), abs(v[-1] / phase - ref.v))
    return float(worst)


def layer_metrics(tracer, run, sample, refs, span_cost) -> dict:
    total, own = tracer.layer_times(run)
    names = [rec["name"] for rec in tracer.spans if rec["run"] == run]
    mine = [x for x in tracer.integrations if x[0] == run]
    defect = max((float(np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0)))
                  for _, _, _, u, v in mine), default=0.0)
    return {
        "cli.parse_s": own["cli.parse"],
        "cli.write_s": own["cli.write"],
        "cli.bytes_out": sample["bytes_out"],
        "protocol.validate_s": total["protocol.validate"],
        "protocol.stability_s": total["protocol.stability"],
        "backend.integrate_s": total["backend.integrate"],
        "backend.kernel_modes": names.count("backend.kernel"),
        "dynamics.evolve_s": total["dynamics.evolve"],
        "dynamics.observe_s": own["dynamics.evolve"],
        "dynamics.aggregate_s": own["dynamics.simulate"] + own["dynamics.sweep"],
        "dynamics.records": sum(len(x[3]) for x in mine),
        "dynamics.max_invariant_defect": defect,
        "dynamics.max_uv_err": uv_error(mine, refs),
        "su11.drift_warnings": sample["warnings"],
        "trace.overhead_s": len(names) * span_cost,
    }


def run(name, seed, seconds, trace, tiny=False) -> dict:
    """Measure one workload; returns the result line plus run facts."""
    workload = workloads.make(name, seed, tiny)
    cli = import_program()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # setup_s is reported by untraced runs only
    probe_cfg = work / "setup.cfg"
    probe_cfg.write_text(workloads.WARMUP_CONFIG)
    setup = [] if trace else [setup_probe(probe_cfg, work / f"setup{i}")
                              for i in range(1 if tiny else SETUP_SAMPLES)]

    # Warm-up on the tiny size of the workload: it takes the same code
    # paths, and its spans show which integrator the dispatch runs.
    small = workloads.make(name, seed, tiny=True)
    warm_cfg = work / "warmup.cfg"
    warm_cfg.write_text(small.config_text())
    probe = tracing.Tracer()
    if timed_call(cli, small.argv(warm_cfg, work / "warmup"), probe, 0)["rc"]:
        raise RuntimeError("warm-up call failed")
    backend = tracing.backend_name(probe, 0)

    config = work / "run.cfg"
    config.write_text(workload.config_text())
    refs = gate.reference(workload)
    out = work / "out"
    argv = workload.argv(config, out)
    tracer = tracing.Tracer() if trace else None

    # Closed loop, one call at a time, at least two calls so that byte
    # identity is checked; a new call starts while the run would end at most
    # half a typical call past `seconds`.  In a traced run every call is
    # traced.
    samples, first, gate_summary, peak_rss = [], None, {}, None
    steal0, start = steal_seconds(), time.perf_counter()
    while len(samples) < 2 or (
            time.perf_counter() - start
            + statistics.median(s["wall"] for s in samples) / 2 < seconds):
        run_id = len(samples)
        shutil.rmtree(out, ignore_errors=True)
        sample = timed_call(cli, argv, tracer, run_id)
        if peak_rss is None:
            # read before the gate and the digests add memory of their own;
            # ru_maxrss is in KiB on Linux
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sample["failure"] = None
        if sample["rc"] != 0:
            sample["failure"] = f"exit {sample['rc']}"
        else:
            files = digest(out)
            sample["bytes_out"] = sum(p.stat().st_size for p in out.iterdir())
            if first is None:
                failures, gate_summary = gate.check(workload, out, refs)
                first = (files, "; ".join(failures) or None)
            sample["failure"] = first[1] if files == first[0] else (
                "outputs differ from the first call")
        samples.append(sample)

    steal = steal_seconds() - steal0 if steal0 >= 0 else -1.0
    failed = sum(s["failure"] is not None for s in samples)
    walls = [s["wall"] for s in samples]
    if trace:
        cost = tracing.span_cost()
        per_run = [layer_metrics(tracer, i, s, refs, cost)
                   for i, s in enumerate(samples) if "bytes_out" in s]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]} if per_run else {}
        metrics["protocol.coeff_eval_us"] = coeff_eval_us(workload)
        metrics["dynamics.max_final_nqp"] = gate_summary.get("max_final_nqp", -1.0)
        metrics["dynamics.max_abs_final_residual"] = gate_summary.get("max_abs_final_residual", -1.0)
        tracer.write(work / "spans.jsonl")
        units = PER_LAYER
    else:
        metrics = {
            "norm_call_s": statistics.median(s["norm"] for s in samples),
            "setup_s": statistics.median(norm for norm, _ in setup),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
    missing = [k for k in units if k not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    facts = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "command": argv[0], "backend": backend,
        "calls": len(samples), "walls_s": walls,
        "cpus_s": [s["cpu"] for s in samples],
        "norm_calls_s": [s.get("norm") for s in samples],
        "speeds": [s.get("speed") for s in samples], "steal_s": steal,
        "setup_samples": len(setup),
        "setup_norms_s": [norm for norm, _ in setup],
        "setup_walls_s": [wall for _, wall in setup], "nproc": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "threads": os.environ["OMP_NUM_THREADS"],
        "untraced_targets": [".".join(t) for t in (tracer or probe).missing],
        "failures": sorted({s["failure"] for s in samples if s["failure"]}),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (work / "result.json").write_text(json.dumps({"facts": facts, **result}, indent=1) + "\n")
    for stale in [out, work / "warmup", *(work / f"setup{i}" for i in range(len(setup)))]:
        shutil.rmtree(stale, ignore_errors=True)
    return {"facts": facts, **result}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report(result) -> str:
    facts, metrics = result["facts"], result["metrics"]
    head = (f"{facts['workload']} seed={facts['seed']} trace={facts['trace']} "
            f"backend: {facts['backend']}; error_rate {result['failed']}/"
            f"{result['attempted']} = {result['failed'] / result['attempted']:.3g}")
    lines = [head]
    for key, m in metrics.items():
        note = ""
        if key == "norm_call_s":
            note = (f"  (median of {facts['calls']} calls; median wall "
                    f"{statistics.median(facts['walls_s']):.6g} s)")
        elif key == "setup_s":
            note = f"  (median of {facts['setup_samples']} fresh processes)"
        lines.append(f"  {key:34s} {m['value']:.6g} {m['unit']}{note}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, status = [], 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    units = PER_LAYER if args.trace else END_TO_END
    print()
    print(f"{'metric':34s}" + "".join(f"{name:>16s}" for name, _ in rows) + "  unit")
    for key, unit in units.items():
        cells = "".join(f"{r['metrics'][key]['value']:16.6g}" for _, r in rows)
        print(f"{key:34s}{cells}  {unit}")
    cells = "".join(f"{r['failed'] / r['attempted']:16.6g}" for _, r in rows)
    print(f"{'error_rate':34s}{cells}  1")
    if any(r["failed"] for _, r in rows):
        status = status or 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("facts " + json.dumps(result["facts"]))
    print(report(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
