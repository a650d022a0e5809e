"""Tests of the benchmark itself, on the tiny size of every workload.

Run: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_emits_every_metric(name, trace):
    result = run.run(name, seed=0, seconds=0, trace=bool(trace), tiny=True)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(units)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), key
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert not result["facts"]["backend"].startswith("unknown")
    json.dumps(result)


def command_outputs(name, tag):
    """(workload, output directory, reference) of one tiny command call."""
    workload = workloads.make(name, seed=4, tiny=True)
    cli = run.import_program()
    work = run.WORK / f"test-{tag}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.cfg"
    config.write_text(workload.config_text())
    assert run.timed_call(cli, workload.argv(config, work / "out"))["rc"] == 0
    return workload, work / "out", gate.reference(workload)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_gate_trips_on_corrupted_reference(name):
    workload, out, refs = command_outputs(name, "reference")
    assert gate.check(workload, out, refs)[0] == []
    shifted = [dataclasses.replace(r, n_bare=r.n_bare + 1e-6, n_qp=r.n_qp + 1e-6,
                                   fidelity=r.fidelity - 1e-6) for r in refs]
    assert gate.check(workload, out, shifted)[0]
    shutil.rmtree(out.parent)


def test_gate_trips_on_corrupted_output():
    workload, out, refs = command_outputs("table_records", "output")
    lines = (out / "modes.csv").read_text().splitlines()
    fields = lines[-1].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-3))  # top mode's final n_qp
    (out / "modes.csv").write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert gate.check(workload, out, refs)[0]
    shutil.rmtree(out.parent)


def test_backend_is_read_from_the_spans():
    tracer = tracing.Tracer()
    tracer.run = 0
    for name in ("backend.integrate", "backend.integrate", "backend.kernel"):
        with tracer.span(name):
            pass
    assert tracer.run == 0 and "1 of 2 modes" in tracing.backend_name(tracer, 0)
    with tracer.span("backend.kernel"):
        pass
    assert tracing.backend_name(tracer, 0) == "compiled kernel"
    assert tracing.backend_name(tracer, 1).startswith("unknown")


def test_calibrated_clock_samples_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Calibrated() as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.units) >= 4  # entry, exit and samples every 50 ms
    assert 0.25 < clock.wall < 1.0 and clock.speed > 0
    assert clock.seconds == pytest.approx(clock.speed * (clock.wall - sum(clock.units[1:-1])))


def test_workloads_follow_the_seed():
    for name in workloads.NAMES:
        assert workloads.make(name, 7) == workloads.make(name, 7)
        assert workloads.make(name, 7).config_text() != workloads.make(name, 8).config_text()


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref_simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
