"""Configuration parsing, run orchestration, result serialization and plot
emission for the tll-cd-sim command.

Config files are flat ``key = value`` text with '#' comments; unknown keys
are rejected.  All outputs (CSV, manifest) are byte-stable for identical
inputs.  Exit codes: 0 ok, 2 config, 3 instability, 4 integration,
5 validation.  `closed_forms` gives the `sound_velocity` of a 1D gas.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, _fmt17, dynamics
from .errors import (
    CDInstabilityError,
    ConfigError,
    ContractError,
    IntegrationError,
    LuttingerInstabilityError,
)
from .model import CouplingFamily, CouplingSpec
from .protocol import DriveProtocol, Schedule, ScheduleKind, stability_margin

EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_INTEGRATION = 4
EXIT_VALIDATION = 5

# exit code and stderr label of each failure class: an exception takes the
# first row naming one of its classes (the instabilities are ContractErrors)
FAILURES = (
    ((LuttingerInstabilityError, CDInstabilityError), EXIT_INSTABILITY, "instability"),
    ((ConfigError, ContractError), EXIT_CONFIG, "config error"),
    ((IntegrationError,), EXIT_INTEGRATION, "integration error"),
)
FAILURE_CLASSES = tuple(cls for classes, _, _ in FAILURES for cls in classes)

MODES_HEADER = "t,p,n_bare,n_qp,fidelity,pair_energy,residual,epsilon_cd,chi"
AGGREGATE_HEADER = "t,total_residual,total_energy,v_s,K,chi,min_margin"
# CSV rows formatted and written at a time: bounds the memory the text takes
CSV_BLOCK_ROWS = 2048

_POSITIVE_KEYS = ("L", "v_F", "rtol", "atol")


@dataclass
class RunConfig:
    """Every config key with its default; parse_config converts a value with
    the type of its default."""

    family: str = "contact"
    g2_start: float = 0.0
    g2_end: float = 0.0
    g4_start: float = 0.0
    g4_end: float = 0.0
    R0: float = 0.0
    table: str = ""
    schedule: str = "poly5"
    t_f: float = 0.0
    L: float = 100.0
    n_modes: int = 128
    cd: str = "on"
    v_F: float = 1.0
    record_points: int = dynamics.DEFAULT_RECORD_POINTS
    rtol: float = dynamics.DEFAULT_RTOL
    atol: float = dynamics.DEFAULT_ATOL
    units: str = "natural"
    emit_plots: str = "false"
    sound_velocity: float = 0.0
    tf_list: str = ""

    def coupling(self) -> CouplingSpec:
        table = None
        if self.table:
            rows = []
            for chunk in self.table.split(";"):
                parts = chunk.split(":")
                if len(parts) != 3:
                    raise ConfigError(f"bad table row '{chunk}' (want p:g2:g4)")
                rows.append(tuple(_finite(x, "table entry") for x in parts))
            table = tuple(rows)
        return CouplingSpec(
            family=CouplingFamily(self.family),
            g2_start=self.g2_start,
            g2_end=self.g2_end,
            g4_start=self.g4_start,
            g4_end=self.g4_end,
            R0=self.R0,
            table=table,
        )

    def protocol(self) -> DriveProtocol:
        if self.t_f <= 0:
            raise ConfigError("t_f must be positive for this command")
        return DriveProtocol(
            coupling=self.coupling(),
            schedule=Schedule(kind=ScheduleKind(self.schedule)),
            t_f=self.t_f,
            L=self.L,
            n_modes=self.n_modes,
            cd_enabled=self.cd == "on",
            v_F=self.v_F,
        )

    def tf_values(self):
        return parse_tf_list(self.tf_list)


def parse_tf_list(text: str) -> list:
    """Comma-separated final times; each must be finite and positive."""
    if not text:
        return []
    values = [_finite(x, "tf_list entry") for x in text.split(",")]
    if any(t <= 0 for t in values):
        raise ConfigError(f"tf_list entries must be positive, got '{text}'")
    return values


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} '{text.strip()}': {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got '{text.strip()}'")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key=value config; defaults filled in."""
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw}'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = types[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc

    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    for key in _POSITIVE_KEYS:
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive, got {getattr(cfg, key)}")
    if cfg.n_modes < 1 or cfg.record_points < 2:
        raise ConfigError("n_modes must be >= 1 and record_points >= 2")
    cfg.tf_values()  # raises ConfigError on a bad entry
    if cfg.family not in {f.value for f in CouplingFamily}:
        raise ConfigError(f"unknown coupling family '{cfg.family}'")
    if cfg.schedule not in {k.value for k in ScheduleKind if k != ScheduleKind.CUSTOM_SAMPLES}:
        raise ConfigError(f"unknown schedule '{cfg.schedule}'")
    if cfg.cd not in ("on", "off"):
        raise ConfigError("cd must be 'on' or 'off'")
    if cfg.units not in ("natural", "experimental"):
        raise ConfigError("units must be 'natural' or 'experimental'")
    if cfg.emit_plots not in ("true", "false"):
        raise ConfigError("emit_plots must be 'true' or 'false'")
    cfg.coupling()  # raises ConfigError on a bad table row


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_fmt(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_outputs(result, cfg: RunConfig, out_dir) -> dict:
    """Write per-mode CSV, aggregate CSV and the manifest; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "modes": out / "modes.csv",
        "aggregate": out / "aggregate.csv",
        "manifest": out / "manifest.txt",
    }

    # the other columns are fields of the same name
    traj = result.trajectories
    modes = [traj.times, traj.p[:, None]]
    modes += [getattr(traj, name) for name in MODES_HEADER.split(",")[2:]]
    aggregate = [traj.times]
    aggregate += [getattr(result, name) for name in AGGREGATE_HEADER.split(",")[1:-1]]
    aggregate.append(result.stability.margin)
    _write_csv(paths["modes"], MODES_HEADER, modes)
    _write_csv(paths["aggregate"], AGGREGATE_HEADER, aggregate)
    write_manifest(paths["manifest"], cfg, result)
    return paths


def _write_csv(path, header: str, columns) -> None:
    """One CSV column per array.  The arrays broadcast against each other;
    rows run in C order of the broadcast shape (mode-major for (mode, time)).
    The bytes are those that np.savetxt(fmt='%.17g') writes of the broadcast
    table.

    The text is computed in numpy by `_fmt17.words`, exactly: each value's
    17 digits come from a double-double product of |x| and a tabulated
    10^(16 - X), whose error (below 5e-15 in units of the last digit) decides
    the rounding wherever the scaled value is more than 1e-9 from a tie.
    Python's '%.17g' formats the rest: values within 1e-9 of a tie or with
    an ambiguous decade, nan, +-inf and |x| outside [1e-280, 1e280).

    The table is written a block of CSV_BLOCK_ROWS rows at a time, so its
    text is never held whole.  A block is (rows, columns, CELL_WORDS) int64:
    each cell's NUL-padded words, with its ',' or '\n' in the free top byte
    of the last word, so that deleting the NUL bytes leaves the rows.  A
    column with fewer entries of its own than the table has rows (a shorter
    array, a 0-d value, or a view with stride 0 on the axes it repeats on)
    has each entry formatted once and its words taken into every block.  The
    other columns are gathered row-major, block by block, and formatted in
    one call; a value whose bits equal those of the value one row above it
    in the same block is not formatted again but takes that row's words."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n_rows = math.prod(shape)
    separator = np.full(len(columns), ord(",") << 56, np.int64)
    separator[-1] = ord("\n") << 56
    full, sources, repeated = [], [], []
    for j, column in enumerate(columns):
        own = column[tuple(slice(None) if s else slice(1) for s in column.strides)]
        if own.size < n_rows:
            text = _fmt17.words(own.ravel())
            text[3] |= separator[j]
            index = np.arange(own.size).reshape(own.shape)
            repeated.append((j, text.T.copy(), np.broadcast_to(index, shape).flat))
        else:
            # its C order is the table's; a view where it is contiguous
            full.append(j)
            sources.append(column.reshape(-1) if column.flags.c_contiguous else column.flat)
    full_separator = separator[full]
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            block = np.empty((stop - start, len(columns), _fmt17.CELL_WORDS), "<i8")
            if full:
                values = np.empty((stop - start, len(full)))
                for i, source in enumerate(sources):
                    values[:, i] = source[start:stop]
                text = _block_words(values)
                text[3] |= full_separator
                block[:, full] = text.transpose(1, 2, 0)
            for j, text, index in repeated:
                block[:, j] = text.take(index[start:stop], axis=0)
            f.write(block.tobytes().translate(None, b"\0"))


def _block_words(values) -> np.ndarray:
    """(CELL_WORDS, rows, columns) words of the text of each value of a
    (rows, columns) block.  Runs of equal bits down a column (so -0.0 and
    0.0 differ, and a nan equals a nan of its own bits) are formatted once,
    at their first row."""
    bits = values.view(np.int64)
    starts = np.empty(values.shape, bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    if starts.all():
        return _fmt17.words(values.ravel()).reshape(-1, *values.shape)
    # column after column, each cell's run start is the last start up to it
    starts = starts.T
    run = np.cumsum(starts.ravel()) - 1
    text = _fmt17.words(values.T[starts]).take(run, axis=1)
    return text.reshape(-1, *starts.shape).transpose(0, 2, 1)


def write_manifest(path, cfg: RunConfig, result, failure=None) -> None:
    """Key-value manifest, written even on failure, with the exception that
    caused it.  The stability lines come from the result, else from the
    report the failure carries; the manifest never computes one.  A failure
    without a report (a refusal by DriveProtocol.validate, before the
    gate's report exists) is written as `stability.error` as it stands.

    Wall time is deliberately not recorded: output files are byte-stable.
    """
    lines = [f"version = {__version__}", f"status = {'failed' if failure else 'ok'}"]
    if failure:
        lines.append(f"failure = {failure}")
    lines += ["config." + line for line in serialize_config(cfg).splitlines()]
    if cfg.t_f > 0:
        report = result.stability if result else failure.report
        if report is None:
            lines.append(f"stability.error = {failure}")
        else:
            lines.append(f"stability.margin = {_fmt(report.margin)}")
            lines.append(f"stability.argmin_p = {_fmt(report.argmin_p)}")
            lines.append(f"stability.argmin_t = {_fmt(report.argmin_t)}")
            lines.append(f"stability.pass = {report.passed}")
            if report.bound_tf is not None:
                lines.append(f"stability.t_min = {_fmt(report.bound_tf)}")
            lines.append(f"stability.t_adiabatic = {_fmt(report.t_adiabatic)}")
    if result is not None:
        facts = result.integration
        lines.append(f"integrator = {facts.method}")
        lines.append(f"integrator.substeps = {facts.substeps}")
        lines.append(f"integrator.steps = {facts.steps}")
        lines.append(f"integrator.error_estimate = {_fmt(facts.error_estimate)}")
        lines.append(
            f"integrator.max_invariant_defect = {_fmt(facts.max_invariant_defect)}"
        )
    if cfg.units == "experimental":
        lines.append("units.length = um")
        lines.append("units.time = ms")
        lines.append("units.velocity = um/ms")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """cfg with the command-line overrides, validated again if any."""
    overrides = {
        key: getattr(args, flag, None)
        for key, flag in (("cd", "cd"), ("t_f", "tf"), ("n_modes", "modes"))
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
        _validate_config(cfg)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    if cfg.emit_plots == "true":
        _pyplot()  # a missing matplotlib is a config error: before any output
    out_dir = Path(args.out or "tllcd-out")
    try:
        result = dynamics.run_simulation(
            cfg.protocol(),
            rtol=cfg.rtol,
            atol=cfg.atol,
            record_points=cfg.record_points,
        )
    except (ContractError, IntegrationError) as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_manifest(out_dir / "manifest.txt", cfg, None, failure=exc)
        raise
    paths = write_outputs(result, cfg, out_dir)
    if cfg.emit_plots == "true":
        cmd_plot(argparse.Namespace(out=str(out_dir)))
    print(f"wrote {paths['modes']}, {paths['aggregate']}, {paths['manifest']}")
    return 0


def cmd_stability(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    if cfg.sound_velocity <= 0 and cfg.t_f <= 0:
        raise ConfigError("stability needs either sound_velocity or t_f")
    # the report before any line, so that a refused run prints nothing
    report = stability_margin(cfg.protocol()) if cfg.t_f > 0 else None
    unit = " ms" if cfg.units == "experimental" else ""
    if cfg.sound_velocity > 0:
        # dimensional estimate |v_sdot/v_s^2| ~ 1/(t_f v_s)
        t_min = cfg.L / (2 * math.pi * cfg.sound_velocity)
        print(f"t_min = {t_min:.3f}{unit}")
        print(f"t_upper = {10 * t_min:.3f}{unit}")
    if report is not None:
        print(f"margin = {report.margin:.6g}")
        print(f"argmin_p = {report.argmin_p:.6g}")
        print(f"argmin_t = {report.argmin_t:.6g}{unit}")
        print(f"pass = {report.passed}")
        if report.bound_tf is not None:
            print(f"t_min_closed_form = {report.bound_tf:.6g}{unit}")
        print(f"t_adiabatic = {report.t_adiabatic:.6g}{unit}")
        print(f"max_adiabaticity = {report.max_adiabaticity:.6g}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    tf_values = cfg.tf_values()
    if args.tf_list:
        tf_values = parse_tf_list(args.tf_list)
    if not tf_values:
        raise ConfigError("sweep needs tf_list in config or --tf-list")
    if cfg.t_f <= 0:
        cfg.t_f = tf_values[0]
    rows = dynamics.sweep_tf(
        cfg.protocol(),
        tf_values,
        rtol=cfg.rtol,
        atol=cfg.atol,
        record_points=cfg.record_points,
    )
    out = Path(args.out or "tllcd-out")
    out.mkdir(parents=True, exist_ok=True)
    lines = ["t_f,final_residual,final_fidelity,stability_pass"]
    for row in rows:
        lines.append(
            f"{_fmt(row.t_f)},{_fmt(row.final_residual)},"
            f"{_fmt(row.final_fidelity)},{row.stability_pass}"
        )
        print(lines[-1])
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    # as `simulate` at each t_f exits: highest code first, then in row order
    failed = [(*failure_exit(row.failure), row) for row in rows if row.failure is not None]
    failed.sort(key=lambda f: f[0], reverse=True)
    for _, label, row in failed:
        print(f"{label} at t_f = {_fmt(row.t_f)}: {row.failure}", file=sys.stderr)
    return failed[0][0] if failed else 0


def cmd_validate(args) -> int:
    from .validate import run_validation_suite

    failures = run_validation_suite()
    if failures:
        print(f"{failures} validation check(s) failed")
        return EXIT_VALIDATION
    print("all validation checks passed")
    return 0


def _pyplot():
    """matplotlib.pyplot on the SVG backend; ConfigError without matplotlib."""
    try:
        import matplotlib

        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError("plotting requires matplotlib") from exc
    return plt


def cmd_plot(args) -> int:
    plt = _pyplot()
    out = Path(args.out or "tllcd-out")
    agg_path = out / "aggregate.csv"
    if agg_path.exists():
        data = np.genfromtxt(agg_path, delimiter=",", names=True)
        fig, axes = plt.subplots(2, 1, figsize=(6, 6), sharex=True)
        axes[0].plot(data["t"], data["K"], label="K(t)")
        axes[0].plot(data["t"], data["v_s"], label="v_s(t)")
        axes[0].legend()
        axes[1].plot(data["t"], data["chi"], label="chi(t)")
        axes[1].set_xlabel("t")
        axes[1].legend()
        fig.savefig(out / "parameters.svg")
        plt.close(fig)

        fig, ax = plt.subplots(figsize=(6, 4))
        ax.plot(data["t"], data["total_residual"])
        ax.set_xlabel("t")
        ax.set_ylabel("total residual energy")
        fig.savefig(out / "residual.svg")
        plt.close(fig)

    sweep_path = out / "sweep.csv"
    if sweep_path.exists():
        rows = np.genfromtxt(sweep_path, delimiter=",", names=True, dtype=None, encoding="utf-8")
        fig, ax = plt.subplots(figsize=(6, 4))
        tf = np.atleast_1d(rows["t_f"])
        res = np.atleast_1d(rows["final_residual"])
        ax.loglog(tf, np.maximum(res, 1e-18), "o-")
        ax.set_xlabel("t_f")
        ax.set_ylabel("final residual energy")
        fig.savefig(out / "sweep.svg")
        plt.close(fig)
    print(f"plots written to {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="tll-cd-sim",
        description="Counterdiabatic driving of the Tomonaga-Luttinger liquid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(required=True, help="path to key=value config"),
        "--out": dict(help="output directory"),
        "--cd": dict(choices=["on", "off"]),
        "--tf": dict(type=float),
        "--modes": dict(type=int),
        "--tf-list": dict(help="comma-separated t_f values"),
    }

    def add(name, func, help_text, *names):
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in names:
            sp.add_argument(flag, **flags[flag])
        sp.set_defaults(func=func)
        return sp

    add("simulate", cmd_simulate, "full run: CSV outputs + manifest",
        "--config", "--out", "--cd", "--tf", "--modes")
    add("stability", cmd_stability, "stability criteria and speed window",
        "--config", "--tf", "--modes")
    add("sweep", cmd_sweep, "sweep over final times",
        "--config", "--out", "--cd", "--modes", "--tf-list")
    add("validate", cmd_validate, "oracle cross-check suite")
    sp = add("plot", cmd_plot, "SVG panels from a run directory")
    sp.add_argument("--out", help="run directory containing the CSVs")

    return parser


def failure_exit(exc) -> tuple:
    """(exit code, stderr label) of the failure `exc`, from FAILURES."""
    return next((code, label) for classes, code, label in FAILURES if isinstance(exc, classes))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FAILURE_CLASSES as exc:
        code, label = failure_exit(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
