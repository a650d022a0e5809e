"""CLI tests: config parsing, subcommands, exit codes, output files and
byte stability."""

import math
from dataclasses import fields, replace
from pathlib import Path

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tllcd
from tllcd import _fmt17, cli, closed_forms, dynamics, errors, integrator, su11, validate
from tllcd.cli import (
    EXIT_CONFIG,
    EXIT_INSTABILITY,
    EXIT_INTEGRATION,
    main,
    parse_config,
)
from tllcd.closed_forms import experimental_sound_velocity
from tllcd.errors import ConfigError, ContractError

GOOD_CONFIG = """
# reference contact ramp, small for test speed
family = contact
g2_end = 1.0
g4_end = 0.5
t_f = 6.0
L = 20.0
n_modes = 2
record_points = 41
cd = on
"""

# stable at p_min = 2 pi/L, where the couplings vanish, but not above it
TABLE_CONFIG = (
    GOOD_CONFIG.replace("family = contact", "family = custom_table")
    .replace("L = 20.0", "L = 100.0")
    .replace("n_modes = 2", "n_modes = 8")
    .replace("cd = on", "cd = off")
    + "table = 0:0:0; 0.1:0:0; 0.2:7:0; 2:7:0\n"
)


# four CSV blocks of modes.csv (32 modes x 201 records): the contact ramp
# with CD on, whose n_qp is exactly 0.0, and a CD-off table run that repeats
# no value down any full column of modes.csv
BLOCKS_CONFIG = GOOD_CONFIG.replace("n_modes = 2", "n_modes = 32").replace(
    "record_points = 41", "record_points = 201"
)
BLOCKS_TABLE_CONFIG = (
    BLOCKS_CONFIG.replace("family = contact", "family = custom_table")
    .replace("L = 20.0", "L = 100.0")
    .replace("t_f = 6.0", "t_f = 10.0")
    .replace("cd = on", "cd = off")
    + "schedule = linear\n"
    + "table = 0.0:0.9:0.45; 0.5:0.85:0.45; 1.0:0.8:0.4; 1.5:0.7:0.4; 2.5:0.6:0.35\n"
)
# g4 starts above 0, so chi_cd stays in range at a tiny v_F
SLOW_CONFIG = (
    "family = contact\ng2_end = 0.25\ng4_start = 0.1\ng4_end = 0.5\nt_f = 6\nL = 20\n"
    "n_modes = 4\ntf_list = 6\nv_F = {v_F}\n"
)
# the full columns of modes.csv, one value per (mode, record)
FULL_MODES_COLUMNS = ("n_bare", "n_qp", "fidelity", "pair_energy", "residual", "epsilon_cd")


def run_config(text):
    cfg = parse_config(text)
    result = dynamics.run_simulation(
        cfg.protocol(), rtol=cfg.rtol, atol=cfg.atol, record_points=cfg.record_points
    )
    return cfg, result


def write_config(tmp_path, text=GOOD_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_defaults_and_values():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.g2_end == 1.0
    assert cfg.n_modes == 2
    assert cfg.schedule == "poly5"  # default
    assert cfg.v_F == 1.0


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("bogus = 1\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("t_f = 1\nt_f = 2\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("t_f = fast\n")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_parse_config_rejects_unstable_endpoint(tmp_path):
    # a contact coupling unstable at every mode, p_min included, at the end
    # of the ramp or at t = 0, parses; the run refuses it (exit 3, naming
    # the worst mode) and writes its failure manifest, as for a defect at
    # other modes
    at_start = (
        "family = contact\nschedule = linear\ncd = on\ng2_end = -2.914\n"
        "g4_start = -7.11\ng4_end = 5.93\nt_f = 0.00089\nL = 393.3\nn_modes = 7\n"
    )
    for i, (text, where) in enumerate((
        (f"g2_end = {2 * math.pi + 1:.3f}\nt_f = 1.0\n", "p = 8.04248, t = 1: margin -1.27976"),
        (at_start, "p = 0.111829, t = 0: margin -0.0147157"),
    )):
        parse_config(text)
        out = tmp_path / f"out{i}"
        rc = main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)])
        assert rc == EXIT_INSTABILITY
        manifest = (out / "manifest.txt").read_text()
        assert "status = failed" in manifest
        assert f"stability.error = luttinger-instability at {where} <= 0\n" in manifest


FLOAT_KEYS = sorted(
    f.name for f in fields(cli.RunConfig) if isinstance(f.default, float)
)
# refused unless positive: L by model.require_mode_grid, rtol and atol by
# dynamics.require_run_settings (ContractError), v_F by the CLI (ConfigError)
POSITIVE_KEYS = ("L", "v_F", "rtol", "atol")
# refused if negative, by the CLI (ConfigError): 0 means "not given"
NON_NEGATIVE_KEYS = ("t_f", "sound_velocity")


def config_with(key, value):
    lines = [line for line in GOOD_CONFIG.splitlines() if not line.startswith(key + " ")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FLOAT_KEYS), st.floats(allow_nan=True, allow_infinity=True))
def test_parse_config_property(key, value):
    # every float key either parses to a finite, serializable config or
    # fails as a config/contract error, never later and never otherwise
    try:
        cfg = parse_config(config_with(key, repr(value)))
    except ContractError:
        assert key in ("L", "rtol", "atol") and value <= 0
        return
    except ConfigError:
        assert (
            not math.isfinite(value)
            or (key == "v_F" and value <= 0)
            or (key in NON_NEGATIVE_KEYS and value < 0)
        )
        return
    assert math.isfinite(value) and getattr(cfg, key) == value
    assert all(getattr(cfg, k) > 0 for k in POSITIVE_KEYS)
    assert all(getattr(cfg, k) >= 0 for k in NON_NEGATIVE_KEYS)
    assert parse_config(cli.serialize_config(cfg)) == cfg


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4))
def test_parse_config_tf_list_property(values):
    text = config_with("tf_list", ",".join(repr(v) for v in values))
    if all(math.isfinite(v) and v > 0 for v in values):
        assert parse_config(text).tf_values() == values
    else:
        with pytest.raises(ConfigError):
            parse_config(text)


@pytest.mark.parametrize(
    "key,value",
    [("rtol", "0"), ("rtol", "-1"), ("atol", "0"), ("L", "0"), ("v_F", "-1"),
     ("g2_end", "nan"), ("L", "nan"), ("v_F", "nan"), ("t_f", "inf"),
     ("tf_list", "5,nan"), ("tf_list", "5,fast"), ("table", "0:1:nan"),
     ("record_points", "1")],
)
def test_parse_config_rejects_bad_numbers(key, value, tmp_path):
    # finite run settings and mode grids are refused by the library's rules
    library = key in ("rtol", "atol", "L", "record_points") and value != "nan"
    with pytest.raises(ContractError if library else ConfigError, match=key):
        parse_config(config_with(key, value))
    cfg = write_config(tmp_path, config_with(key, value))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "key,value",
    [("rtol", "0"), ("rtol", "-1"), ("atol", "0"), ("atol", "-1"), ("L", "0"), ("L", "-1"),
     ("n_modes", "0"), ("n_modes", "-1"), ("record_points", "0"), ("record_points", "1"),
     ("record_points", "-1")],
)
def test_parse_config_and_the_library_refuse_alike(key, value):
    # one rule each: the mode grid's (model.require_mode_grid) and the run
    # settings' (dynamics.require_run_settings), with one message
    with pytest.raises(ContractError) as parsed:
        parse_config(config_with(key, value))
    typed = {f.name: type(f.default) for f in fields(cli.RunConfig)}[key](value)
    cfg = parse_config(GOOD_CONFIG)
    settings = dict(rtol=cfg.rtol, atol=cfg.atol, record_points=cfg.record_points)
    with pytest.raises(ContractError) as library:
        if key in ("L", "n_modes"):
            replace(cfg.protocol(), **{key: typed})
        else:
            dynamics.run_simulation(cfg.protocol(), **{**settings, key: typed})
    assert str(library.value) == str(parsed.value)


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("simulate", TABLE_CONFIG.replace("0.1:0:0;", "0.1:0;"), "bad table row ' 0.1:0'"),
        ("simulate", GOOD_CONFIG.replace("t_f = 6.0", ""), "t_f must be positive"),
        ("simulate", GOOD_CONFIG.replace("cd = on", "cd = yes"), "cd must be"),
        ("simulate", GOOD_CONFIG + "units = si\n", "units must be"),
        ("simulate", GOOD_CONFIG + "emit_plots = yes\n", "emit_plots must be"),
        ("sweep", GOOD_CONFIG, "sweep needs tf_list"),
        # (2 pi v_F)^2 of the closed-form bound underflows, or the bound
        # overflows; a phase-route panel's sum overflows
        ("simulate", SLOW_CONFIG.format(v_F="1e-200"), "mode momenta or couplings out of range"),
        ("sweep", SLOW_CONFIG.format(v_F="1e-160"), "mode momenta or couplings out of range"),
        ("simulate", GOOD_CONFIG.replace("t_f = 6.0", "t_f = 1e307"),
         "mode momenta or couplings out of range"),
    ],
    ids=["table-row", "no-t_f", "cd", "units", "emit_plots", "sweep-without-t_f-list",
         "v_F-1e-200", "v_F-1e-160", "t_f-1e307"],
)
def test_config_refusals_write_nothing(command, text, message, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_overrides_are_validated(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--out", out, "--tf", "inf"]) == EXIT_CONFIG
    assert main(["sweep", "--config", cfg, "--out", out, "--tf-list", "4,inf"]) == EXIT_CONFIG


def test_subcommands_take_only_their_flags(tmp_path):
    # sweep takes its final times from --tf-list and stability writes no
    # file: a flag the command would ignore is argparse's usage error
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o")
    for argv in (
        ["sweep", "--config", cfg, "--out", out, "--tf-list", "4,8", "--tf", "3"],
        ["stability", "--config", cfg, "--out", out],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_import_leaves_scipy_and_the_oracle_unloaded():
    # the package exports the scalar su11 layer, the closed forms and the
    # scalar references of `validate` on first use
    code = (
        "import sys, tllcd.cli\n"
        "reference = ('tllcd.su11', 'tllcd.closed_forms', 'tllcd.validate', 'tllcd.fock')\n"
        "loaded = [m for m in sys.modules if m in reference"
        " or m.split('.')[0] == 'scipy']\n"
        "sys.exit(', '.join(loaded) or None)\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("pair_energy", "quasiparticle_frame", "mean_energy_scaling_check"):
        assert getattr(tllcd, name) is getattr(validate, name)
    for name in ("IDENTITY", "BogoliubovMap", "PairObservables", "compose", "inverse",
                 "squeeze_from_angle", "state_overlap", "vacuum_observables"):
        assert getattr(tllcd, name) is getattr(su11, name), name
    for name in ("ControlledCoefficients", "bogoliubov_angle", "cd_amplitude_lorentzian",
                 "controlled_coefficients", "delta_coefficients", "gauge_field_amplitude",
                 "ground_state_energy", "mass_frequency", "realspace_cd_kernel"):
        assert getattr(tllcd, name) is getattr(closed_forms, name), name


def test_runs_leave_scipy_and_the_oracle_unloaded(tmp_path):
    # simulate and sweep need numpy alone: neither scipy nor the reference
    # side is imported on the run path, which keeps a run's set-up at numpy's
    # cost, nor numpy.fft or numpy.polynomial (the Chebyshev route sums its
    # cosines itself), beyond what `import numpy` loads of its own
    cfg = write_config(tmp_path, GOOD_CONFIG.replace("record_points = 41", "record_points = 5"))
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from tllcd.cli import main\n"
        f"assert main(['simulate', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
        f"assert main(['sweep', '--config', {cfg!r}, '--out', {out!r}, '--tf-list', '6,8']) == 0\n"
        "reference = ('tllcd.su11', 'tllcd.closed_forms', 'tllcd.validate', 'tllcd.fock')\n"
        "numpy_parts = ('numpy.fft', 'numpy.polynomial')\n"
        "loaded = [m for m in sys.modules if m in reference"
        " or m.split('.')[0] == 'scipy'"
        " or m.startswith(numpy_parts) and m not in before]\n"
        "sys.exit(', '.join(loaded) or None)\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_simulate_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_config(tmp_path), "--out", str(out)])
    assert rc == 0
    modes = (out / "modes.csv").read_text()
    agg = (out / "aggregate.csv").read_text()
    manifest = (out / "manifest.txt").read_text()
    assert modes.startswith("t,p,n_bare,n_qp,fidelity,pair_energy,residual,epsilon_cd,chi")
    assert agg.startswith("t,total_residual,total_energy,v_s,K,chi,min_margin")
    # 2 modes x 41 records + header
    assert len(modes.splitlines()) == 2 * 41 + 1
    assert "status = ok" in manifest
    assert "stability.pass = True" in manifest


def test_simulate_byte_stable(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("modes.csv", "aggregate.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the byte-stable manifest carries the integrator facts
    manifest = (out1 / "manifest.txt").read_text()
    facts = dict(
        line.split(" = ", 1) for line in manifest.splitlines() if line.startswith("integrator")
    )
    assert facts["integrator"] == "chebyshev"
    # CD on: each pair's generator is diagonal in its adiabatic frame, so
    # only its phase is formed, from v_s on the one row of these contact
    # couplings at the 33 nodes of degree 32, in one substep
    assert int(facts["integrator.substeps"]) == 1
    assert int(facts["integrator.steps"]) == 33
    assert 0 <= float(facts["integrator.error_estimate"]) <= 1e-10
    assert 0 <= float(facts["integrator.max_invariant_defect"]) <= 1e-12


def test_cd_runs_take_the_phase_route(tmp_path, monkeypatch):
    # with CD on the frame generator is diagonal, so simulate and sweep form
    # the phase integral on the Chebyshev route and never a Magnus step;
    # without CD they do
    calls = {}
    for name in ("_omega", "_scan", "_cosh_sinhc"):
        real = getattr(integrator, name)

        def spy(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(integrator, name, spy)
    out = tmp_path / "out"
    sweep = write_config(tmp_path, GOOD_CONFIG + "tf_list = 4.0,8.0\n", name="s.cfg")
    assert main(["sweep", "--config", sweep, "--out", str(out)]) == 0
    assert main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    assert calls == {}
    assert "integrator = chebyshev\n" in (out / "manifest.txt").read_text()
    bare = write_config(tmp_path, GOOD_CONFIG.replace("cd = on", "cd = off"), "b.cfg")
    assert main(["simulate", "--config", bare, "--out", str(out)]) == 0
    assert sorted(calls) == ["_cosh_sinhc", "_omega", "_scan"]
    assert "integrator = magnus6\n" in (out / "manifest.txt").read_text()


def test_stability_reports_where_the_margin_is_least(tmp_path, capsys):
    # the gate's report names the (p, t) of its least margin, in the
    # stability printout and in the manifest, after the margin
    cfg = write_config(tmp_path)
    report = cli.stability_margin(parse_config(Path(cfg).read_text()).protocol())
    assert main(["stability", "--config", cfg]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[:3] == [
        f"margin = {report.margin:.6g}",
        f"argmin_p = {report.argmin_p:.6g}",
        f"argmin_t = {report.argmin_t:.6g}",
    ]
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    at = lines.index(f"stability.margin = {cli._fmt(report.margin)}")
    assert lines[at + 1 : at + 3] == [
        f"stability.argmin_p = {cli._fmt(report.argmin_p)}",
        f"stability.argmin_t = {cli._fmt(report.argmin_t)}",
    ]


def test_outputs_are_the_savetxt_bytes_of_the_run(tmp_path):
    # the run's own columns, of several blocks, not only synthetic tables
    want = tmp_path / "want.csv"
    for text in (BLOCKS_CONFIG, BLOCKS_TABLE_CONFIG):
        cfg, result = run_config(text)
        traj = result.trajectories
        assert traj.n_qp.size > 2 * _fmt17.CSV_BLOCK_ROWS
        paths = cli.write_outputs(result, cfg, tmp_path / "out")
        modes = [traj.times, traj.p[:, None]]
        modes += [getattr(traj, name) for name in cli.MODES_HEADER.split(",")[2:]]
        aggregate = [traj.times]
        aggregate += [getattr(result, name) for name in cli.AGGREGATE_HEADER.split(",")[1:-1]]
        aggregate.append(result.stability.margin)
        for header, columns, got in (
            (cli.MODES_HEADER, modes, paths["modes"]),
            (cli.AGGREGATE_HEADER, aggregate, paths["aggregate"]),
        ):
            shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
            table = np.column_stack([np.broadcast_to(c, shape).ravel() for c in columns])
            np.savetxt(want, table, fmt="%.17g", delimiter=",", header=header, comments="")
            assert got.read_bytes() == want.read_bytes()


def test_formatter_gets_each_run_of_a_block_once(tmp_path, monkeypatch):
    # what the formatter is handed for modes.csv: per block, one value for
    # each run of equal bits down a full column.  The block calls follow
    # those of the columns that repeat (t, p, chi)
    handed, words, write_csv = [], _fmt17.words, _fmt17.write_csv
    per_file = {}

    def spy(values):
        handed.append(np.array(values))
        return words(values)

    def writer(path, header, columns):
        handed.clear()
        write_csv(path, header, columns)
        per_file[header] = list(handed)

    monkeypatch.setattr(_fmt17, "words", spy)
    monkeypatch.setattr(_fmt17, "write_csv", writer)
    block = _fmt17.CSV_BLOCK_ROWS
    for text, cd in ((BLOCKS_CONFIG, True), (BLOCKS_TABLE_CONFIG, False)):
        cfg, result = run_config(text)
        traj = result.trajectories
        cli.write_outputs(result, cfg, tmp_path / "out")
        full = np.stack([getattr(traj, name).ravel() for name in FULL_MODES_COLUMNS], axis=1)
        starts = np.ones(full.shape, bool)
        bits = full.view(np.int64)
        starts[1:] = bits[1:] != bits[:-1]
        starts[::block] = True
        n_blocks = -(-len(full) // block)
        assert n_blocks >= 2
        calls = per_file[cli.MODES_HEADER][-n_blocks:]
        for k, got in enumerate(calls):
            rows = slice(k * block, (k + 1) * block)
            want = full[rows][starts[rows]]
            assert np.array_equal(np.sort(got.view(np.int64)), np.sort(want.view(np.int64)))
            if cd:
                # n_qp is exactly 0.0 at every mode and record: one value
                # of it per block
                n_qp = FULL_MODES_COLUMNS.index("n_qp")
                assert not bits[rows, n_qp].any()
                assert starts[rows, n_qp].sum() == 1
                assert len(got) < full[rows].size
            else:
                # no repeats: every cell formatted exactly once
                assert starts[rows].all()
                assert len(got) == full[rows].size


def test_two_record_grid_runs(tmp_path):
    # one Magnus step per interval of this grid overflows; step doubling
    # refines it instead of failing the run
    cfg = write_config(
        tmp_path,
        "family = contact\ng2_end = 1.0\ng4_end = 0.5\nL = 100\nn_modes = 32\n"
        "t_f = 40\ncd = on\nrecord_points = 2\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "status = ok" in (out / "manifest.txt").read_text()
    assert main(["sweep", "--config", cfg, "--out", str(out), "--tf-list", "20,40"]) == 0


def test_simulate_cd_override(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["simulate", "--config", write_config(tmp_path), "--out", str(out), "--cd", "off"]
    )
    assert rc == 0
    assert "config.cd = off" in (out / "manifest.txt").read_text()


def test_exit_code_config_error(tmp_path):
    bad = write_config(tmp_path, "nonsense = 1\n", name="bad.cfg")
    assert main(["simulate", "--config", bad, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_table_with_a_repeated_p_is_a_config_error(tmp_path, capsys):
    # two rows at p = 0.5: a config error before any output
    text = (
        "family = custom_table\n"
        "table = 0:0.9:0.45; 0.5:0.8:0.4; 0.5:0.2:0.1; 2.5:0.6:0.35\n"
        "schedule = linear\nt_f = 6\nL = 20\nn_modes = 3\ncd = off\n"
    )
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: custom_table rows need distinct p\n"
    assert not out.exists()


@pytest.mark.parametrize("cd", ["on", "off"])
def test_every_formula_of_the_run_is_in_range(tmp_path, capsys, cd):
    # squares in v_s stay finite, but (2 pi v_F + g4)^2 in chi_cd, which the
    # stability gate forms with CD on or off, and the rate of v_s^2 do not:
    # a config error before any output, with no warning (warnings are
    # errors here)
    text = f"family = contact\ng4_end = 5e154\nt_f = 1\nn_modes = 4\ncd = {cd}\n"
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()
    # a sweep checks its own t_f list: rates grow as 1/t_f
    sweep = write_config(tmp_path, GOOD_CONFIG.replace("cd = on", f"cd = {cd}"), "s.cfg")
    rc = main(["sweep", "--config", sweep, "--out", str(out), "--tf-list", "6,1e-300"])
    assert rc == EXIT_CONFIG
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()


def test_stability_out_of_range_prints_nothing(tmp_path, capsys):
    # the speed window of sound_velocity is printed only after the report
    text = "family = contact\ng4_end = 5e154\nt_f = 1\nsound_velocity = 1\n"
    rc = main(["stability", "--config", write_config(tmp_path, text)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of range" in captured.err


def test_every_error_class_has_one_exit_code():
    # the one table of main and sweep: every class of tllcd.errors is named
    # in exactly one row, and no earlier row (a base class's) shadows it
    expected = {
        errors.LuttingerInstabilityError: (EXIT_INSTABILITY, "instability"),
        errors.CDInstabilityError: (EXIT_INSTABILITY, "instability"),
        errors.ConfigError: (EXIT_CONFIG, "config error"),
        errors.ContractError: (EXIT_CONFIG, "config error"),
        errors.IntegrationError: (EXIT_INTEGRATION, "integration error"),
    }
    defined = {
        value
        for value in vars(errors).values()
        if isinstance(value, type)
        and issubclass(value, Exception)
        and value.__module__ == errors.__name__
    }
    assert defined == set(expected)
    named = [cls for classes, _, _ in cli.FAILURES for cls in classes]
    for cls, exit_and_label in expected.items():
        assert named.count(cls) == 1
        assert cli.failure_exit(cls("message")) == exit_and_label


def test_exit_code_missing_config(tmp_path):
    assert (
        main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        == EXIT_CONFIG
    )


def test_exit_code_instability_and_manifest(tmp_path):
    # endpoints are stable but the drive is far too fast: CD spectrum fails;
    # a table coupling stable at p_min but not above it: validation fails
    # with the exit code of the same defect at p_min
    for name, text in (
        ("fast.cfg", GOOD_CONFIG.replace("t_f = 6.0", "t_f = 0.01")),
        ("table.cfg", TABLE_CONFIG),
    ):
        cfg = write_config(tmp_path, text, name)
        out = tmp_path / name.replace(".cfg", "")
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_INSTABILITY
        manifest = (out / "manifest.txt").read_text()
        assert "status = failed" in manifest
        assert "failure =" in manifest
        assert "stability.pass = True" not in manifest


def test_cd_instability_exits_at_every_record_count(tmp_path, monkeypatch):
    # the CD margin at p_min is negative, yet the controlled spectrum is real
    # at the two ends of the ramp: the verdict must not depend on the records
    def no_integration(*args, **kwargs):
        raise AssertionError("integration ran on an unstable CD protocol")

    monkeypatch.setattr(dynamics, "integrate_modes", no_integration)
    fast = GOOD_CONFIG.replace("t_f = 6.0", "t_f = 0.1")
    for points in (2, 3, 41):
        text = fast.replace("record_points = 41", f"record_points = {points}")
        cfg = write_config(tmp_path, text, name=f"fast{points}.cfg")
        out = tmp_path / f"fast{points}"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_INSTABILITY
        manifest = (out / "manifest.txt").read_text()
        assert "status = failed" in manifest
        assert "stability.pass = False" in manifest
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--tf-list", "0.1"])
        assert rc == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[0]) == 0.1 and math.isnan(float(row[1]))
        assert row[3] == "False"


@pytest.fixture
def integrations(monkeypatch):
    """The calls that dynamics.integrate_modes receives; each still runs."""
    calls = []
    integrate = dynamics.integrate_modes

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_modes", counted)
    return calls


# a contact ramp whose least margin on the 2001 stability times is +7.7e-9
# and whose least margin on [0, t_f], at t = 1.0205, is -8.0166e-9
# (2,000,001 times give the same): the gate's refinement between its
# samples finds the dip
BOUNDARY_CONFIG = (
    "family = contact\ng2_end = 1.0\ng4_end = 0.5\nschedule = poly5\n"
    "t_f = 2.140194387361439\nL = 100\nn_modes = 2\nrecord_points = 20001\n"
    "cd = on\n"
)


def test_gate_refuses_the_boundary_config(tmp_path, integrations, capsys):
    # `stability`, `simulate` on 20,001 records and `sweep` give one
    # verdict, the gate's, and name the refined point in the gate's wording
    cfg = write_config(tmp_path, BOUNDARY_CONFIG)
    assert main(["stability", "--config", cfg]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "pass = False" in printed
    margin = float(next(line for line in printed if line.startswith("margin = "))[9:])
    assert margin == pytest.approx(-8.0166e-9, rel=1e-4)
    assert "argmin_t = 1.0205" in printed

    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_INSTABILITY
    assert integrations == []
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "stability.pass = False" in manifest
    refusal = "cd-instability at p = 0.0628319, t = 1.0205: margin -8.01659e-09 <= 0"
    assert f"failure = {refusal}" in manifest
    capsys.readouterr()

    out = tmp_path / "sweep"
    args = ["sweep", "--config", cfg, "--out", str(out), "--tf-list", "2.140194387361439"]
    assert main(args) == 0
    assert (out / "sweep.csv").read_text().splitlines()[1] == "2.1401943873614391,nan,nan,False"
    assert capsys.readouterr().err == ""
    assert integrations == []


def test_stability_subcommand_rejects_unstable_coupling(tmp_path, capsys):
    cfg = write_config(tmp_path, TABLE_CONFIG)
    assert main(["stability", "--config", cfg]) == EXIT_INSTABILITY
    assert "pass = True" not in capsys.readouterr().out


def test_stability_gate_sees_the_worst_mode(tmp_path, capsys):
    # a custom_table coupling whose CD margin is positive at p_min and
    # negative at mode 4: the stability printout, the simulate gate and the
    # failure manifest agree that the run is unstable, and where
    text = (
        "family = custom_table\n"
        "table = 0:0.01:0.0; 0.1:0.01:0.0; 0.2:5.5:0.0; 2:5.5:0.0\n"
        "schedule = poly5\nL = 100\nn_modes = 32\ncd = on\nt_f = 6\n"
    )
    cfg = write_config(tmp_path, text)
    assert main(["stability", "--config", cfg]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "argmin_p = 0.251327" in printed
    assert "pass = False" in printed
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_INSTABILITY
    manifest = (out / "manifest.txt").read_text()
    assert "failure = cd-instability at p = 0.251327, t = 4.485" in manifest
    assert "stability.pass = False" in manifest


def test_stability_subcommand_experimental(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "L = 50\nunits = experimental\nsound_velocity = 2.04\n",
    )
    assert main(["stability", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "t_min = 3.901 ms" in out
    assert "t_upper = 39.009 ms" in out


def test_stability_subcommand_protocol(tmp_path, capsys):
    assert main(["stability", "--config", write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pass = True" in out
    assert "t_min_closed_form" in out


def test_stability_needs_input(tmp_path):
    cfg = write_config(tmp_path, "L = 50\n")
    assert main(["stability", "--config", cfg]) == EXIT_CONFIG


# (config lines in place of t_f = 6.0, flags): sweep takes no --tf
NEGATIVE_INPUTS = {
    "tf-flag": ("t_f = 6.0", ["--tf", "-3"]),
    "tf-key": ("t_f = -2", []),
    "sound-velocity": ("t_f = 6.0\nsound_velocity = -2.04", []),
    "tf-flag-beside-sound-velocity": ("t_f = 0\nsound_velocity = 2.04", ["--tf", "-3"]),
}


@pytest.mark.parametrize(
    "command, case",
    [
        (command, case)
        for command in ("simulate", "stability", "sweep")
        for case, (_, flags) in NEGATIVE_INPUTS.items()
        if not (command == "sweep" and flags)
    ],
)
def test_a_negative_time_or_velocity_is_refused(command, case, tmp_path, capsys):
    # 0 means "not given"; a negative t_f or sound_velocity is a config
    # error for every command, before any output, not ignored or replaced
    config, flags = NEGATIVE_INPUTS[case]
    text = GOOD_CONFIG.replace("t_f = 6.0", config) + "tf_list = 4.0,8.0\n"
    out = tmp_path / "out"
    args = [command, "--config", write_config(tmp_path, text), *flags]
    if command != "stability":
        args += ["--out", str(out)]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must not be negative" in captured.err
    assert not out.exists()


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        GOOD_CONFIG.replace("cd = on", "cd = off") + "tf_list = 4.0,8.0\n",
        name="sweep.cfg",
    )
    rc = main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "t_f,final_residual,final_fidelity,stability_pass"
    assert len(lines) == 3
    res4 = float(lines[1].split(",")[1])
    res8 = float(lines[2].split(",")[1])
    assert res8 < res4


def test_sweep_without_t_f_takes_the_list(tmp_path, capsys):
    # a sweep config may name no t_f: the protocol takes the first of the list
    text = GOOD_CONFIG.replace("t_f = 6.0", "") + "tf_list = 4.0,8.0,6.0\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "8", "6"]
    assert capsys.readouterr().out.splitlines() == lines[1:]


@pytest.mark.parametrize("stop", ["step_cap", "invariant"])
def test_sweep_keeps_the_t_f_that_integrated(stop, tmp_path, monkeypatch, capsys):
    # the two ways an integration stops, at t_f = 40 only.  Without CD, at
    # this step cap t_f = 5 converges at one substep per record interval and
    # t_f = 40, which needs 4, stops at 2 (with CD on, both pass at one
    # substep); or the run at t_f = 40 breaks |u|^2 - |v|^2 = 1.  Either way
    # the sweep still writes both rows, names the failed t_f and exits with
    # the integration code at the end.
    if stop == "step_cap":
        monkeypatch.setattr(integrator, "MAX_STEPS", 600)
        message = "magnus6 step doubling not converged"
    else:
        integrate = dynamics.integrate_modes

        def drifted(grid, times, *args, **kwargs):
            u, v, report, frame = integrate(grid, times, *args, **kwargs)
            if times[-1] == 40:
                report = replace(report, max_invariant_defect=2e-6)
            return u, v, report, frame

        monkeypatch.setattr(dynamics, "integrate_modes", drifted)
        message = "Bogoliubov invariant violated"
    cfg = write_config(
        tmp_path,
        "family = contact\ng2_end = 1.0\ng4_end = 0.5\nschedule = poly5\n"
        "t_f = 5\nL = 100\nn_modes = 32\nrecord_points = 201\ncd = off\n",
    )
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg, "--out", str(out), "--tf-list", "5,40"])
    assert rc == EXIT_INTEGRATION
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("5,") and "nan" not in lines[1]
    assert lines[2] == "40,nan,nan,True"
    err = capsys.readouterr().err
    assert f"integration error at t_f = 40: {message}" in err
    assert "t_f = 5:" not in err


def test_sweep_and_simulate_agree_on_an_integration_failure(tmp_path, monkeypatch, capsys):
    # a run at t_f = 5 that breaks the invariant: simulate exits 4, and the
    # sweep keeps the gate's verdict in both rows, names the failed t_f with
    # simulate's label and message, finishes t_f = 6 and exits 4
    integrate = dynamics.integrate_modes

    def drifted(grid, times, *rest):
        u, v, report, frame = integrate(grid, times, *rest)
        if times[-1] == 5:
            report = replace(report, max_invariant_defect=2e-6)
        return u, v, report, frame

    monkeypatch.setattr(dynamics, "integrate_modes", drifted)
    cfg = write_config(
        tmp_path,
        GOOD_CONFIG.replace("L = 20.0", "L = 100.0").replace(
            "record_points = 41", "record_points = 21"
        ),
    )
    simulate = ["simulate", "--config", cfg, "--out", str(tmp_path / "drift"), "--tf", "5"]
    assert main(simulate) == EXIT_INTEGRATION
    stopped = capsys.readouterr().err
    assert stopped.startswith("integration error: Bogoliubov invariant violated")
    out = tmp_path / "sweep"
    args = ["sweep", "--config", cfg, "--out", str(out), "--tf-list", "6,5"]
    assert main(args) == EXIT_INTEGRATION
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("6,") and lines[1].endswith(",True")
    assert "nan" not in lines[1]
    assert lines[2] == "5,nan,nan,True"
    assert capsys.readouterr().err == stopped.replace(": ", " at t_f = 5: ", 1)


def test_sweep_gates_every_t_f_before_integrating(tmp_path, integrations, capsys):
    # t_f = 1e-300 overflows the couplings' rates: the sweep refuses it
    # before it integrates t_f = 6
    out = str(tmp_path / "out")
    args = ["sweep", "--config", write_config(tmp_path), "--out", out]
    assert main(args + ["--tf-list", "6,1e-300"]) == EXIT_CONFIG
    assert integrations == []
    assert "out of range" in capsys.readouterr().err


# every check of the oracle suite, in the order `validate` prints them
VALIDATION_CHECKS = [
    f"{what} closed form vs Fock sum (eta={eta})"
    for eta in (-0.8, -0.2, 0.4, 1.1)
    for what in ("occupation", "pair correlator")
] + [
    "overlap closed form vs Fock inner product",
    "tmsv annihilation condition",
    "integrator vs Fock oracle (cd=on)",
    "integrator vs Fock oracle (cd=off)",
    "integrator order (cd=on): halving the step cuts |y_N - y_2N| by >= 2^5",
    "integrator order (cd=off): halving the step cuts |y_N - y_2N| by >= 2^5",
    "CD-on referee: n_qp = 0 on the chebyshev route",
    "error control: within tolerance of 64x the substeps (40 record intervals)",
    "error control: within tolerance of 64x the substeps (39 record intervals)",
    "pair ground eigenvalue = epsilon",
    "n_qp(t_f) vs the driven oscillator (cd=on)",
    "n_qp(t_f) vs the driven oscillator (cd=off)",
]


def assert_passed(line, name):
    """`line` is `[PASS] <name>: <value> <= <bound>`, both in %.3e, with
    value <= bound."""
    prefix = f"[PASS] {name}: "
    assert line.startswith(prefix), line
    value, bound = line[len(prefix):].split(" <= ")
    assert all(x == f"{float(x):.3e}" for x in (value, bound)), line
    assert float(value) <= float(bound), line


def test_validate_subcommand(capsys):
    # each check prints its value beside its bound
    assert main(["validate"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert last == "all validation checks passed"
    assert len(lines) == len(VALIDATION_CHECKS)
    for line, name in zip(lines, VALIDATION_CHECKS):
        assert_passed(line, name)


def test_a_failed_validation_check_exits_5(monkeypatch, capsys):
    # a failing check names its value and bound; the others still pass
    monkeypatch.setattr(validate, "ground_eigenvalue", lambda coeffs, cutoff: (2e-9, 1e-9))
    assert main(["validate"]) == cli.EXIT_VALIDATION == 5
    *lines, last = capsys.readouterr().out.splitlines()
    assert last == "1 validation check(s) failed"
    assert len(lines) == len(VALIDATION_CHECKS)
    failed = "[FAIL] pair ground eigenvalue = epsilon: 2.000e-09 > 1.000e-09"
    for line, name in zip(lines, VALIDATION_CHECKS):
        if name == "pair ground eigenvalue = epsilon":
            assert line == failed
        else:
            assert_passed(line, name)


def test_experimental_sound_velocity():
    # Rb-87 gas: a_s = 5.2 nm, m = 1.44e-25 kg, omega_perp = 2 pi x 1.4 kHz,
    # n_1D = 70 / um
    v_s = experimental_sound_velocity(5.2e-9, 1.44e-25, 2 * math.pi * 1400.0, 70e6)
    assert v_s == pytest.approx(2.04, abs=0.02)
    from tllcd.errors import ContractError

    with pytest.raises(ContractError):
        experimental_sound_velocity(-1.0, 1.44e-25, 1.0, 1.0)


def test_plot_subcommand(tmp_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    assert main(["plot", "--out", str(out)]) == 0
    assert (out / "parameters.svg").exists()
    assert (out / "residual.svg").exists()


def test_plots_without_matplotlib_write_nothing(tmp_path, monkeypatch, capsys):
    # a config error (exit 2) writes no output, even one asked for plots
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    cfg = write_config(tmp_path, GOOD_CONFIG + "emit_plots = true\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "plotting requires matplotlib" in capsys.readouterr().err
    assert not out.exists()


def test_api_surface_of_the_benchmark_harness():
    # the benchmark harness calls these names from outside the package and
    # wraps the others in its trace spans
    from tllcd import dynamics, protocol

    proto = parse_config(GOOD_CONFIG).protocol()
    p, t = proto.momenta(), np.linspace(0.0, proto.t_f, 5)
    c = proto.grid(p, t)
    for i, j in ((0, 0), (1, 2), (1, 4)):
        coeffs = proto.pair_generator(p[i], t[j])
        got = (coeffs.omega, coeffs.g, coeffs.chi)
        assert all(type(x) is float for x in got)
        assert got == (c.omega[i, j], c.g[i, j], c.chi[i, j])
    for owner, name in (
        (cli, "write_outputs"),
        (cli, "write_manifest"),
        (cli, "stability_margin"),
        (protocol, "stability_margin"),
        (protocol.DriveProtocol, "validate"),
        (dynamics, "run_simulation"),
        (dynamics, "sweep_tf"),
    ):
        assert callable(getattr(owner, name, None)), name


def test_stability_margin_runs_once_per_run(tmp_path, monkeypatch):
    from tllcd import protocol

    calls = []
    real = protocol.stability_margin

    def counted(*args, **kwargs):
        calls.append(args[0].t_f)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "stability_margin", counted)
    monkeypatch.setattr(cli, "stability_margin", counted)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", write_config(tmp_path), "--out", out]) == 0
    assert calls == [6.0]
    calls.clear()
    cfg = write_config(tmp_path, GOOD_CONFIG + "tf_list = 4.0,8.0,0.01\n", name="s.cfg")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert calls == [4.0, 8.0, 0.01]
    # a run the CD gate refuses: the failure manifest reuses the gate's report
    calls.clear()
    fast = write_config(tmp_path, GOOD_CONFIG.replace("t_f = 6.0", "t_f = 0.1"), "f.cfg")
    assert main(["simulate", "--config", fast, "--out", out]) == EXIT_INSTABILITY
    assert calls == [0.1]
    assert "stability.pass = False" in (tmp_path / "out" / "manifest.txt").read_text()
    # a coupling that validate refuses: the manifest writes the refusal itself
    calls.clear()
    table = write_config(tmp_path, TABLE_CONFIG, "t.cfg")
    assert main(["simulate", "--config", table, "--out", out]) == EXIT_INSTABILITY
    assert calls == [6.0]
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert (
        "stability.error = luttinger-instability at p = 0.502655, t = 6: margin -0.0573452 <= 0\n"
        in manifest
    )
    # a CD run whose margin is negative above p_min: the gate, which covers
    # every mode, refuses it, and the error carries the gate's report
    calls.clear()
    above = TABLE_CONFIG.replace("cd = off", "cd = on").replace(
        "0:0:0; 0.1:0:0; 0.2:7:0; 2:7:0", "0:0.01:0; 0.1:0.01:0; 0.2:5.5:0; 2:5.5:0"
    )
    above = write_config(tmp_path, above, "a.cfg")
    assert main(["simulate", "--config", above, "--out", out]) == EXIT_INSTABILITY
    assert calls == [6.0]
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "failure = cd-instability at p = 0.251327" in manifest
    assert "stability.pass = False" in manifest
    # an integration that breaks |u|^2 - |v|^2 = 1: an integration error,
    # which carries the gate's report
    calls.clear()
    integrate = dynamics.integrate_modes

    def drifted(*args, **kwargs):
        u, v, report, frame = integrate(*args, **kwargs)
        return u, v, replace(report, max_invariant_defect=2e-6), frame

    monkeypatch.setattr(dynamics, "integrate_modes", drifted)
    assert main(["simulate", "--config", write_config(tmp_path), "--out", out]) == (
        EXIT_INTEGRATION
    )
    assert calls == [6.0]
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "failure = Bogoliubov invariant violated" in manifest
    assert "stability.pass = True" in manifest
    monkeypatch.setattr(dynamics, "integrate_modes", integrate)
    # an integration refused below the phase's rounding floor: the error
    # carries the gate's report
    calls.clear()
    tight = GOOD_CONFIG + "rtol = 1e-16\natol = 1e-30\n"
    tight = write_config(tmp_path, tight, "i.cfg")
    assert main(["simulate", "--config", tight, "--out", out]) == EXIT_INTEGRATION
    assert calls == [6.0]
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "failure = chebyshev phase not within tolerance" in manifest
    assert "stability.pass = True" in manifest
