"""The run path holds only what a run executes: every function and method
defined in a run-path module is called by some run.  The runs are
`simulate`, `sweep` and `stability` of each coupling family with CD on and
off, a `stability` whose gate refines between its samples, a
Luttinger-unstable `stability` and `validate`, command-line runs alone,
in-process under sys.setprofile.  A function
that only tests call belongs on the reference side (`tllcd.closed_forms`,
`tllcd.su11`, `tllcd.validate`)."""

import inspect
import sys
from functools import cached_property

from tllcd import _fmt17, cli, dynamics, errors, integrator, model, protocol
from tllcd.cli import EXIT_INSTABILITY, main

RUN_PATH = (model, protocol, integrator, dynamics, cli, _fmt17, errors)

# defined on the run path but called by none of the runs: `_words` and
# `_exponent_tables` run at import, `_fallback` only for a value within 1e-9
# of a rounding tie or a non-finite one, and the plot pair needs matplotlib
UNREACHED = {
    "_fmt17._words", "_fmt17._exponent_tables", "_fmt17._fallback",
    "cli.cmd_plot", "cli._pyplot",
}

# experimental units and t_f > 10, on 8 modes and 21 records for speed
CONFIGS = {
    "contact": "family = contact\ng2_end = 1.0\ng4_end = 0.5\n",
    "lorentzian": "family = lorentzian\ng2_end = 0.8\ng4_end = 0.8\nR0 = 0.5\n",
    "custom_table": "family = custom_table\ntable = 0:0.9:0.45; 0.5:0.8:0.4; 2.5:0.6:0.35\n",
}
COMMON = "t_f = 12\nL = 20\nn_modes = 8\nrecord_points = 21\nunits = experimental\n"


def defined_functions(module):
    """{code object: 'module.qualname'} of every function and method whose
    source is `module`'s, named nested functions included; decorators and
    properties are looked through to the function they wrap."""
    found = {}

    def add(code, name):
        if code.co_filename == module.__file__ and code not in found:
            found[code] = name
            for const in code.co_consts:
                if inspect.iscode(const) and not const.co_name.startswith("<"):
                    add(const, f"{name}.{const.co_name}")

    def visit(obj):
        if isinstance(obj, property):
            obj = obj.fget
        elif isinstance(obj, cached_property):
            obj = obj.func
        obj = inspect.unwrap(obj)
        if inspect.isfunction(obj):
            add(obj.__code__, f"{module.__name__.rsplit('.', 1)[-1]}.{obj.__qualname__}")

    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                visit(member)
        else:
            visit(obj)
    return found


def traced(run):
    """The code objects of every Python call that `run()` makes."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return called


def every_run(tmp_path):
    # an earlier test may have built the parser already
    cli.build_parser.cache_clear()
    for family, couplings in CONFIGS.items():
        cfg = tmp_path / f"{family}.cfg"
        cfg.write_text(couplings + COMMON + "cd = on\nsound_velocity = 2.04\n")
        out = str(tmp_path / family)
        for cd in ("on", "off"):
            assert main(["simulate", "--config", str(cfg), "--out", out, "--cd", cd]) == 0
            args = ["sweep", "--config", str(cfg), "--out", out, "--cd", cd]
            assert main(args + ["--tf-list", "12,16", "--modes", "4"]) == 0
        assert main(["stability", "--config", str(cfg), "--tf", "14"]) == 0
    # the gate refines between its samples where they leave the verdict open
    boundary = tmp_path / "boundary.cfg"
    boundary.write_text(CONFIGS["contact"] + "t_f = 2.140194387361439\nL = 100\nn_modes = 2\n")
    assert main(["stability", "--config", str(boundary)]) == 0
    unstable = tmp_path / "unstable.cfg"
    unstable.write_text(CONFIGS["contact"].replace("1.0", "9.0") + COMMON)
    assert main(["stability", "--config", str(unstable)]) == EXIT_INSTABILITY
    assert main(["validate"]) == 0


def test_every_run_path_function_is_reached(tmp_path, capsys):
    defined = {}
    for module in RUN_PATH:
        defined.update(defined_functions(module))
    assert UNREACHED <= set(defined.values())
    called = traced(lambda: every_run(tmp_path))
    missing = {name for code, name in defined.items() if code not in called}
    assert not missing - UNREACHED, f"no run calls {sorted(missing - UNREACHED)}"
