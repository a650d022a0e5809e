"""The public API's error contract, as one property.

Every field of `CouplingSpec`, `Schedule` and `DriveProtocol`, every run
setting (`rtol`, `atol`, `record_points`) and the t_f list of a sweep take
edge values: NaN, +-inf, +-0, negatives, 1e+-300, 1e160, a subnormal,
non-integral floats, numpy scalars, bools and unknown enum strings, the
retired schedule `custom_samples` among them.  `run_simulation`,
`sweep_tf` and `stability_margin` are called with warnings as errors.
A value outside its field's documented domain is refused with a class of
`cli.FAILURES` before any `integrate_modes` call; for any other input a
call returns a result of the documented shape, or raises such a class.

Wrong Python types (a `str` for a number, `None` for a count) are out of
scope: the command line converts every value to its field's type before
it builds anything.
"""

import math
import numbers
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tllcd import dynamics
from tllcd.cli import FAILURE_CLASSES
from tllcd.model import CouplingFamily, CouplingSpec
from tllcd.protocol import DriveProtocol, Schedule, ScheduleKind, StabilityReport, stability_margin

NAN, INF = math.nan, math.inf
EDGE_FLOATS = (NAN, INF, -INF, 0.0, -0.0, -1.0, 1e300, -1e300, 1e-300, 1e160, 1e-310, 2.5,
               np.float64(0.5), True)
EDGE_COUNTS = (0, 1, -1, 2.5, 4.0, np.float64(3.0), True, False, NAN, INF)
TABLE = ((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (2.5, 0.6, 0.35))


def finite(x):
    return math.isfinite(x)


def positive(x):
    return math.isfinite(x) and x > 0


def count(least):
    return lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


def valid_rows(rows, width):
    """Rows of `width` finite entries with distinct first entries."""
    return (
        bool(rows)
        and all(np.shape(row) == (width,) for row in rows)
        and all(finite(x) for row in rows for x in row)
        and len({row[0] for row in rows}) == len(rows)
    )

# each field: (values in its domain, edge values), the edges of a table
# placed in one entry
FIELDS = {
    "family": (("contact", "lorentzian", "custom_table", CouplingFamily.LORENTZIAN),
               ("bogus", "")),
    "g2_start": ((0.0, 0.2), EDGE_FLOATS),
    "g2_end": ((1.0, 0.5), EDGE_FLOATS),
    "g4_start": ((0.0, 0.1), EDGE_FLOATS),
    "g4_end": ((0.5, 1.0), EDGE_FLOATS),
    "R0": ((0.2, 1.0), EDGE_FLOATS),
    "table": ((TABLE,), (None, (), TABLE[:1] + ((1.0, 0.4),), ((0.0, 0.9, 0.45), (0.0, 0.8, 0.4)))
              + tuple(((0.0, 0.9, x), (1.0, 0.8, 0.4)) for x in EDGE_FLOATS)),
    "kind": (("poly5", "linear", ScheduleKind.LINEAR), ("bogus", "", "custom_samples")),
    "t_f": ((1.0, 6.0), EDGE_FLOATS),
    "L": ((20.0, 100.0), EDGE_FLOATS),
    "n_modes": ((1, 2, 4, np.int64(3)), EDGE_COUNTS),
    "cd_enabled": ((True, False, np.True_), ()),
    "v_F": ((1.0, 0.8), EDGE_FLOATS),
    "rtol": ((1e-10, 1e-8), EDGE_FLOATS),
    "atol": ((1e-12, 1e-10), EDGE_FLOATS),
    "record_points": ((2, 3, 5, np.int64(4)), EDGE_COUNTS),
    "t_f entry": ((1.0, 6.0), EDGE_FLOATS),
}


@st.composite
def inputs(draw):
    """(coupling, schedule, protocol and run kwargs, tf_list, and which of
    them lie outside their documented domains): every field in its
    domain, but for one or two drawn from their edge values."""
    edged = draw(st.sets(st.sampled_from([k for k, (_, e) in FIELDS.items() if e]), min_size=1, max_size=2))
    value = {k: draw(st.sampled_from(edge if k in edged else good))
             for k, (good, edge) in FIELDS.items()}
    if draw(st.booleans()):
        # lorentzian couplings have g2 = g4
        value.update(g4_start=value["g2_start"], g4_end=value["g2_end"])
    tf_list = [value["t_f entry"]] + draw(st.lists(st.sampled_from((2.0, 5.0)), max_size=2))
    if draw(st.booleans()):
        tf_list.reverse()
    if "t_f entry" in edged and draw(st.booleans()):
        tf_list = []
    coupling = {k: value[k] for k in ("family", "g2_start", "g2_end", "g4_start", "g4_end",
                                      "R0", "table")}
    schedule = {"kind": value["kind"]}
    protocol = {k: value[k] for k in ("t_f", "L", "n_modes", "cd_enabled", "v_F")}
    run = {k: value[k] for k in ("rtol", "atol", "record_points")}

    family = coupling["family"]
    bad_coupling = (
        family not in [f.value for f in CouplingFamily]
        or not all(finite(coupling[k]) for k in ("g2_start", "g2_end", "g4_start", "g4_end", "R0"))
        or family == "lorentzian" and not (
            coupling["R0"] > 0
            and (coupling["g2_start"], coupling["g2_end"]) == (coupling["g4_start"], coupling["g4_end"])
        )
        or family == "custom_table" and not valid_rows(coupling["table"], 3)
    )
    bad_schedule = schedule["kind"] not in [k.value for k in ScheduleKind]
    bad_protocol = not (
        positive(protocol["t_f"]) and positive(protocol["L"]) and positive(protocol["v_F"])
        and count(1)(protocol["n_modes"])
    )
    bad_run = not (
        positive(run["rtol"]) and positive(run["atol"]) and count(2)(run["record_points"])
    )
    bad = dict(
        built=bad_coupling or bad_schedule or bad_protocol,
        run=bad_run,
        tf_list=not tf_list or not all(positive(t) for t in tf_list),
    )
    return coupling, schedule, protocol, run, tf_list, bad


def outcome(call):
    """The call's result, or the FAILURES exception it raised."""
    try:
        return call()
    except FAILURE_CLASSES as exc:
        return exc


# v_F = 1e-300 with a stable coupling whose g4 starts above 0: the
# closed-form bound's (2 pi v_F)^2 underflows to 0, which the draws had not
# reached
TINY_V_F = (
    dict(family="contact", g2_start=0.0, g2_end=0.5, g4_start=0.1, g4_end=1.0, R0=0.2,
         table=TABLE),
    {"kind": "poly5"},
    dict(t_f=6.0, L=20.0, n_modes=2, cd_enabled=True, v_F=1e-300),
    dict(rtol=1e-10, atol=1e-12, record_points=3),
    [6.0],
    dict(built=False, run=False, tf_list=False),
)


@given(inputs())
@example(TINY_V_F)
@settings(max_examples=100, deadline=None)
def test_bad_inputs_are_refused_before_integration(case):
    coupling, schedule, protocol, run, tf_list, bad = case
    integrations = []
    real = dynamics.integrate_modes

    def spy(*args):
        integrations.append(args[0])
        return real(*args)

    with warnings.catch_warnings(), mock.patch.object(dynamics, "integrate_modes", spy):
        warnings.simplefilter("error")
        built = outcome(lambda: DriveProtocol(
            coupling=CouplingSpec(**coupling), schedule=Schedule(**schedule), **protocol
        ))
        if isinstance(built, FAILURE_CLASSES):
            return
        assert not bad["built"], "built from a field outside its domain"
        n_modes, points = protocol["n_modes"], run["record_points"]
        calls = (
            ("stability_margin", False, lambda: stability_margin(built)),
            ("run_simulation", bad["run"], lambda: dynamics.run_simulation(built, **run)),
            ("sweep_tf", bad["run"] or bad["tf_list"],
             lambda: dynamics.sweep_tf(built, tf_list, **run)),
        )
        for name, refused, call in calls:
            integrations.clear()
            result = outcome(call)
            if refused:
                assert isinstance(result, FAILURE_CLASSES), name
                assert integrations == [], name
            elif isinstance(result, FAILURE_CLASSES):
                continue
            elif name == "stability_margin":
                assert isinstance(result, StabilityReport)
            elif name == "sweep_tf":
                assert [row.t_f for row in result] == [float(t) for t in tf_list]
                assert all(row.failure is None or isinstance(row.failure, FAILURE_CLASSES)
                           for row in result)
            else:
                traj = result.trajectories
                assert traj.n_qp.shape == (n_modes, points), name
                assert np.all(np.isfinite(traj.n_qp)), name
