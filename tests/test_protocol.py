"""Protocol-level tests: the coefficient grid, validation, speed-window
criteria and the closed-form bound."""

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tllcd import cli, dynamics, protocol
from tllcd.closed_forms import controlled_coefficients
from tllcd.errors import (
    CDInstabilityError,
    ConfigError,
    ContractError,
    LuttingerInstabilityError,
)
from tllcd.model import TWO_PI, CouplingFamily, CouplingSpec
from tllcd.protocol import (
    ADIABATIC_THRESHOLD,
    STABILITY_GRID_POINTS,
    DriveProtocol,
    Schedule,
    ScheduleKind,
    closed_form_bound,
    stability_margin,
)


def reference_protocol(t_f=9.498860966469166, n_modes=4, L=100.0, cd=True):
    return DriveProtocol(
        coupling=CouplingSpec(
            family=CouplingFamily.CONTACT,
            g2_start=0.0,
            g2_end=1.0,
            g4_start=0.0,
            g4_end=0.5,
        ),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=t_f,
        L=L,
        n_modes=n_modes,
        cd_enabled=cd,
    )


def test_protocol_validation():
    with pytest.raises(ContractError):
        reference_protocol(t_f=-1.0)
    with pytest.raises(ContractError):
        reference_protocol(n_modes=0)
    # n_modes = 2.5 used to run 3 modes, and True 1
    for n_modes in (2.5, 4.0, True):
        with pytest.raises(ContractError, match="integer n_modes"):
            reference_protocol(n_modes=n_modes)
    assert reference_protocol(n_modes=np.int64(3)).momenta().shape == (3,)


@pytest.mark.parametrize(
    "build",
    [
        lambda: reference_protocol(t_f=float("nan")),
        lambda: reference_protocol(t_f=float("inf")),
        lambda: reference_protocol(L=float("nan")),
        lambda: reference_protocol(L=float("inf")),
        lambda: replace(reference_protocol(), v_F=float("nan")),
        lambda: reference_protocol().with_tf(float("nan")),
        lambda: CouplingSpec(g2_end=float("nan")),
        lambda: CouplingSpec(g4_start=float("-inf")),
        lambda: CouplingSpec(CouplingFamily.LORENTZIAN, 0.0, 1.0, 0.0, 1.0, R0=float("nan")),
        lambda: CouplingSpec(
            CouplingFamily.CUSTOM_TABLE, table=((0.0, 1.0, 0.5), (1.0, float("nan"), 0.5))
        ),
    ],
    ids=[
        "t_f-nan", "t_f-inf", "L-nan", "L-inf", "v_F-nan", "with_tf-nan", "g2_end-nan",
        "g4_start-inf", "R0-nan", "table-entry-nan",
    ],
)
def test_non_finite_protocol_fields_are_refused_where_built(build):
    # NaN passes `<= 0` and raises no float64 flag, so validate() would
    # never see it: each field is refused at construction, as the command
    # line refuses it at parse time, and exits 2 as a config error
    with pytest.raises(ContractError, match="must be finite") as caught:
        build()
    assert type(caught.value) is ContractError
    assert cli.failure_exit(caught.value) == (cli.EXIT_CONFIG, "config error")


def test_momenta_grid():
    proto = reference_protocol(n_modes=3)
    assert np.allclose(proto.momenta(), TWO_PI * np.array([1, 2, 3]) / 100.0)


def test_chi_zero_without_cd():
    proto = reference_protocol(cd=False)
    t = 0.5 * proto.t_f
    assert proto.grid(0.1, t).chi[0, 0] == 0.0
    assert proto.grid(0.1, t).chi_cd[0, 0] != 0.0
    assert reference_protocol().grid(0.1, t).chi[0, 0] != 0.0


def test_controlled_equals_bare_frequencies():
    proto = reference_protocol()
    p = proto.momenta()[1]
    t = 0.5 * proto.t_f
    c = proto.grid(p, t)
    K, v_s, kdot_over_k = c.K[0, 0], c.v_s[0, 0], 2 * c.chi_cd[0, 0]
    cc = controlled_coefficients(p, K, v_s, kdot_over_k, proto.v_F)
    assert cc.omega_cd == pytest.approx(c.omega[0, 0], rel=1e-12)
    assert cc.g_cd == pytest.approx(c.g[0, 0], rel=1e-12)
    assert cc.chi == pytest.approx(c.chi[0, 0], abs=1e-14)


def test_closed_form_bound_frozen():
    # L |Delta g2| max P' / (2 pi v_F)^2 with max P' = 1.875
    proto = reference_protocol()
    assert closed_form_bound(proto) == pytest.approx(4.749430483234583, abs=1e-12)


def test_closed_form_bound_none_for_table():
    proto = DriveProtocol(
        coupling=CouplingSpec(
            family=CouplingFamily.CUSTOM_TABLE,
            table=((0.0, 0.0, 0.0), (1.0, 1.0, 0.5)),
        ),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=5.0,
        L=100.0,
        n_modes=2,
    )
    assert closed_form_bound(proto) is None


def test_stability_margin_reference_run():
    report = stability_margin(reference_protocol())
    assert report.passed
    assert report.margin > 0.0
    assert report.bound_tf == pytest.approx(4.749430483234583, abs=1e-12)


def test_stability_fails_for_fast_drive():
    report = stability_margin(reference_protocol(t_f=0.05))
    assert not report.passed
    assert report.margin < 0.0


# stable in every mode at t_f = 6 except near the g2 step of the table,
# where |chi_cd| outgrows v_s p first at mode 4, not at p_min
STEP_TABLE = ((0.0, 0.01, 0.0), (0.1, 0.01, 0.0), (0.2, 5.5, 0.0), (2.0, 5.5, 0.0))


def all_mode_stability(proto):
    """(margin, argmin_p, argmin_t, max adiabaticity) over every mode at
    once, unblocked: the reference stability_margin's blocks must match."""
    t = np.linspace(0.0, proto.t_f, STABILITY_GRID_POINTS)
    c = proto.grid(proto.momenta(), t)
    excess = c.v_s * c.p - np.abs(c.chi_cd)
    mode, j = np.unravel_index(np.argmin(excess), excess.shape)
    return excess[mode, j], c.p[mode, 0], t[j], np.max(c.adiabaticity)


@pytest.mark.parametrize("block", [1, 3, protocol.STABILITY_BLOCK_MODES])
@pytest.mark.parametrize("family", ["contact", "lorentzian", "custom_table"])
def test_stability_margin_covers_every_mode(family, block, monkeypatch):
    # smaller blocks move the worst mode out of the first block
    monkeypatch.setattr(protocol, "STABILITY_BLOCK_MODES", block)
    coupling = {
        "contact": reference_protocol().coupling,
        "lorentzian": CouplingSpec(
            family=CouplingFamily.LORENTZIAN, g2_end=1.0, g4_end=1.0, R0=0.2
        ),
        "custom_table": CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=STEP_TABLE),
    }[family]
    # 9 modes: full blocks and a partial one
    proto = replace(reference_protocol(t_f=6.0, n_modes=9), coupling=coupling)
    report = stability_margin(proto)
    got = (report.margin, report.argmin_p, report.argmin_t, report.max_adiabaticity)
    assert got == all_mode_stability(proto)
    assert report.t_adiabatic == 6.0 * report.max_adiabaticity / ADIABATIC_THRESHOLD
    if family == "custom_table":
        assert not report.passed
        assert report.argmin_p == proto.momenta()[3]
        assert report.argmin_t == pytest.approx(4.485, abs=1e-12)


def test_the_gate_alone_refuses_a_dip_between_four_samples(monkeypatch):
    # four stability times (s = 0, 1/3, 2/3, 1) miss the poly5 peak of
    # |chi| between them: sampled, the least margin at t_f = 2 is +0.0068;
    # refined between the samples it is the least on [0, t_f], and the gate
    # refuses a run before it forms a record grid
    monkeypatch.setattr(protocol, "STABILITY_GRID_POINTS", 4)
    proto = reference_protocol(t_f=2.0, n_modes=2)
    sampled = proto.grid(proto.momenta()[:1], np.linspace(0.0, 2.0, 4)).margin
    assert np.min(sampled) == pytest.approx(0.0068, abs=1e-4)
    report = stability_margin(proto)
    assert not report.passed
    fine = proto.grid(proto.momenta()[:1], np.linspace(0.0, 2.0, 200_001)).margin
    assert report.margin == pytest.approx(np.min(fine), abs=1e-9)
    assert report.argmin_p == proto.momenta()[0]
    with pytest.raises(CDInstabilityError, match="cd-instability at p = 0.0628319, t = 0.95"):
        dynamics.run_simulation(proto, record_points=21)


COUPLINGS = {
    "contact": reference_protocol().coupling,
    "lorentzian": CouplingSpec(family=CouplingFamily.LORENTZIAN, g2_end=0.8, g4_end=0.8, R0=0.5),
    "custom_table": CouplingSpec(
        family=CouplingFamily.CUSTOM_TABLE,
        table=((0.0, 0.9, 0.45), (0.5, 0.8, 0.4), (2.5, 0.6, 0.35)),
    ),
}
SCHEDULES = {
    "poly5": Schedule(ScheduleKind.POLY5),
    "linear": Schedule(ScheduleKind.LINEAR),
}


@functools.cache
def at_the_gates_edge(family, schedule) -> DriveProtocol:
    """The protocol of `family` and `schedule` on 4 modes at the least t_f
    the gate passes, bisected until the t_f it refuses is the float64 just
    below: a margin at the level of rounding."""
    proto = DriveProtocol(COUPLINGS[family], SCHEDULES[schedule], t_f=1.0, L=20.0, n_modes=4)
    refused, passed = 1e-3, 1e3
    while refused < (t_f := math.sqrt(refused * passed)) < passed:
        if stability_margin(proto.with_tf(t_f)).passed:
            passed = t_f
        else:
            refused = t_f
    return proto.with_tf(passed)


@given(
    st.sampled_from(sorted(COUPLINGS)),
    st.sampled_from(sorted(SCHEDULES)),
    st.integers(2, 20_001),
)
@example("contact", "poly5", 20_001)
@example("custom_table", "poly5", 20_001)
@settings(max_examples=60, deadline=None)
def test_a_passed_gate_holds_on_every_record_grid(family, schedule, record_points):
    # at the edge of the gate, the margin of every mode at every record is
    # positive: the gate's verdict is exact between its 2001 samples, not
    # only on them, so a run needs no second check of its records
    proto = at_the_gates_edge(family, schedule)
    times = np.linspace(0.0, proto.t_f, record_points)
    margin = proto.grid(proto.momenta(), times).margin
    assert np.min(margin) > 0.0


def test_stability_margin_evaluates_the_schedule_once(monkeypatch):
    # every 4-mode block reads the same schedule values: 9 modes are three
    # blocks and one schedule evaluation
    calls = []
    real = protocol.schedule_value

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(protocol, "schedule_value", counted)
    coupling = CouplingSpec(family=CouplingFamily.CUSTOM_TABLE, table=STEP_TABLE)
    proto = replace(reference_protocol(t_f=6.0, n_modes=9), coupling=coupling)
    stability_margin(proto)
    assert len(calls) == 1


def test_adiabaticity_identity_at_slowest_mode():
    # parameter at p = 2 pi / L equals L/(2 pi) |v_sdot| / v_s^2
    proto = reference_protocol()
    p = TWO_PI / proto.L
    t = 0.5 * proto.t_f
    c = proto.grid(p, t)
    expect = proto.L / TWO_PI * abs(c.v_s_rate[0, 0]) / c.v_s[0, 0] ** 2
    assert c.adiabaticity[0, 0] == pytest.approx(expect, rel=1e-12)


def test_adiabatic_time_scales_with_tf():
    slow = stability_margin(reference_protocol(t_f=20.0))
    # max adiabaticity ~ 1/t_f, so t_adiabatic is t_f-independent
    fast = stability_margin(reference_protocol(t_f=10.0))
    assert slow.t_adiabatic == pytest.approx(fast.t_adiabatic, rel=1e-2)


def test_validate_refuses_what_a_run_at_its_t_f_would_overflow():
    # rates grow as 1/t_f and the phase omega t_f with t_f, so a protocol's
    # own t_f decides both (omega = 27 at p = 8 pi)
    proto = reference_protocol(L=1.0)
    for t_f in (1e-100, 1e100):
        proto.with_tf(t_f).validate()
    # without g4, the rate of g2 alone (a numpy scalar) overflows at 1e-308
    no_g4 = replace(proto, coupling=replace(proto.coupling, g4_end=0.0))
    # 18 t_f omega/p, a stop-gap bound on the phase until a precision floor
    # refuses it (ROADMAP item 15): beyond float64 at t_f = 1e307
    panel = reference_protocol(t_f=1e307, n_modes=1)
    for case in (proto.with_tf(1e-308), no_g4.with_tf(1e-308), proto.with_tf(1e308), panel):
        with pytest.raises(ConfigError, match="out of range: overflow"):
            case.validate()
    # an unstable coupling is refused as unstable, though its chi_cd would
    # overflow; an overflow of g itself is out of range, stable or not
    unstable = replace(proto, coupling=replace(proto.coupling, g2_end=1e300))
    with pytest.raises(LuttingerInstabilityError):
        unstable.validate()
    with pytest.raises(ConfigError, match="out of range: overflow"):
        replace(unstable, coupling=replace(unstable.coupling, g2_end=1e308)).validate()
    # a coupling span beyond float64 (inf times P = 0) and a v_F whose
    # square underflows in chi_cd (0/0) are out of range too, not warnings
    for case in (
        replace(proto, coupling=CouplingSpec(g2_start=-1e308, g2_end=1e308)),
        replace(proto, coupling=CouplingSpec(), v_F=1e-200),
    ):
        with pytest.raises(ConfigError, match="out of range: invalid value"):
            case.validate()
    # closed_form_bound divides by (2 pi v_F)^2, which underflows to 0 at
    # v_F = 1e-200 and leaves the bound beyond float64 at 1e-160, though
    # chi_cd stays in range where g4 starts above 0
    slow = replace(proto, coupling=CouplingSpec(g2_end=0.25, g4_start=0.1, g4_end=0.5))
    for v_F, kind in ((1e-200, "divide by zero"), (1e-160, "overflow")):
        with pytest.raises(ConfigError, match=f"out of range: {kind}"):
            replace(slow, v_F=v_F).validate()


def test_the_api_refuses_a_run_out_of_range(monkeypatch):
    # (2 pi v_F + g4)^2 overflows in chi_cd: run_simulation and
    # stability_margin refuse the protocol before they integrate or warn
    def no_integration(*args, **kwargs):
        raise AssertionError("integration ran on a protocol out of range")

    monkeypatch.setattr(dynamics, "integrate_modes", no_integration)
    proto = replace(reference_protocol(), coupling=CouplingSpec(g4_end=5e154))
    for call in (dynamics.run_simulation, stability_margin):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="out of range: overflow"):
                call(proto)


def test_validate_rejects_unstable_coupling():
    proto = DriveProtocol(
        coupling=CouplingSpec(g2_start=0.0, g2_end=TWO_PI + 0.5),
        schedule=Schedule(ScheduleKind.POLY5),
        t_f=5.0,
        L=100.0,
        n_modes=2,
    )
    with pytest.raises(LuttingerInstabilityError, match="luttinger-instability"):
        proto.validate()


def test_validate_is_exact_at_the_stability_edge():
    # omega - |g| is smallest at an extreme of P: a ramp ending just below
    # the edge passes and one ending at it fails, for every schedule kind
    edge = TWO_PI
    for schedule in (
        Schedule(ScheduleKind.POLY5),
        Schedule(ScheduleKind.LINEAR),
    ):
        for g2_end, stable in ((edge * (1 - 1e-12), True), (edge, False)):
            proto = DriveProtocol(
                coupling=CouplingSpec(g2_end=g2_end),
                schedule=schedule,
                t_f=5.0,
                L=100.0,
                n_modes=3,
            )
            if stable:
                proto.validate()
            else:
                with pytest.raises(ContractError, match="luttinger-instability"):
                    proto.validate()


def test_errors_name_the_worst_point():
    proto = reference_protocol()
    with pytest.raises(ContractError, match=r"schedule argument 1\.5 outside"):
        proto.grid(proto.momenta(), [0.0, 1.2 * proto.t_f, 1.5 * proto.t_f])


def test_with_tf_and_with_cd():
    proto = reference_protocol()
    assert proto.with_tf(3.0).t_f == 3.0
    assert not proto.with_cd(False).cd_enabled
    # original untouched (frozen dataclass)
    assert proto.cd_enabled and proto.t_f != 3.0
