"""Drive protocol: the ramp schedules, couplings + schedule + geometry, with
one evaluator of the frequencies, Luttinger parameters and CD amplitude over
(p, t) grids, plus the stability and adiabaticity criteria that constrain
the driving speed."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import model
from .errors import ConfigError, ContractError
from .model import TWO_PI, CouplingFamily, CouplingSpec, PairCoefficients

STABILITY_GRID_POINTS = 2001
# modes per stability evaluation: about 8,000 grid points, so that memory
# does not grow with n_modes
STABILITY_BLOCK_MODES = 4
# times per cell and round of the gate's refinement between its samples
ZOOM_POINTS = 33
ADIABATIC_THRESHOLD = 0.01

# Global maximum of the fifth-order ramp derivative 30 s^2 (1-s)^2, at s=1/2.
POLY5_MAX_DPDS = 1.875


class ScheduleKind(str, Enum):
    POLY5 = "poly5"
    LINEAR = "linear"


@dataclass(frozen=True)
class Schedule:
    """Monotone ramp P(s) with P(0)=0, P(1)=1.

    poly5 is the fifth-order ansatz 10 s^3 - 15 s^4 + 6 s^5 with vanishing
    first and second derivatives at both ends; linear is P = s.  Both rise
    monotonically.  `kind` may be given as its value ("poly5", "linear");
    an unknown one is a ContractError where the schedule is built.
    """

    kind: ScheduleKind = ScheduleKind.POLY5

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ScheduleKind(self.kind))
        except ValueError:
            raise ContractError(f"unknown schedule '{self.kind}'") from None

    def max_derivative(self) -> float:
        """The steepest slope max |dP/ds| on [0, 1]."""
        return POLY5_MAX_DPDS if self.kind == ScheduleKind.POLY5 else 1.0


def schedule_value(s, schedule: Schedule):
    """(P(s), dP/ds) for s in [0, 1]; array arguments give arrays."""
    if not np.all((s >= 0.0) & (s <= 1.0)):
        (worst,) = model.worst_point(np.maximum(-s, np.subtract(s, 1.0)), s)
        raise ContractError(f"schedule argument {worst} outside [0, 1]")
    if schedule.kind == ScheduleKind.POLY5:
        P = s * s * s * (10.0 + s * (-15.0 + 6.0 * s))
        dP = 30.0 * s * s * (1.0 - s) ** 2
        return P, dP
    return s, np.ones_like(s)[()]


@dataclass(frozen=True)
class CoefficientGrid:
    """Pair coefficients and Luttinger parameters at every point of a
    (mode, time) grid, from the couplings and their time derivatives there.

    `p` is the column of momenta; g2, g4, dg2, dg4 are as evaluated, on the
    couplings' own shape: one row where they do not depend on p (contact
    couplings), else one row per mode.  omega/p, g/p, v_s and v_s_rate keep
    that shape and broadcast against `p`; every other array has shape
    (n_modes, n_times).  Each is computed on first read (omega/p and g/p on
    every read), so a caller pays only for what it reads: the integrator
    reads omega/p, g/p and v_s, and chi and chi_cd on the Magnus route; the
    CD margin reads v_s and chi_cd, and the observables omega, g and chi.
    """

    p: np.ndarray
    g2: np.ndarray
    g4: np.ndarray
    dg2: np.ndarray  # dg2/dt
    dg4: np.ndarray  # dg4/dt
    v_F: float
    cd_enabled: bool

    @cached_property
    def _pair(self):
        return model.pair_frequencies(self.p, self.g2, self.g4, self.v_F)

    def _full(self, x) -> np.ndarray:
        # the shape of omega, without evaluating omega
        return np.broadcast_to(x, (self.p.shape[0], self.g4.shape[1]))

    @cached_property
    def omega(self) -> np.ndarray:
        return self._pair[0]

    @cached_property
    def g(self) -> np.ndarray:
        return self._pair[1]

    # omega/p and g/p are formed on each read, one operation on the
    # couplings' shape, so that no grid holds them: on the record grid of a
    # p-dependent coupling each would be another (n_modes, n_times) array
    @property
    def omega_per_p(self) -> np.ndarray:
        """omega/p = v_F + g4/2pi, on the couplings' shape."""
        return self.v_F + self.g4 / TWO_PI

    @property
    def g_per_p(self) -> np.ndarray:
        """g/p = g2/2pi, on the couplings' shape."""
        return self.g2 / TWO_PI

    @cached_property
    def chi(self) -> np.ndarray:
        """CD amplitude the protocol applies: 0 without CD."""
        return self.chi_cd if self.cd_enabled else self._full(0.0)

    @cached_property
    def chi_cd(self) -> np.ndarray:
        """Kdot/(2K), whether or not CD is applied."""
        args = (self.g2, self.g4, self.dg2, self.dg4, self.v_F)
        return self._full(model.cd_amplitude_contact(*args))

    @property
    def margin(self) -> np.ndarray:
        """The CD margin model.cd_margin of v_s and chi_cd, on each read."""
        return model.cd_margin(self.v_s, self.p, self.chi_cd)

    @cached_property
    def K(self) -> np.ndarray:
        return self._full(model.luttinger_params(self.g2, self.g4, self.v_F).K)

    @cached_property
    def v_s(self) -> np.ndarray:
        """Sound velocity sqrt((omega/p)^2 - (g/p)^2) = epsilon/p, on the
        couplings' shape, without K."""
        return model.instantaneous_spectrum(self.omega_per_p, self.g_per_p)

    @cached_property
    def v_s_rate(self) -> np.ndarray:
        """d v_s/dt = (d(v_s^2)/dt)/(2 v_s), on the couplings' shape, with
        d(v_s^2)/dt = 2 (v_F + g4/2pi) g4dot/2pi - 2 (g2/2pi) g2dot/2pi."""
        dvs_sq = (
            2.0 * self.omega_per_p * self.dg4 / TWO_PI
            - 2.0 * self.g_per_p * self.dg2 / TWO_PI
        )
        return 0.5 * dvs_sq / self.v_s

    @cached_property
    def adiabaticity(self) -> np.ndarray:
        """|v_sdot / (v_s^2 p)|: small values mark the adiabatic regime."""
        return np.abs(self.v_s_rate) / (self.v_s**2 * self.p)


@dataclass(frozen=True)
class DriveProtocol:
    coupling: CouplingSpec
    schedule: Schedule
    t_f: float
    L: float
    n_modes: int
    cd_enabled: bool = True
    v_F: float = 1.0

    def __post_init__(self):
        model.require_finite("protocol t_f and v_F", (self.t_f, self.v_F))
        if self.t_f <= 0 or self.v_F <= 0:
            raise ContractError("protocol requires t_f, v_F > 0")
        model.require_mode_grid(self.L, self.n_modes)

    def momenta(self) -> np.ndarray:
        return model.mode_momenta(self.L, self.n_modes)

    def grid(self, p, t) -> CoefficientGrid:
        """The coefficients over p[:, None] x t[None, :]: the schedule and
        the couplings are evaluated here, once, and every coefficient is
        composed from them when it is first read."""
        p = np.atleast_1d(np.asarray(p, dtype=float))[:, None]
        t = np.atleast_1d(np.asarray(t, dtype=float))[None, :]
        return self._coefficients(p, *schedule_value(t / self.t_f, self.schedule))

    def _coefficients(self, p, P, dP) -> CoefficientGrid:
        """The coefficients at the momenta column p, schedule values P and
        slopes dP/ds: the couplings' rates are dg/dP * dP/ds / t_f."""
        g2, g4, dg2_dP, dg4_dP = self.coupling.at(p, P)
        dg2, dg4 = dg2_dP * dP / self.t_f, dg4_dP * dP / self.t_f
        return CoefficientGrid(p, g2, g4, dg2, dg4, self.v_F, self.cd_enabled)

    def pair_generator(self, p: float, t: float) -> PairCoefficients:
        """(omega, g, chi) of one pair at one time, as Python floats."""
        c = self.grid(p, t)
        return PairCoefficients(*(float(x[0, 0]) for x in (c.omega, c.g, c.chi)))

    def with_tf(self, t_f: float) -> "DriveProtocol":
        return replace(self, t_f=t_f)

    def with_cd(self, cd_enabled: bool) -> "DriveProtocol":
        return replace(self, cd_enabled=cd_enabled)

    def validate(self) -> None:
        """The one check a run passes before it forms any coefficient:
        LuttingerInstabilityError where |g| >= omega for some mode on the
        ramp, ConfigError where the mode momenta or a formula that a run
        forms overflows, divides by zero or is invalid in float64.

        g2 and g4 are affine in the schedule value P for every coupling
        family, so omega - |g| is concave in P and smallest at the least or
        the greatest P the schedule reaches, P = 0 at s = 0 and P = 1 at
        s = 1 (every schedule rises monotonically): those two points decide
        stability.  The couplings' rates are proportional to dP/ds / t_f, so
        the couplings, their rates and every product of them that a run
        forms are largest there too, at the steepest slope.  On that grid
        the check forms omega and g (an overflow there is a ConfigError,
        stable or not), refuses |g| >= omega, then forms chi_cd, v_s, its
        rate and the adiabaticity, the squares of omega and chi_cd (in the
        spectra), t_adiabatic and omega t_f (the largest phase).  The mode
        momenta are formed inside the range check.
        """
        # the ends s = 0 and 1, where P(s) = s
        s = np.array([0.0, 1.0])
        # numpy, not Python, floats: a Python float overflows to inf silently
        dP = np.float64(self.schedule.max_derivative())
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                p = self.momenta()[:, None]
                c = self._coefficients(p, s[None, :], dP)
                model.check_pair_stable(c.omega, c.g, p, s * self.t_f)
                np.square(c.omega)
                np.square(c.chi_cd)
                self.t_f * c.adiabaticity / ADIABATIC_THRESHOLD
                c.omega * self.t_f
        except FloatingPointError as exc:
            raise ConfigError(f"mode momenta or couplings out of range: {exc}") from exc


@dataclass(frozen=True)
class StabilityReport:
    margin: float
    passed: bool
    bound_tf: float | None
    t_adiabatic: float
    max_adiabaticity: float
    # the point of the stability grid where the margin is least
    argmin_p: float
    argmin_t: float


def closed_form_bound(protocol: DriveProtocol) -> float | None:
    """Closed-form lower bound on t_f, L |Delta g2 max P'|/(2 pi v_F)^2.

    Stated for equal couplings ramped from zero; generalized here through the
    g2 span, which controls Kdot/K at weak coupling.  None for tabulated
    couplings (no analytic span).
    """
    c = protocol.coupling
    if c.family == CouplingFamily.CUSTOM_TABLE:
        return None
    span = abs(c.g2_end - c.g2_start)
    return (
        protocol.L
        * span
        * protocol.schedule.max_derivative()
        / (TWO_PI * protocol.v_F) ** 2
    )


def _rounding(v_F, p, g2, g4, v_s, chi_cd):
    """A bound on the float64 rounding of the margin v_s p - |chi_cd| at
    momenta p and couplings g2, g4, elementwise, twice over: that of a
    margin the gate evaluates and that of one a record grid evaluates.
    Each of v_s p and chi_cd is formed
    from a = 2 pi v_F + g4 and g2 by at most 16 roundings of relative size
    eps (model.instantaneous_spectrum, model.cd_amplitude_contact), and the
    two differences among them, a = 2 pi v_F + g4 and a^2 - g2^2, amplify a
    rounding by at most their condition numbers
    (2 pi v_F + |g4|)/a and (a^2 + g2^2)/(a^2 - g2^2), which validate()
    keeps finite: a^2 > g2^2 wherever the coupling is stable.  Against
    50-digit arithmetic on 400 random contact ramps one margin's rounding
    was at most 9.3 eps times the same factors."""
    a = TWO_PI * v_F + g4
    kappa = (TWO_PI * v_F + np.abs(g4)) / a * (a * a + g2 * g2) / (a * a - g2 * g2)
    return 2 * 16 * np.finfo(float).eps * kappa * (v_s * p + np.abs(chi_cd))


def _refined_least(protocol: DriveProtocol, momenta, t, P, dP, within) -> tuple:
    """(margin, p, t): the least margin of `protocol` on the modes `momenta`
    between the stability times `t`, of schedule values P and slopes dP,
    less the largest _rounding of the margins evaluated, and where it is
    least.

    Every cell (t[i], t[i+1]) of every mode row whose sampled margin at
    either end is at most `within` is zoomed at once: each round evaluates
    ZOOM_POINTS times across every cell, in one _coefficients call, and
    keeps the two intervals beside the least of them, so that each cell
    shrinks by (ZOOM_POINTS - 1)/2 a round, until it spans about one
    float64 spacing of t_f."""
    t_f, schedule = protocol.t_f, protocol.schedule
    zoom = np.linspace(0.0, 1.0, ZOOM_POINTS)
    rounds = math.ceil(math.log(t[1] / np.spacing(t_f), (ZOOM_POINTS - 1) / 2))
    # (least margin, its p, its t, largest rounding) of each round
    found = []
    for start in range(0, len(momenta), STABILITY_BLOCK_MODES):
        p = momenta[start : start + STABILITY_BLOCK_MODES, None]
        margin = protocol._coefficients(p, P, dP).margin
        rows, cells = np.nonzero(np.minimum(margin[:, :-1], margin[:, 1:]) <= within)
        p, lo, hi = p[rows], t[cells, None], t[cells + 1, None]
        for _ in range(rounds if rows.size else 0):
            x = np.clip(lo + (hi - lo) * zoom, lo, hi)
            c = protocol._coefficients(p, *schedule_value(x / t_f, schedule))
            margin = c.margin
            rounding = np.max(_rounding(c.v_F, p, c.g2, c.g4, c.v_s, c.chi_cd))
            found.append((*model.worst_point(-margin, margin, p, x), rounding))
            at = np.argmin(margin, axis=1)[:, None]
            lo = np.take_along_axis(x, np.maximum(at - 1, 0), axis=1)
            hi = np.take_along_axis(x, np.minimum(at + 1, ZOOM_POINTS - 1), axis=1)
    found = np.array(found)
    margin, p, t = found[np.argmin(found[:, 0]), :3]
    return margin - np.max(found[:, 3]), p, t


def stability_margin(protocol: DriveProtocol) -> StabilityReport:
    """The protocol's one stability verdict: validate(), then the least CD
    margin v_s p - |chi_cd| (model.cd_margin) over the modes and
    [0, t_f], where it is least, and the largest adiabaticity on the
    stability grid of STABILITY_GRID_POINTS times.

    Every mode is evaluated, STABILITY_BLOCK_MODES at a time, from one
    evaluation of the schedule.  Contact couplings are evaluated at the
    slowest mode alone, the first of momenta(), p_1 = 2 pi/L: there v_s and
    chi do not depend on p, so that mode saturates both criteria first.
    The CD amplitude is evaluated regardless of cd_enabled: the criterion
    limits what switching CD on would do.

    Between two samples the margin dips at most half the largest step it
    takes from one sample to the next, B.  A least sampled margin above
    B plus its rounding bound (_rounding) decides the verdict as it is, and
    is reported as sampled.  A positive one at or below it is refined
    (_refined_least) in every cell that could hold a margin below it, and
    the refined least, less the rounding bound, is reported with its
    (p, t): so a margin that rounding could not tell from 0 fails, and no
    record time of a passed protocol has a margin that is not positive.
    """
    protocol.validate()
    t = np.linspace(0.0, protocol.t_f, STABILITY_GRID_POINTS)
    P, dP = schedule_value(t[None, :] / protocol.t_f, protocol.schedule)
    if protocol.coupling.family == CouplingFamily.CONTACT:
        momenta = protocol.momenta()[:1]
    else:
        momenta = protocol.momenta()
    # per block: (least margin, its p, its t, and g2, g4, v_s and chi_cd
    # there, largest adiabaticity, largest step of the margin between samples)
    blocks = []
    for start in range(0, len(momenta), STABILITY_BLOCK_MODES):
        p = momenta[start : start + STABILITY_BLOCK_MODES, None]
        c = protocol._coefficients(p, P, dP)
        margin = c.margin
        least = model.worst_point(-margin, margin, c.p, t, c.g2, c.g4, c.v_s, c.chi_cd)
        step = np.max(np.abs(np.diff(margin, axis=1)))
        blocks.append((*least, np.max(c.adiabaticity), step))
    blocks = np.array(blocks)
    margin, argmin_p, argmin_t, *at = map(float, blocks[np.argmin(blocks[:, 0]), :7])
    max_adiab, step = map(float, np.max(blocks[:, 7:], axis=0))
    if 0.0 < margin <= step / 2 + _rounding(protocol.v_F, argmin_p, *at):
        refined = _refined_least(protocol, momenta, t, P, dP, margin + step / 2)
        margin, argmin_p, argmin_t = map(float, refined)
    t_adiab = (
        protocol.t_f * max_adiab / ADIABATIC_THRESHOLD if max_adiab > 0 else 0.0
    )
    return StabilityReport(
        margin=margin,
        passed=margin > 0.0,
        bound_tf=closed_form_bound(protocol),
        t_adiabatic=t_adiab,
        max_adiabaticity=max_adiab,
        argmin_p=argmin_p,
        argmin_t=argmin_t,
    )
