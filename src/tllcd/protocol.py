"""Drive protocol: the ramp schedules, couplings + schedule + geometry, with
one evaluator of the frequencies, Luttinger parameters and CD amplitude over
(p, t) grids, plus the stability and adiabaticity criteria that constrain
the driving speed."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import model
from .errors import ConfigError, ContractError, LuttingerInstabilityError
from .model import TWO_PI, CouplingFamily, CouplingSpec, PairCoefficients

STABILITY_GRID_POINTS = 2001
# modes per stability evaluation: about 8,000 grid points, so that memory
# does not grow with n_modes
STABILITY_BLOCK_MODES = 4
ADIABATIC_THRESHOLD = 0.01

# Global maximum of the fifth-order ramp derivative 30 s^2 (1-s)^2, at s=1/2.
POLY5_MAX_DPDS = 1.875


class ScheduleKind(str, Enum):
    POLY5 = "poly5"
    LINEAR = "linear"
    CUSTOM_SAMPLES = "custom_samples"


@dataclass(frozen=True)
class Schedule:
    """Monotone ramp P(s) with P(0)=0, P(1)=1.

    poly5 is the fifth-order ansatz 10 s^3 - 15 s^4 + 6 s^5 with vanishing
    first and second derivatives at both ends.  custom_samples interpolates
    (s, P) pairs linearly.
    """

    kind: ScheduleKind = ScheduleKind.POLY5
    samples: tuple = field(default=None)

    def __post_init__(self):
        if self.kind == ScheduleKind.CUSTOM_SAMPLES:
            if not self.samples or len(self.samples) < 2:
                raise ContractError("custom schedule needs at least two samples")
            pts = sorted(self.samples)
            if abs(pts[0][0]) > 1e-12 or abs(pts[0][1]) > 1e-12:
                raise ContractError("custom schedule must start at (0, 0)")
            if abs(pts[-1][0] - 1) > 1e-12 or abs(pts[-1][1] - 1) > 1e-12:
                raise ContractError("custom schedule must end at (1, 1)")
            if any(a[0] == b[0] for a, b in zip(pts, pts[1:])):
                raise ContractError("custom schedule samples need distinct s")

    def max_derivative(self) -> float:
        """The steepest slope max |dP/ds| on [0, 1]: of custom samples, the
        steepest of their segments, falling or rising."""
        if self.kind == ScheduleKind.POLY5:
            return POLY5_MAX_DPDS
        if self.kind == ScheduleKind.LINEAR:
            return 1.0
        xs, ys = self.sample_arrays()
        return float(np.max(np.abs(np.diff(ys) / np.diff(xs))))

    def sample_arrays(self):
        """(s, P) columns of the custom samples, sorted by s."""
        return tuple(np.array(col) for col in zip(*sorted(self.samples)))

    def extremes(self):
        """(s, P): the arguments and values where P(s) is least and greatest
        on [0, 1]; P is piecewise linear between custom samples."""
        if self.kind != ScheduleKind.CUSTOM_SAMPLES:
            return np.array([0.0, 1.0]), np.array([0.0, 1.0])
        xs, ys = self.sample_arrays()
        at = [np.argmin(ys), np.argmax(ys)]
        return xs[at], ys[at]


def schedule_value(s, schedule: Schedule):
    """(P(s), dP/ds) for s in [0, 1]; array arguments give arrays."""
    if not np.all((s >= 0.0) & (s <= 1.0)):
        (worst,) = model.worst_point(np.maximum(-s, np.subtract(s, 1.0)), s)
        raise ContractError(f"schedule argument {worst} outside [0, 1]")
    if schedule.kind == ScheduleKind.POLY5:
        P = s * s * s * (10.0 + s * (-15.0 + 6.0 * s))
        dP = 30.0 * s * s * (1.0 - s) ** 2
        return P, dP
    if schedule.kind == ScheduleKind.LINEAR:
        return s, np.ones_like(s)[()]
    xs, ys = schedule.sample_arrays()
    i = np.clip(np.searchsorted(xs, s, side="right") - 1, 0, len(xs) - 2)
    slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    return ys[i] + slope * (s - xs[i]), slope


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
    reads omega/p, g/p and v_s, and chi and chi_cd on the Magnus route.
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
        if self.t_f <= 0 or self.L <= 0 or self.n_modes < 1 or self.v_F <= 0:
            raise ContractError("protocol requires t_f, L, v_F > 0 and n_modes >= 1")

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
        the greatest P the schedule reaches: those two points decide
        stability.  The couplings' rates are proportional to dP/ds / t_f, so
        the couplings, their rates and every product of them that a run
        forms are largest there too, at the steepest slope.  On that grid
        the check forms omega and g (an overflow there is a ConfigError,
        stable or not), refuses |g| >= omega, then forms chi_cd, v_s, its
        rate and the adiabaticity, the squares of omega and chi_cd (in the
        spectra), t_adiabatic and omega t_f (the largest phase).
        """
        s, P = self.schedule.extremes()
        P = P[None, :]
        # numpy, not Python, floats: a Python float overflows to inf silently
        dP = np.float64(self.schedule.max_derivative())
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                p = self.momenta()[:, None]
                c = self._coefficients(p, P, dP)
                excess = np.abs(c.g) - c.omega
                if np.any(excess >= 0):
                    p, s = model.worst_point(excess, p, s)
                    raise LuttingerInstabilityError(
                        f"luttinger-instability at p={p:.6g}, t={s * self.t_f:.6g}"
                    )
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


def stability_margin(protocol: DriveProtocol) -> StabilityReport:
    """The protocol's one stability verdict: validate(), then the worst-case
    margin of |chi_p(t)| < v_s(p, t) p over the modes and STABILITY_GRID_POINTS
    times, where it is least, and the largest adiabaticity on the same grid.

    Every mode is evaluated, STABILITY_BLOCK_MODES at a time, from one
    evaluation of the schedule.  Contact
    couplings are evaluated at the slowest mode p = 2 pi/L alone: there v_s
    and chi do not depend on p, so that mode saturates both criteria first.
    The CD amplitude is evaluated regardless of cd_enabled: the criterion
    limits what switching CD on would do.
    """
    protocol.validate()
    t = np.linspace(0.0, protocol.t_f, STABILITY_GRID_POINTS)
    P, dP = schedule_value(t[None, :] / protocol.t_f, protocol.schedule)
    if protocol.coupling.family == CouplingFamily.CONTACT:
        momenta = np.array([TWO_PI / protocol.L])
    else:
        momenta = protocol.momenta()
    # per block: (least margin, its p, its t, largest adiabaticity)
    blocks = []
    for start in range(0, len(momenta), STABILITY_BLOCK_MODES):
        p = momenta[start : start + STABILITY_BLOCK_MODES, None]
        c = protocol._coefficients(p, P, dP)
        excess = c.v_s * c.p - np.abs(c.chi_cd)
        mode, j = np.unravel_index(np.argmin(excess), excess.shape)
        blocks.append((excess[mode, j], c.p[mode, 0], t[j], np.max(c.adiabaticity)))
    blocks = np.array(blocks)
    margin, argmin_p, argmin_t = map(float, blocks[np.argmin(blocks[:, 0]), :3])
    max_adiab = float(np.max(blocks[:, 3]))
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
