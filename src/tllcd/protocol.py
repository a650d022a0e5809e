"""Drive protocol: couplings + schedule + geometry, with one evaluator of
the frequencies, Luttinger parameters and CD amplitude over (p, t) grids,
plus the stability and adiabaticity criteria that constrain the driving
speed."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import model
from .control import Schedule, cd_amplitude_contact, schedule_value
from .errors import ContractError, LuttingerInstabilityError
from .model import TWO_PI, CouplingFamily, CouplingSpec, PairCoefficients

STABILITY_GRID_POINTS = 2001
ADIABATIC_THRESHOLD = 0.01


@dataclass(frozen=True)
class CoefficientGrid:
    """Pair coefficients and Luttinger parameters at every point of a
    (mode, time) grid, from the couplings and their time derivatives there.

    `p` is the column of momenta; g2, g4, dg2, dg4 are as evaluated and
    broadcast against it.  Every other array is computed on first read and
    has shape (n_modes, n_times), so a caller pays only for what it reads:
    the integrator reads omega, g and chi.
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

    @cached_property
    def _luttinger(self) -> model.LuttingerParams:
        return model.luttinger_params(self.g2, self.g4, self.v_F)

    def _full(self, x) -> np.ndarray:
        return np.broadcast_to(x, self.omega.shape)

    @cached_property
    def omega(self) -> np.ndarray:
        return self._pair[0]

    @cached_property
    def g(self) -> np.ndarray:
        return self._full(self._pair[1])

    @cached_property
    def chi(self) -> np.ndarray:
        """CD amplitude the protocol applies: 0 without CD."""
        return self.chi_cd if self.cd_enabled else self._full(0.0)

    @cached_property
    def chi_cd(self) -> np.ndarray:
        """Kdot/(2K), whether or not CD is applied."""
        args = (self.g2, self.g4, self.dg2, self.dg4, self.v_F)
        return self._full(cd_amplitude_contact(*args))

    @cached_property
    def K(self) -> np.ndarray:
        return self._full(self._luttinger.K)

    @cached_property
    def v_s(self) -> np.ndarray:
        return self._full(self._luttinger.v_s)

    @cached_property
    def v_s_rate(self) -> np.ndarray:
        """d v_s/dt = (d(v_s^2)/dt)/(2 v_s), with
        d(v_s^2)/dt = 2 (v_F + g4/2pi) g4dot/2pi - 2 (g2/2pi) g2dot/2pi."""
        dvs_sq = 2.0 * (self.v_F + self.g4 / TWO_PI) * self.dg4 / TWO_PI - 2.0 * (
            self.g2 / TWO_PI
        ) * self.dg2 / TWO_PI
        return self._full(0.5 * dvs_sq / self._luttinger.v_s)

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
        P, dP = schedule_value(t / self.t_f, self.schedule)
        g2, g4 = self.coupling.values(p, P)
        dg2_dP, dg4_dP = self.coupling.derivatives(p, P)
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
        """Check Luttinger stability of every mode over the whole ramp.

        g2 and g4 are affine in the schedule value P for every coupling
        family, so omega - |g| is concave in P and smallest at the least or
        the greatest P the schedule reaches: those two points decide it.
        """
        s, P = self.schedule.extremes()
        p = self.momenta()[:, None]
        omega, g = model.pair_frequencies(p, *self.coupling.values(p, P), self.v_F)
        excess = np.abs(g) - omega
        if np.any(excess >= 0):
            p, s = model.worst_point(excess, p, s)
            raise LuttingerInstabilityError(
                f"luttinger-instability at p={p:.6g}, t={s * self.t_f:.6g}"
            )


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
    margin of |chi(t)| < v_s(t) 2 pi/L on STABILITY_GRID_POINTS times, and
    where it is least.

    Evaluated at the slowest mode p = 2 pi/L, which saturates the bound first
    for contact couplings.  The CD amplitude is evaluated regardless of
    cd_enabled: the criterion limits what switching CD on would do.
    """
    protocol.validate()
    p_min = TWO_PI / protocol.L
    t = np.linspace(0.0, protocol.t_f, STABILITY_GRID_POINTS)
    c = protocol.grid(p_min, t)
    excess = (c.v_s * p_min - np.abs(c.chi_cd))[0]
    worst = int(np.argmin(excess))
    margin = float(excess[worst])
    max_adiab = float(np.max(c.adiabaticity))
    t_adiab = (
        protocol.t_f * max_adiab / ADIABATIC_THRESHOLD if max_adiab > 0 else 0.0
    )
    return StabilityReport(
        margin=margin,
        passed=margin > 0.0,
        bound_tf=closed_form_bound(protocol),
        t_adiabatic=t_adiab,
        max_adiabaticity=max_adiab,
        argmin_p=p_min,
        argmin_t=float(t[worst]),
    )
