"""Drive protocol: couplings + schedule + geometry, with per-(p, t)
evaluation of frequencies, Luttinger parameters and CD amplitude, plus the
stability and adiabaticity criteria that constrain the driving speed."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
from .control import (
    ControlledCoefficients,
    Schedule,
    cd_amplitude_contact,
    controlled_coefficients,
    schedule_value,
)
from .errors import ContractError
from .model import TWO_PI, CouplingFamily, CouplingSpec, PairCoefficients

STABILITY_GRID_POINTS = 2001
ADIABATIC_THRESHOLD = 0.01


@dataclass(frozen=True)
class CoefficientGrid:
    """Pair coefficients and Luttinger parameters at every point of a
    (mode, time) grid; each array has shape (n_modes, n_times)."""

    p: np.ndarray
    omega: np.ndarray
    g: np.ndarray
    chi: np.ndarray  # CD amplitude the protocol applies: 0 without CD
    chi_cd: np.ndarray  # Kdot/(2K), whether or not CD is applied
    K: np.ndarray
    v_s: np.ndarray
    v_s_rate: np.ndarray  # d v_s/dt

    @property
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

    def couplings(self, p, t):
        """(g2, g4, dg2/dt, dg4/dt) at momenta p and times t (broadcast)."""
        P, dP = schedule_value(t / self.t_f, self.schedule)
        g2, g4 = self.coupling.values(p, P)
        dg2_dP, dg4_dP = self.coupling.derivatives(p, P)
        return g2, g4, dg2_dP * dP / self.t_f, dg4_dP * dP / self.t_f

    def grid(self, p, t) -> CoefficientGrid:
        """Every coefficient over p[:, None] x t[None, :], composed once from
        the array forms of the schedule, coupling and model formulas."""
        p, g2, g4, dg2, dg4 = self._grid_couplings(p, t)
        omega, g = model.pair_frequencies(p, g2, g4, self.v_F)
        lp = model.luttinger_params(g2, g4, self.v_F)
        chi_cd = cd_amplitude_contact(g2, g4, dg2, dg4, self.v_F)
        rate = model.sound_velocity_rate(g2, g4, dg2, dg4, self.v_F)
        chi = chi_cd if self.cd_enabled else 0.0
        return CoefficientGrid(
            *(np.broadcast_to(x, omega.shape) for x in (p, omega, g, chi, chi_cd)),
            *(np.broadcast_to(x, omega.shape) for x in (lp.K, lp.v_s, rate)),
        )

    def coefficients(self, p, t):
        """(omega, g, chi) over p[:, None] x t[None, :]: the pair generator
        of every mode, and only that, since the integrator calls it for
        every step."""
        p, g2, g4, dg2, dg4 = self._grid_couplings(p, t)
        omega, g = model.pair_frequencies(p, g2, g4, self.v_F)
        if not self.cd_enabled:
            return omega, g, np.zeros_like(omega)
        chi = cd_amplitude_contact(g2, g4, dg2, dg4, self.v_F)
        return omega, g, np.broadcast_to(chi, omega.shape)

    def _grid_couplings(self, p, t):
        """p as a column, t as a row, and the couplings on their grid."""
        p = np.atleast_1d(np.asarray(p, dtype=float))[:, None]
        t = np.atleast_1d(np.asarray(t, dtype=float))[None, :]
        return (p, *self.couplings(p, t))

    def pair_frequencies(self, p: float, t: float):
        g2, g4, _, _ = self.couplings(p, t)
        return model.pair_frequencies(p, g2, g4, self.v_F)

    def luttinger(self, p: float, t: float) -> model.LuttingerParams:
        g2, g4, _, _ = self.couplings(p, t)
        return model.luttinger_params(g2, g4, self.v_F)

    def kdot_over_k(self, p: float, t: float) -> float:
        g2, g4, dg2, dg4 = self.couplings(p, t)
        return 2.0 * cd_amplitude_contact(g2, g4, dg2, dg4, self.v_F)

    def chi(self, p: float, t: float) -> float:
        if not self.cd_enabled:
            return 0.0
        return 0.5 * self.kdot_over_k(p, t)

    def sound_velocity_rate(self, p: float, t: float) -> float:
        """d v_sp/dt from the analytic coupling derivatives."""
        return model.sound_velocity_rate(*self.couplings(p, t), self.v_F)

    def controlled(self, p: float, t: float) -> ControlledCoefficients:
        lp = self.luttinger(p, t)
        return controlled_coefficients(
            p, lp.K, lp.v_s, self.kdot_over_k(p, t), self.v_F
        )

    def pair_generator(self, p: float, t: float) -> PairCoefficients:
        omega, g = self.pair_frequencies(p, t)
        return PairCoefficients(omega, g, self.chi(p, t))

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
            raise ContractError(
                f"luttinger-instability at p={p:.6g}, t={s * self.t_f:.6g}"
            )


@dataclass(frozen=True)
class StabilityReport:
    margin: float
    passed: bool
    bound_tf: float | None
    t_adiabatic: float
    max_adiabaticity: float


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


def stability_margin(
    protocol: DriveProtocol, n_time: int = STABILITY_GRID_POINTS
) -> StabilityReport:
    """Worst-case margin of |chi(t)| < v_s(t) 2 pi/L on a dense time grid.

    Evaluated at the slowest mode p = 2 pi/L, which saturates the bound
    first.  The CD amplitude is evaluated regardless of cd_enabled: the
    criterion limits what switching CD on would do.
    """
    p_min = TWO_PI / protocol.L
    c = protocol.grid(p_min, np.linspace(0.0, protocol.t_f, n_time))
    margin = float(np.min(c.v_s * p_min - np.abs(c.chi_cd)))
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
    )


def adiabaticity_parameter(protocol: DriveProtocol, p: float, t: float) -> float:
    """|v_sdot / (v_s^2 p)|: small values mark the adiabatic regime."""
    return float(protocol.grid(p, t).adiabaticity[0, 0])
