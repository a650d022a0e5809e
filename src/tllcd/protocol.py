"""Drive protocol: couplings + schedule + geometry, with per-(p, t)
evaluation of frequencies, Luttinger parameters and CD amplitude, plus the
stability and adiabaticity criteria that constrain the driving speed."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import control, model
from .control import (
    ControlledCoefficients,
    Schedule,
    ScheduleKind,
    cd_amplitude_contact,
    controlled_coefficients,
    schedule_value,
    spectrum_with_cd,
)
from .errors import ContractError, LuttingerInstabilityError
from .model import TWO_PI, CouplingFamily, CouplingSpec, PairCoefficients

STABILITY_GRID_POINTS = 2001
ADIABATIC_THRESHOLD = 0.01


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

    def couplings(self, p: float, t: float):
        """(g2, g4, dg2/dt, dg4/dt) at momentum p and time t."""
        P, dP = schedule_value(t / self.t_f, self.schedule)
        g2, g4 = self.coupling.values(p, P)
        dg2_dP, dg4_dP = self.coupling.derivatives(p, P)
        return g2, g4, dg2_dP * dP / self.t_f, dg4_dP * dP / self.t_f

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
        g2, g4, dg2, dg4 = self.couplings(p, t)
        v_s = model.luttinger_params(g2, g4, self.v_F).v_s
        dvs_sq = 2.0 * (self.v_F + g4 / TWO_PI) * dg4 / TWO_PI - 2.0 * (
            g2 / TWO_PI
        ) * dg2 / TWO_PI
        return 0.5 * dvs_sq / v_s

    def controlled(self, p: float, t: float) -> ControlledCoefficients:
        lp = self.luttinger(p, t)
        return controlled_coefficients(
            p, lp.K, lp.v_s, self.kdot_over_k(p, t), self.v_F
        )

    def pair_generator(self, p: float, t: float) -> PairCoefficients:
        omega, g = self.pair_frequencies(p, t)
        return PairCoefficients(omega, g, self.chi(p, t))

    def coefficients(self, p, t):
        """(omega, g, chi) as arrays over p[:, None] x t[None, :].

        Array form of `pair_generator` for every coupling family and
        schedule, written with the same expressions so that both agree to
        roundoff; `pair_generator` stays the scalar reference.
        """
        p = np.atleast_1d(np.asarray(p, dtype=float))[:, None]
        s = np.atleast_1d(np.asarray(t, dtype=float))[None, :] / self.t_f
        if np.any(p <= 0):
            raise ContractError("pair momentum must be positive")
        if np.any((s < 0.0) | (s > 1.0)):
            raise ContractError("schedule argument outside [0, 1]")
        kind = self.schedule.kind
        if kind == ScheduleKind.POLY5:
            P = s * s * s * (10.0 + s * (-15.0 + 6.0 * s))
            dP = 30.0 * s * s * (1.0 - s) ** 2
        elif kind == ScheduleKind.LINEAR:
            P, dP = s, np.ones_like(s)
        else:
            xs, ys = (np.array(col) for col in zip(*sorted(self.schedule.samples)))
            i = np.clip(np.searchsorted(xs, s, side="right") - 1, 0, len(xs) - 2)
            dP = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            P = ys[i] + dP * (s - xs[i])

        c = self.coupling
        if c.family == CouplingFamily.CONTACT:
            g2 = c.g2_start + (c.g2_end - c.g2_start) * P
            g4 = c.g4_start + (c.g4_end - c.g4_start) * P
            dg2 = (c.g2_end - c.g2_start) * dP / self.t_f
            dg4 = (c.g4_end - c.g4_start) * dP / self.t_f
        elif c.family == CouplingFamily.LORENTZIAN:
            damp = np.exp(-c.R0 * np.abs(p))
            g2 = g4 = (c.g2_start + (c.g2_end - c.g2_start) * P) * damp
            dg2 = dg4 = (c.g2_end - c.g2_start) * damp * dP / self.t_f
        else:
            ps, g2s, g4s = c.table_arrays
            g2_p, g4_p = np.interp(p, ps, g2s), np.interp(p, ps, g4s)
            g2, g4 = g2_p * P, g4_p * P
            dg2, dg4 = g2_p * dP / self.t_f, g4_p * dP / self.t_f

        omega = p * (self.v_F + g4 / TWO_PI)
        g = p * g2 / TWO_PI
        if not self.cd_enabled:
            return omega, g, np.zeros_like(omega)
        a = TWO_PI * self.v_F + g4
        denom = a * a - g2 * g2
        if np.any(denom <= 0):
            raise LuttingerInstabilityError(
                "luttinger-instability: (2 pi v_F + g4)^2 <= g2^2"
            )
        chi = 0.5 * (dg4 * g2 - dg2 * a) / denom
        return omega, g, np.broadcast_to(chi, omega.shape)

    def with_tf(self, t_f: float) -> "DriveProtocol":
        return replace(self, t_f=t_f)

    def with_cd(self, cd_enabled: bool) -> "DriveProtocol":
        return replace(self, cd_enabled=cd_enabled)

    def validate(self, n_time: int = STABILITY_GRID_POINTS) -> None:
        """Check Luttinger stability of every mode over a dense time grid."""
        ts = np.linspace(0.0, self.t_f, n_time)
        for p in self.momenta():
            for t in ts[:: max(1, n_time // 101)]:
                omega, g = self.pair_frequencies(p, t)
                if abs(g) >= omega:
                    raise ContractError(
                        f"luttinger-instability at p={p:.6g}, t={t:.6g}"
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
    ts = np.linspace(0.0, protocol.t_f, n_time)
    margin = math.inf
    for t in ts:
        lp = protocol.luttinger(p_min, t)
        chi = 0.5 * protocol.kdot_over_k(p_min, t)
        margin = min(margin, lp.v_s * p_min - abs(chi))
    max_adiab = max(adiabaticity_parameter(protocol, p_min, t) for t in ts)
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
    lp = protocol.luttinger(p, t)
    return abs(protocol.sound_velocity_rate(p, t)) / (lp.v_s**2 * p)


def check_cd_spectrum(protocol: DriveProtocol, n_time: int = 201) -> None:
    """Raise CDInstabilityError if the controlled spectrum turns imaginary
    anywhere on the time x mode grid."""
    ts = np.linspace(0.0, protocol.t_f, n_time)
    for p in protocol.momenta():
        for t in ts:
            lp = protocol.luttinger(p, t)
            spectrum_with_cd(lp.v_s, p, 0.5 * protocol.kdot_over_k(p, t))
