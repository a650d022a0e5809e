"""Drive schedules, counterdiabatic amplitudes, controlled-Hamiltonian
coefficients and the Lorentzian/gauge-field auxiliary formulas."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CDInstabilityError, ContractError
from .model import TWO_PI, check_pair_stable, worst_point

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
        (worst,) = worst_point(np.maximum(-s, np.subtract(s, 1.0)), s)
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


def cd_amplitude_contact(g2, g4, dg2_dt, dg4_dt, v_F):
    """chi = Kdot/(2K) for momentum-independent couplings.

    Kdot/K = [g4dot g2 - g2dot (2 pi v_F + g4)] / [(2 pi v_F + g4)^2 - g2^2].
    Array arguments broadcast.
    """
    a = TWO_PI * v_F + g4
    denom = a * a - g2 * g2
    # the domain of luttinger_params is |g2| < 2 pi v_F + g4.  Outside it
    # denom <= 0 or a <= 0, which tests what the formula forms anyway: a
    # full-size |g2| on every call raised the peak memory of a
    # table_records run by ~0.3 MB
    if np.any(denom <= 0) or np.any(a <= 0):
        check_pair_stable(a, g2)
    return 0.5 * (dg4_dt * g2 - dg2_dt * a) / denom


def cd_amplitude_lorentzian(lam, dlam_dt, R0, p, v_F, linearized=False) -> float:
    """chi = Kdot/(2K) for g2 = g4 = lambda exp(-R0 |p|).

    The exact form -(1/2) g24dot/(pi v_F + g24) is the default; the
    first-order expansion in R0 p is available for comparison and warns
    outside its validity range.
    """
    if math.pi * v_F + lam <= 0:
        raise ContractError("lorentzian amplitude requires pi v_F + lambda > 0")
    if R0 * abs(p) > 0.3:
        warnings.warn(
            f"R0 p = {R0 * abs(p):.3g} > 0.3: momentum-expansion regime left",
            stacklevel=2,
        )
    if linearized:
        base = math.pi * v_F + lam
        kdot_over_k = -0.5 * dlam_dt * (1.0 / base - R0 * math.pi * v_F * abs(p) / base**2)
        return 0.5 * kdot_over_k
    damp = math.exp(-R0 * abs(p))
    g24 = lam * damp
    kdot_over_k = -0.5 * dlam_dt * damp / (math.pi * v_F + g24)
    return 0.5 * kdot_over_k


@dataclass(frozen=True)
class ControlledCoefficients:
    """Coefficients of the invariant-built controlled pair Hamiltonian."""

    omega_cd: float
    g_cd: float
    chi: float


def controlled_coefficients(p, K_p, v_sp, kdot_over_k, v_F) -> ControlledCoefficients:
    """Controlled coefficients from gamma_p^2 = K_p, sigma_t^2 = v_F/v_sp and
    omega_0p = v_F |p|.

    omega_cd = (omega_0p/2)[(gamma/sigma)^2 + 1/(sigma gamma)^2] reduces to
    the bare pair frequency omega(p, t); likewise g_cd -> g(p, t).
    """
    if min(p, K_p, v_sp, v_F) <= 0:
        raise ContractError("controlled coefficients require positive inputs")
    omega0 = v_F * p
    gamma_sq_over_sigma_sq = K_p * v_sp / v_F
    inv = v_sp / (K_p * v_F)
    omega_cd = 0.5 * omega0 * (gamma_sq_over_sigma_sq + inv)
    g_cd = 0.5 * omega0 * (inv - gamma_sq_over_sigma_sq)
    return ControlledCoefficients(omega_cd, g_cd, 0.5 * kdot_over_k)


def spectrum_with_cd(v_s, p, chi):
    """epsilon = sqrt(v_s^2 p^2 - chi^2); raises when the controlled spectrum
    turns imaginary.  Array arguments broadcast."""
    vp = v_s * p
    if np.any(vp <= np.abs(chi)):
        vp, p, chi = worst_point(np.abs(chi) - vp, vp, p, chi)
        raise CDInstabilityError(
            f"cd-instability at p = {p:.6g}: "
            f"v_s p = {vp:.6g} <= |chi| = {abs(chi):.6g}"
        )
    return np.sqrt(vp * vp - chi * chi)


def delta_coefficients(lam, dlam_dt, R0, v_F):
    """(Delta1, Delta2) of the real-space Lorentzian CD kernel (hbar = 1).

    Delta1 = -(pi/4) lamdot/(pi v_F + lam),
    Delta2 = (1/4) lamdot R0 pi v_F/(pi v_F + lam)^2.
    """
    base = math.pi * v_F + lam
    if base <= 0:
        raise ContractError("delta coefficients require pi v_F + lambda > 0")
    d1 = -0.25 * math.pi * dlam_dt / base
    d2 = 0.25 * dlam_dt * R0 * math.pi * v_F / base**2
    return d1, d2


def gauge_field_amplitude(lam, dlam_dt, R0, v_F, L) -> float:
    """Long-range gauge-field strength nu = -(1/8 L^2) R0 lamdot/(pi v_F + lam)^3."""
    base = math.pi * v_F + lam
    if base <= 0 or L <= 0:
        raise ContractError("gauge amplitude requires pi v_F + lambda > 0 and L > 0")
    return -R0 * dlam_dt / (8.0 * L * L * base**3)


def realspace_cd_kernel(x, x_prime, L, chi, family="contact", Delta1=0.0, Delta2=0.0):
    """Antisymmetric kernel multiplying rho_1(x) rho_-1(x') - (x <-> x').

    contact:    pi * chi * (x' - x)/L, with chi = Kdot/(2K); the overall
                pair-vs-mode bookkeeping factor is fixed to this convention.
    lorentzian: Delta1 (x' - x)/L + Delta2/(x - x'); the on-diagonal
                singularity is reported as a signed infinity, never raised.
    """
    if not (0 <= x <= L and 0 <= x_prime <= L):
        raise ContractError("kernel arguments must lie in [0, L]")
    if family == "contact":
        return math.pi * chi * (x_prime - x) / L
    if x == x_prime:
        return math.copysign(math.inf, -Delta2) if Delta2 else 0.0
    return Delta1 * (x_prime - x) / L + Delta2 / (x - x_prime)
