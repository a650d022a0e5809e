"""TLL model parameters: interaction potentials, Luttinger parameters,
per-pair Hamiltonian coefficients and spectrum.

Natural units throughout: hbar = 1, couplings in units of v_F, momenta in
1/length, frequencies in 1/time.  Unit conversion happens only in reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ContractError, LuttingerInstabilityError

TWO_PI = 2.0 * math.pi


class CouplingFamily(str, Enum):
    CONTACT = "contact"
    LORENTZIAN = "lorentzian"
    CUSTOM_TABLE = "custom_table"


@dataclass(frozen=True)
class CouplingSpec:
    """Interaction-potential family with endpoint couplings.

    contact:     momentum-independent g2(t), g4(t) ramped between the
                 endpoint values by the schedule.
    lorentzian:  g2 = g4 = lambda(t) exp(-R0 |p|); the g2 endpoints play the
                 role of lambda(0), lambda(t_f) and must match the g4 ones.
    custom_table: rows (p, g2, g4) give the endpoint profile, interpolated
                 linearly in p and clamped at the table edges; the schedule
                 ramps the profile from zero.
    """

    family: CouplingFamily = CouplingFamily.CONTACT
    g2_start: float = 0.0
    g2_end: float = 0.0
    g4_start: float = 0.0
    g4_end: float = 0.0
    R0: float = 0.0
    table: tuple = field(default=None)

    def __post_init__(self):
        if self.family == CouplingFamily.LORENTZIAN:
            if self.R0 <= 0:
                raise ContractError("lorentzian coupling requires R0 > 0")
            if (self.g2_start, self.g2_end) != (self.g4_start, self.g4_end):
                raise ContractError(
                    "lorentzian coupling has g2 = g4 = lambda; endpoints must match"
                )
        if self.family == CouplingFamily.CUSTOM_TABLE:
            if not self.table:
                raise ContractError("custom_table coupling requires table rows")
            if len({row[0] for row in self.table}) < len(self.table):
                raise ContractError("custom_table rows need distinct p")

    def values(self, p, progress):
        """(g2, g4) at momenta p and schedule values progress in [0,1];
        array arguments broadcast."""
        if self.family == CouplingFamily.CONTACT:
            g2 = self.g2_start + (self.g2_end - self.g2_start) * progress
            g4 = self.g4_start + (self.g4_end - self.g4_start) * progress
            return g2, g4
        if self.family == CouplingFamily.LORENTZIAN:
            lam = self.g2_start + (self.g2_end - self.g2_start) * progress
            damp = np.exp(-self.R0 * np.abs(p))
            return lam * damp, lam * damp
        g2_p, g4_p = self.derivatives(p, progress)
        return g2_p * progress, g4_p * progress

    def derivatives(self, p, progress):
        """d(g2, g4)/d(progress) at momenta p; for a table, the endpoint
        profile interpolated at p."""
        if self.family == CouplingFamily.CONTACT:
            return self.g2_end - self.g2_start, self.g4_end - self.g4_start
        if self.family == CouplingFamily.LORENTZIAN:
            dlam = self.g2_end - self.g2_start
            damp = np.exp(-self.R0 * np.abs(p))
            return dlam * damp, dlam * damp
        ps, g2s, g4s = self.table_arrays
        return np.interp(p, ps, g2s), np.interp(p, ps, g4s)

    @cached_property
    def table_arrays(self):
        """(p, g2, g4) columns of the table sorted by p, built once per spec."""
        rows = sorted(self.table)
        ps = np.array([r[0] for r in rows])
        g2s = np.array([r[1] for r in rows])
        g4s = np.array([r[2] for r in rows])
        return ps, g2s, g4s


@dataclass(frozen=True)
class PairCoefficients:
    """Instantaneous quadratic coefficients of one (p, -p) pair: the pair
    generator is 2*omega*K0 + g*(K+ + K-) + i*chi*(K+ - K-)."""

    omega: float
    g: float
    chi: float = 0.0


@dataclass(frozen=True)
class LuttingerParams:
    K: float
    v_s: float


def worst_point(excess, *values):
    """The entries of the broadcast `values` where `excess` is largest (a
    NaN counts as largest), for naming the worst point in an error."""
    excess = np.asarray(excess)
    where = np.unravel_index(np.argmax(excess), excess.shape)
    return tuple(np.broadcast_to(v, excess.shape)[where] for v in values)


def luttinger_params(g2, g4, v_F) -> LuttingerParams:
    """Luttinger parameter and sound velocity from the couplings.

    K = sqrt((2 pi v_F + g4 - g2)/(2 pi v_F + g4 + g2)),
    v_s = sqrt((v_F + g4/2pi)^2 - (g2/2pi)^2).  Array arguments broadcast.
    """
    num = TWO_PI * v_F + g4 - g2
    den = TWO_PI * v_F + g4 + g2
    if np.any((num <= 0) | (den <= 0)):
        a, g2 = worst_point(-np.minimum(num, den), TWO_PI * v_F + g4, g2)
        raise LuttingerInstabilityError(
            f"luttinger-instability: 2 pi v_F + g4 = {a:.6g} "
            f"does not exceed |g2| = {abs(g2):.6g}"
        )
    K = np.sqrt(num / den)
    v_s = np.sqrt((v_F + g4 / TWO_PI) ** 2 - (g2 / TWO_PI) ** 2)
    return LuttingerParams(K, v_s)


def pair_frequencies(p, g2, g4, v_F):
    """(omega, g) of the pair Hamiltonian at momentum p for couplings taken
    at that momentum and time: omega = |p|(v_F + g4/2pi), g = |p| g2/2pi."""
    if np.any(p <= 0):
        raise ContractError(f"pair momentum must be positive, got {np.min(p):.6g}")
    return p * (v_F + g4 / TWO_PI), p * g2 / TWO_PI


def check_pair_stable(omega, g) -> None:
    """Raise LuttingerInstabilityError where |g| >= omega."""
    if np.any(np.abs(g) >= omega):
        g, omega = worst_point(np.abs(g) - omega, g, omega)
        raise LuttingerInstabilityError(
            f"luttinger-instability: |g| = {abs(g):.6g} >= omega = {omega:.6g}"
        )


def instantaneous_spectrum(omega, g):
    """epsilon = sqrt(omega^2 - g^2) (hbar = 1)."""
    check_pair_stable(omega, g)
    return np.sqrt(omega * omega - g * g)


def mode_momenta(L: float, n_modes: int) -> np.ndarray:
    """Quantized pair momenta p_n = 2 pi n / L, n = 1..n_modes."""
    if L <= 0 or n_modes < 1:
        raise ContractError("mode grid requires L > 0 and n_modes >= 1")
    return TWO_PI * np.arange(1, n_modes + 1) / L
