"""TLL model parameters: interaction potentials, Luttinger parameters,
per-pair Hamiltonian coefficients, the CD amplitude chi = Kdot/(2K) and the
spectrum with and without it, with the one refusal of each stability rule.

Natural units throughout: hbar = 1, couplings in units of v_F, momenta in
1/length, frequencies in 1/time.  Unit conversion happens only in reporting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import CDInstabilityError, ContractError, LuttingerInstabilityError

TWO_PI = 2.0 * math.pi


class CouplingFamily(str, Enum):
    CONTACT = "contact"
    LORENTZIAN = "lorentzian"
    CUSTOM_TABLE = "custom_table"


def require_finite(what: str, values) -> None:
    """ContractError unless every one of `values` is finite: NaN passes a
    comparison such as `<= 0` and raises no float64 flag, so a protocol
    refuses it where it is built."""
    for value in values:
        if not math.isfinite(value):
            raise ContractError(f"{what} must be finite, got {value}")


def is_count(value) -> bool:
    """True for an int or a numpy integer; False for a bool and for a float,
    even an integral one such as 4.0, since none of them counts modes or
    records."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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

    `family` may be given as its value ("contact", ...); an unknown one is
    a ContractError where the spec is built.
    """

    family: CouplingFamily = CouplingFamily.CONTACT
    g2_start: float = 0.0
    g2_end: float = 0.0
    g4_start: float = 0.0
    g4_end: float = 0.0
    R0: float = 0.0
    table: tuple = field(default=None)

    def __post_init__(self):
        try:
            object.__setattr__(self, "family", CouplingFamily(self.family))
        except ValueError:
            raise ContractError(f"unknown coupling family '{self.family}'") from None
        endpoints = (self.g2_start, self.g2_end, self.g4_start, self.g4_end, self.R0)
        require_finite("coupling endpoints and R0", endpoints)
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
            if any(np.shape(row) != (3,) for row in self.table):
                raise ContractError("custom_table rows must be (p, g2, g4) triples")
            require_finite("table entries", (x for row in self.table for x in row))
            if len({row[0] for row in self.table}) < len(self.table):
                raise ContractError("custom_table rows need distinct p")

    def at(self, p, P):
        """(g2, g4, dg2/dP, dg4/dP) at momenta p and schedule values P in
        [0, 1]; for a table, the derivatives are the endpoint profile
        interpolated at p.  Array arguments broadcast."""
        if self.family == CouplingFamily.CONTACT:
            dg2, dg4 = self.g2_end - self.g2_start, self.g4_end - self.g4_start
            return self.g2_start + dg2 * P, self.g4_start + dg4 * P, dg2, dg4
        if self.family == CouplingFamily.LORENTZIAN:
            dlam = self.g2_end - self.g2_start
            damp = np.exp(-self.R0 * np.abs(p))
            g, dg = (self.g2_start + dlam * P) * damp, dlam * damp
            return g, g, dg, dg
        ps, g2s, g4s = self.table_arrays
        dg2, dg4 = np.interp(p, ps, g2s), np.interp(p, ps, g4s)
        return dg2 * P, dg4 * P, dg2, dg4

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
    v_s = sqrt((v_F + g4/2pi)^2 - (g2/2pi)^2).  Array arguments broadcast;
    LuttingerInstabilityError where |g2| >= 2 pi v_F + g4.
    """
    a = TWO_PI * v_F + g4
    check_pair_stable(a, g2)
    K = np.sqrt((a - g2) / (a + g2))
    v_s = instantaneous_spectrum(v_F + g4 / TWO_PI, g2 / TWO_PI)
    return LuttingerParams(K, v_s)


def pair_frequencies(p, g2, g4, v_F):
    """(omega, g) of the pair Hamiltonian at momentum p for couplings taken
    at that momentum and time: omega = |p|(v_F + g4/2pi), g = |p| g2/2pi."""
    if np.any(p <= 0):
        raise ContractError(f"pair momentum must be positive, got {np.min(p):.6g}")
    # (p g2)/2pi, not p (g2/2pi) as from CoefficientGrid.g_per_p: the two
    # differ on 36% of the 128-mode reference grid's g, which a run writes
    return p * (v_F + g4 / TWO_PI), p * g2 / TWO_PI


def _refusal(rule, margin, p, t) -> str:
    """The one message of both stability rules, with the p and t it has."""
    at = ", ".join(f"{x} = {v:.6g}" for x, v in (("p", p), ("t", t)) if v is not None)
    return f"{rule}{' at ' if at else ''}{at}: margin {margin:.6g} <= 0"


def check_pair_stable(omega, g, p=None, t=None) -> None:
    """The Luttinger rule's one refusal: LuttingerInstabilityError where
    |g| >= omega, naming the least omega - |g| and its p and t if given."""
    if np.any(np.abs(g) >= omega):
        margin = omega - np.abs(g)
        margin, p, t = worst_point(-margin, margin, p, t)
        raise LuttingerInstabilityError(_refusal("luttinger-instability", margin, p, t))


def instantaneous_spectrum(omega, g):
    """epsilon = sqrt(omega^2 - g^2) (hbar = 1)."""
    check_pair_stable(omega, g)
    return np.sqrt(omega * omega - g * g)


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


def cd_margin(v_s, p, chi):
    """The CD margin v_s p - |chi|: the controlled spectrum is real where it
    is positive.  Array arguments broadcast."""
    return v_s * p - np.abs(chi)


def require_cd_stable(margin, p, t=None) -> None:
    """The CD rule's one refusal: CDInstabilityError unless every margin
    (cd_margin) is positive (a NaN is not), naming the least and its p and
    t, the momenta and times of the broadcast grid (t if given)."""
    if not np.all(margin > 0.0):
        margin, p, t = worst_point(-margin, margin, p, t)
        raise CDInstabilityError(_refusal("cd-instability", margin, p, t))


def spectrum_with_cd(v_s, p, chi):
    """epsilon = sqrt(v_s^2 p^2 - chi^2), refused by require_cd_stable where
    it is not real.  Array arguments broadcast."""
    require_cd_stable(cd_margin(v_s, p, chi), p)
    vp = v_s * p
    return np.sqrt(vp * vp - chi * chi)


def require_mode_grid(L: float, n_modes: int) -> None:
    """The rule of the mode grid: ContractError unless L is finite and
    positive and n_modes an integer (is_count) of at least 1."""
    require_finite("mode grid length L", (L,))
    if not (L > 0 and is_count(n_modes) and n_modes >= 1):
        raise ContractError(
            f"mode grid requires L > 0 and an integer n_modes >= 1, got L = {L}, "
            f"n_modes = {n_modes!r}"
        )


def mode_momenta(L: float, n_modes: int) -> np.ndarray:
    """Quantized pair momenta p_n = 2 pi n / L, n = 1..n_modes, on a grid
    that require_mode_grid accepts."""
    require_mode_grid(L, n_modes)
    return TWO_PI * np.arange(1, n_modes + 1) / L
