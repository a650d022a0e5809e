"""The paper's closed forms that no run evaluates, off the run path: the
Bogoliubov angle, ground-state energy and oscillator mapping of a pair, the
Lorentzian CD amplitude, the invariant-built controlled coefficients, the
real-space CD kernel with its Delta and gauge-field coefficients, and the
sound velocity of a 1D gas.  A run forms the same physics on arrays in
`protocol`; tests compare the two.  No run imports this module."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import check_pair_stable, instantaneous_spectrum

HBAR_SI = 1.0545718e-34  # J s


def bogoliubov_angle(omega, g):
    """Squeeze angle diagonalizing the pair: tanh(2 eta) = -g/omega."""
    check_pair_stable(omega, g)
    return -0.5 * np.arctanh(g / omega)


def ground_state_energy(omegas, gs) -> float:
    """E0 = sum over pairs of [epsilon(p) - omega(p)].

    Pair convention: each unordered (p, -p) pair counted once; this equals
    the (1/2) sum over p != 0.  For contact couplings the value grows with
    the cutoff; callers must report it with an explicit cutoff annotation.
    """
    return float(
        sum(instantaneous_spectrum(w, g) - w for w, g in zip(omegas, gs, strict=True))
    )


def mass_frequency(p: float, K_p: float, v_sp: float, v_F: float):
    """Effective oscillator parameters (M, Omega) of the pair.

    Omega = v_sp |p| and M = omega_0p/(K_p v_sp |p|) = v_F/(K_p v_sp);
    M = 1 exactly when g2 = g4.
    """
    if min(p, K_p, v_sp, v_F) <= 0:
        raise ContractError("mass_frequency requires positive inputs")
    return v_F / (K_p * v_sp), v_sp * p


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
    Any other family has no real-space kernel here.
    """
    if not (0 <= x <= L and 0 <= x_prime <= L):
        raise ContractError("kernel arguments must lie in [0, L]")
    if family == "contact":
        return math.pi * chi * (x_prime - x) / L
    if family != "lorentzian":
        raise ContractError(f"no real-space kernel for the {family!r} family")
    if x == x_prime:
        return math.copysign(math.inf, -Delta2) if Delta2 else 0.0
    return Delta1 * (x_prime - x) / L + Delta2 / (x - x_prime)


def experimental_sound_velocity(a_s, m, omega_perp, n_1d) -> float:
    """Sound velocity in um/ms from 1D gas parameters (SI inputs).

    v_s = sqrt(g_1D n_1D / m) with
    g_1D = hbar omega_perp a_s (2 + 3 a_s n_1D)/(1 + 2 a_s n_1D).
    """
    if min(a_s, m, omega_perp, n_1d) <= 0:
        raise ContractError("gas parameters must be positive")
    g_1d = HBAR_SI * omega_perp * a_s * (2 + 3 * a_s * n_1d) / (1 + 2 * a_s * n_1d)
    v_s_si = math.sqrt(g_1d * n_1d / m)  # m/s
    return v_s_si * 1e3  # um/ms
