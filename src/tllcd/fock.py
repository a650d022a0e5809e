"""Brute-force reference in the truncated diagonal Fock sector {|n, n>}.

K+ and K- preserve the diagonal sector, so a pair state that starts there
stays there and costs n_max + 1 amplitudes instead of (n_max + 1)^2.  This
module exists to certify every Gaussian-state formula and the sign
conventions of the (u, v) integrator; it is never on the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IntegrationError
from .model import PairCoefficients
from .su11 import BogoliubovMap, fock_amplitudes

TAIL_MASS_TOL = 1e-10
DEFAULT_N_MAX = 120


@dataclass
class FockState:
    """Amplitudes over |n, n>, n = 0..n_max."""

    amplitudes: np.ndarray
    n_max: int
    cutoff_safe: bool = True

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def tail_mass(self) -> float:
        return float(abs(self.amplitudes[-1]) ** 2)

    def occupation(self) -> float:
        ns = np.arange(self.n_max + 1)
        return float(ns @ (np.abs(self.amplitudes) ** 2))

    def pair_correlator(self) -> complex:
        """<b(p) b(-p)> = sum_n conj(c_{n-1}) c_n n."""
        c = self.amplitudes
        ns = np.arange(1, self.n_max + 1)
        return complex(np.sum(np.conj(c[:-1]) * c[1:] * ns))

    def overlap(self, other: "FockState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def vacuum_state(n_max: int = DEFAULT_N_MAX) -> FockState:
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = 1.0
    return FockState(amps, n_max)


def tmsv_amplitudes(eta: float, n_max: int = DEFAULT_N_MAX) -> FockState:
    """Fock amplitudes of the two-mode squeezed vacuum squeeze_from_angle(eta):
    c_n = tanh(eta)^n / cosh(eta), annihilated by cosh(eta) b - sinh(eta) b†.
    """
    if abs(math.tanh(eta)) >= 1.0:
        raise ContractError("squeeze angle too large for a normalizable state")
    n = np.arange(n_max + 1)
    amps = np.tanh(eta) ** n / math.cosh(eta)
    state = FockState(amps.astype(complex), n_max)
    state.cutoff_safe = state.tail_mass < TAIL_MASS_TOL
    return state


def gaussian_state(state_map: BogoliubovMap, n_max: int = DEFAULT_N_MAX) -> FockState:
    """Fock representation of a Gaussian pair state given by its map."""
    amps = np.array(fock_amplitudes(state_map, n_max), dtype=complex)
    fs = FockState(amps, n_max)
    fs.cutoff_safe = fs.tail_mass < TAIL_MASS_TOL
    return fs


def pair_hamiltonian_matrix(coeffs: PairCoefficients, n_max: int) -> np.ndarray:
    """Pair generator 2 omega K0 + g (K+ + K-) + i chi (K+ - K-) in the
    diagonal sector, zero-point included.

    Diagonal 2 omega (n + 1/2); <n+1|H|n> = (g + i chi)(n+1) from
    K+|n,n> = (n+1)|n+1,n+1>; Hermitian by construction.
    """
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    n = np.arange(n_max + 1)
    H = np.diag(2.0 * coeffs.omega * (n + 0.5)).astype(complex)
    sub = (coeffs.g + 1j * coeffs.chi) * (n[:-1] + 1.0)
    H += np.diag(sub, -1) + np.diag(np.conj(sub), 1)
    return H


def evolve_fock(
    initial: FockState,
    coefficients,
    t_f: float,
    t_eval=None,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> list[FockState]:
    """Integrate i dc/dt = H(t) c with H from `coefficients(t)`: as for the
    integrator, an object with `omega`, `g` and `chi`, here as numbers at the
    one time t, such as `DriveProtocol.pair_generator(p, t)`.

    Returns one FockState per output time; runs whose tail mass ever exceeds
    the threshold are flagged cutoff-unsafe instead of silently truncated.
    """
    from scipy.integrate import solve_ivp

    if abs(initial.norm - 1.0) > 1e-9:
        raise ContractError("initial Fock state must be normalized")
    n_max = initial.n_max
    n = np.arange(n_max + 1)
    diag_base = 2.0 * (n + 0.5)
    ladder = n[:-1] + 1.0

    def rhs(t, y):
        c = y[: n_max + 1] + 1j * y[n_max + 1 :]
        coeff = coefficients(t)
        hc = coeff.omega * diag_base * c
        off = (coeff.g + 1j * coeff.chi) * ladder
        hc[1:] += off * c[:-1]
        hc[:-1] += np.conj(off) * c[1:]
        dc = -1j * hc
        return np.concatenate([dc.real, dc.imag])

    if t_eval is None:
        t_eval = np.array([0.0, t_f])
    y0 = np.concatenate([initial.amplitudes.real, initial.amplitudes.imag])
    sol = solve_ivp(
        rhs, (0.0, t_f), y0, method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol
    )
    if not sol.success:
        raise IntegrationError(f"fock oracle integration failed: {sol.message}")
    states = []
    safe = initial.cutoff_safe
    for k in range(sol.y.shape[1]):
        amps = sol.y[: n_max + 1, k] + 1j * sol.y[n_max + 1 :, k]
        st = FockState(amps, n_max)
        safe = safe and st.tail_mass < TAIL_MASS_TOL
        st.cutoff_safe = safe
        states.append(st)
    return states
