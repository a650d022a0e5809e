"""SU(1,1) Bogoliubov algebra for a single momentum pair.

A two-mode Bogoliubov transformation is stored as the complex pair (u, v)
with |u|^2 - |v|^2 = 1.  The same object doubles as a state label: the state
it represents is the two-mode squeezed vacuum annihilated by

    c = u b(p) + v b†(-p).

All operations are pure; maps are immutable after construction.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import ContractError

# Invariant drift policy: warn early, fail hard, never renormalize silently.
INVARIANT_WARN_TOL = 1e-9
INVARIANT_ERROR_TOL = 1e-6

# cosh(eta)^2 overflows float64 slightly above this angle.
_MAX_SQUEEZE_ANGLE = 350.0


@dataclass(frozen=True)
class BogoliubovMap:
    u: complex
    v: complex

    def invariant_defect(self) -> float:
        """|u|^2 - |v|^2 - 1; zero for a canonical transformation."""
        return abs(self.u) ** 2 - abs(self.v) ** 2 - 1.0


@dataclass(frozen=True)
class PairObservables:
    occupation: float
    pair_correlator: complex
    k0_expectation: float


IDENTITY = BogoliubovMap(1.0 + 0.0j, 0.0j)


def check_map(m: BogoliubovMap, error_tol: float = INVARIANT_ERROR_TOL) -> None:
    """Enforce the symplectic invariant; warn above the soft tolerance."""
    check_defect(abs(m.invariant_defect()), error_tol)


def check_defect(defect: float, error_tol: float) -> None:
    """The invariant policy for the largest ||u|^2 - |v|^2 - 1| of one map or
    of a whole run: raise above error_tol, warn once above the soft
    tolerance."""
    if defect > error_tol:
        raise ContractError(
            f"Bogoliubov invariant violated: |u|^2-|v|^2-1 = {defect:.3e}"
        )
    if defect > INVARIANT_WARN_TOL:
        warnings.warn(
            f"Bogoliubov invariant drift {defect:.3e} exceeds {INVARIANT_WARN_TOL}",
            stacklevel=3,
        )


def squeeze_from_angle(eta: float) -> BogoliubovMap:
    """Map of the two-mode squeeze exp[eta (K+ - K-)] acting on the pair.

    Acting on the vacuum it produces the squeezed state with occupation
    sinh(eta)^2 per mode.
    """
    if not math.isfinite(eta):
        raise ContractError("squeeze angle must be finite")
    if abs(eta) > _MAX_SQUEEZE_ANGLE:
        raise OverflowError(f"squeeze angle {eta} out of range (|eta| <= 350)")
    return BogoliubovMap(complex(math.cosh(eta)), complex(-math.sinh(eta)))


def compose(outer: BogoliubovMap, inner: BogoliubovMap) -> BogoliubovMap:
    """Map of `outer` applied after `inner` (matrix product in the
    (b(p), b†(-p)) doublet representation)."""
    check_map(outer)
    check_map(inner)
    u = outer.u * inner.u + outer.v * inner.v.conjugate()
    v = outer.u * inner.v + outer.v * inner.u.conjugate()
    return BogoliubovMap(u, v)


def inverse(m: BogoliubovMap) -> BogoliubovMap:
    check_map(m)
    return BogoliubovMap(m.u.conjugate(), -m.v)


def vacuum_observables(state: BogoliubovMap) -> PairObservables:
    """Gaussian-state expectations for the state represented by `state`.

    n = <b†(p) b(p)> = |v|^2, the anomalous pair correlator
    <b(p) b(-p)> = -u* v, and <K0> = n + 1/2.  The sign of the correlator is
    the one validated against the Fock oracle (see tests).
    """
    check_map(state)
    n = abs(state.v) ** 2
    corr = -state.u.conjugate() * state.v
    return PairObservables(n, corr, n + 0.5)


def overlap_amplitude(a: BogoliubovMap, b: BogoliubovMap) -> complex:
    """<psi_a|psi_b> with the phase convention c_0 = 1/u for each state."""
    q = a.u.conjugate() * b.u - a.v.conjugate() * b.v
    return 1.0 / q


def state_overlap(a: BogoliubovMap, b: BogoliubovMap) -> float:
    """|<psi_a|psi_b>| for the two-mode squeezed vacua labelled by a and b.

    Closed form 1/|u_a* u_b - v_a* v_b|; certified against the brute-force
    Fock inner product (the sources never state the formula).
    """
    check_map(a)
    check_map(b)
    val = abs(overlap_amplitude(a, b))
    return min(val, 1.0)


def fock_amplitudes(state: BogoliubovMap, n_max: int):
    """Amplitudes of the state over {|n,n>}, n = 0..n_max.

    c_n = (-v/u)^n / u; the annihilation condition (u b + v b†) c = 0
    fixes the ratio, c_0 = 1/u fixes the global phase.
    """
    check_map(state)
    ratio = -state.v / state.u
    amps = [1.0 / state.u]
    for _ in range(n_max):
        amps.append(amps[-1] * ratio)
    return amps


def squeeze_angle_of(state: BogoliubovMap) -> float:
    """Real squeeze angle eta with state ~ squeeze_from_angle(eta), valid for
    maps with u, v real up to a common phase (tanh eta = (-v/u).real)."""
    return math.copysign(math.asinh(abs(state.v)), (-state.v / state.u).real)
