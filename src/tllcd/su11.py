"""SU(1,1) Bogoliubov algebra for a single momentum pair: the scalar
reference side, which `validate` and `fock` use and no run loads.

A two-mode Bogoliubov transformation is stored as the complex pair (u, v)
with |u|^2 - |v|^2 = 1.  The same object doubles as a state label: the state
it represents is the two-mode squeezed vacuum annihilated by

    c = u b(p) + v b†(-p).

All operations are pure; maps are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import enforce_invariant
from .errors import ContractError

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


def check_map(m: BogoliubovMap) -> None:
    """Enforce the symplectic invariant with the policy of a run,
    dynamics.enforce_invariant, raising ContractError."""
    enforce_invariant(abs(m.invariant_defect()), ContractError)


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


def state_overlap(a: BogoliubovMap, b: BogoliubovMap) -> float:
    """|<psi_a|psi_b>| for the two-mode squeezed vacua labelled by a and b.

    Closed form 1/|u_a* u_b - v_a* v_b|; certified against the brute-force
    Fock inner product (the sources never state the formula).
    """
    check_map(a)
    check_map(b)
    return min(abs(1.0 / (a.u.conjugate() * b.u - a.v.conjugate() * b.v)), 1.0)


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
