"""Sixth-order Magnus integration of the pair equations of every mode at once.

Each (p, -p) pair evolves its annihilator coefficients by

    du/dt = +i omega u - (i g + chi) v
    dv/dt = -i omega v + (i g - chi) u,

i.e. d(u, v)/dt = A (u, v) with the su(1,1) generator
A = [[i omega, b], [conj(b), -i omega]], b = -(chi + i g).  Its sign
conventions are pinned by the Fock-oracle equivalence tests.

An element X = [[i a, br + i bi], [br - i bi, -i a]] of su(1,1) is kept as
the real 3-vector (a, br, bi); the commutator of two of them is again one,
in closed form (`_comm`).  One step of the three-node Gauss-Legendre Magnus
method (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009);
Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999)) takes A1, A2, A3
at t + (1/2 - sqrt(15)/10) h, t + h/2, t + (1/2 + sqrt(15)/10) h and forms

    a1 = h A2,  a2 = sqrt(15)/3 h (A3 - A1),  a3 = 10/3 h (A3 - 2 A2 + A1),
    c1 = [a1, a2],  c2 = -1/60 [a1, 2 a3 + c1],
    Omega = a1 + a3/12 + 1/240 [-20 a1 - a3 + c1, a2 + c2],

with a local error of order h^7.  Omega = (a, br, bi) stays in su(1,1), so
Omega^2 = z I with z = br^2 + bi^2 - a^2 real and

    exp(Omega) = C(z) I + S(z) Omega,  C = cosh(sqrt z), S = sinh(sqrt z)/sqrt z,

read as cos/sin for z < 0 and as a series for small |z|.  The result is the
SU(1,1) matrix [[alpha, beta'], [conj(beta'), conj(alpha)]] with
|alpha|^2 - |beta'|^2 = C^2 - z S^2 = 1, so |u|^2 - |v|^2 = 1 holds to
roundoff for every step size.  For the pair generator z = -(v_s^2 p^2 - chi^2)
h^2 to leading order: its sign is the CD stability criterion.

Propagation: the state at record k is the prefix product of the step
propagators before it, applied to the initial state.  It is formed one block
of steps at a time, so memory does not grow with the run: the steps of each
segment (a part of one record interval) are multiplied pairwise, the
segments' prefix products are formed by doubling (Hillis & Steele, CACM 29,
1170 (1986)), and those are applied to the state carried in from the block
before.

Error control, per mode: the modes are independent, so each takes its own
number of substeps N per record interval, on the ladder of levels
N = 1/2, 1, 2, 4, ...  With an even number of record intervals the first
pass takes one step per two intervals (N = 1/2) and reaches the even
records; with an odd number it takes one step per interval.  The second
pass runs every mode at twice that N.  From there each pass compares a mode's new
solution y_N with the one of the level it last ran, N', at every record
both reach, by the Richardson estimate |y_N' - y_N| / ((N/N')^6 - 1) (63
for a doubling, 4095 for a quadrupling, at sixth order; Hairer, Norsett &
Wanner, Solving ODEs I, II.4).  A mode leaves once that is within
atol + rtol |y_N| for every component and record, and keeps y_N: so a mode
accurate at one step per interval costs 1.5 steps per interval, and a slow
mode that converges at N = 2 is not integrated again at the N that a fast
mode needs.  A failing mode doubles N, or quadruples it when its estimate
exceeds 2^6 times the tolerance somewhere, as one doubling cannot pass
then; a non-finite estimate, or a quadrupling past MAX_STEPS, doubles.  A
mode whose y_N is non-finite (a step too long for the Magnus series, as one
step per interval of a coarse record grid can be) fails the test and is
refined like any other.  Each pass runs the modes at the lowest level
still pending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IntegrationError

# Name of the method in run manifests.
NAME = "magnus6"
# Most Magnus steps per mode in one pass before giving up; bounds the time a
# run that cannot meet its tolerance takes to fail.
MAX_STEPS = 1 << 18
# The generator is evaluated on blocks of at most this many (mode, step)
# points, so memory does not grow with the length of the run.
BLOCK_POINTS = 1 << 12

# Gauss-Legendre nodes of one step, as fractions of its width
_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
# |z| below which C and S come from their Taylor series in z; the first
# omitted term is below 3e-17 there.
_SERIES_Z = 1e-2


@dataclass(frozen=True)
class IntegrationReport:
    """Deterministic facts of one integration."""

    substeps: int  # largest Magnus steps per record interval a mode kept, >= 1
    steps: int  # Magnus steps over all modes and passes, N = 1/2 included
    error_estimate: float  # largest Richardson estimate a mode was accepted with
    max_invariant_defect: float  # max ||u|^2 - |v|^2 - 1| over records, modes


def integrate_modes(grid, momenta, times, u0, v0, rtol, atol):
    """(u, v, report): (u, v) of every mode (rows) on the record grid
    `times` (columns), and the IntegrationReport.

    `grid(p, t)` maps momenta p and a 1-D array of times t to an object
    whose `omega`, `g` and `chi` are arrays of shape (len(p), len(t)), such
    as `DriveProtocol.grid`; it is called with the momenta of the modes
    in each pass.  `u0`, `v0` are the initial coefficients, one per mode.
    A mode whose (u, v) turns non-finite in a pass (a step too long for the
    Magnus series overflows) has not converged and is refined further.
    Raises IntegrationError at once on non-finite coefficients, or when a
    mode that failed its test cannot double N without passing MAX_STEPS
    steps in one pass.
    """
    momenta = np.asarray(momenta, dtype=float)
    times = np.asarray(times, dtype=float)
    y0 = np.array([u0, v0], dtype=complex)
    intervals = len(times) - 1
    # out holds the latest pass of every mode, (u, v) x modes x records;
    # each pass over a group of modes fills the front of `buffer`.  Both
    # are allocated before any temporary so that freed temporaries do not
    # stay pinned under them
    out = np.empty(y0.shape + times.shape, dtype=complex)
    buffer = np.empty(out.size, dtype=complex)
    # levels are kept as exponents k of N = 2^k steps per record interval:
    # `last` is the level of each mode's pass in `out`, `level` its next
    if intervals % 2:
        _propagate(grid, momenta, times, y0, 1, out)
        last, steps = 0, len(momenta) * intervals
    else:
        # N = 1/2: one step per two record intervals, to the even records
        _propagate(grid, momenta, times[::2], y0, 1, out[..., ::2])
        last, steps = -1, len(momenta) * intervals // 2
    last = np.full(len(momenta), last)
    level = last + 1
    active = np.arange(len(momenta))
    substeps, worst = 1, 0.0
    while len(active):
        k = int(level[active].min())
        group = active[level[active] == k]
        fine = buffer[: 2 * len(group) * len(times)].reshape(2, -1, len(times))
        _propagate(grid, momenta[group], times, y0[:, group], 1 << k, fine)
        steps += len(group) * intervals << k
        # the N = 1/2 pass (all modes, before the second) reaches only the
        # even records
        records = slice(None, None, 2 if last[group[0]] < 0 else 1)
        old, new = out[:, group, records], fine[..., records]
        divisor = 64.0 ** (k - last[group])[:, None] - 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.abs(np.subtract(old, new, out=old)) / divisor
            tol = atol + rtol * np.abs(new)
        passed = np.all(err <= tol, axis=(0, 2))
        passed &= np.all(np.isfinite(fine), axis=(0, 2))
        out[:, group] = fine
        last[group] = k
        if np.any(passed):
            substeps = 1 << k
            worst = max(worst, float(np.max(err[:, passed])))
        failed = group[~passed]
        active = active[~np.isin(active, group[passed])]
        if not len(failed):
            continue
        if (2 << k) * intervals > MAX_STEPS:
            finite = np.all(np.isfinite(out[:, failed]))
            raise IntegrationError(
                f"magnus step doubling not converged at {1 << k} substeps "
                "per record interval" + ("" if finite else ": (u, v) non-finite")
            )
        # an estimate more than 2^6 times the tolerance fails again after
        # one doubling: such a mode skips a level, unless that passes the cap
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = np.max(err[:, ~passed] / tol[:, ~passed], axis=(0, 2))
        skip = np.isfinite(ratio) & (ratio > 64.0) & ((4 << k) * intervals <= MAX_STEPS)
        level[failed] = k + 1 + skip
    u, v = out
    defect = np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0))
    return u, v, IntegrationReport(substeps, steps, worst, float(defect))


def fixed_steps(grid, momenta, times, u0, v0, substeps):
    """(u, v) on the record grid `times` after `substeps` Magnus steps per
    record interval, without error control: the method's raw convergence,
    for order checks; entries are non-finite where a step overflows.
    `substeps` must be a power of two: the steps of an interval are
    multiplied pairwise (`_reduce`), which drops steps at other counts.  The
    other arguments, the `grid(p, t)` callback included, are as for
    integrate_modes."""
    if substeps < 1 or substeps & (substeps - 1):
        raise ContractError(f"substeps must be a power of two, got {substeps}")
    y0 = np.array([u0, v0], dtype=complex)
    times = np.asarray(times, dtype=float)
    out = np.empty(y0.shape + times.shape, dtype=complex)
    _propagate(grid, momenta, times, y0, substeps, out)
    return out[0], out[1]


@np.errstate(over="ignore", invalid="ignore")
def _propagate(grid, momenta, times, y0, substeps, out):
    """Fill out[0], out[1] with (u, v) of the modes `momenta` on the record
    grid, taking `substeps` Magnus steps per record interval.

    The steps of each record interval are split into segments of
    per = min(substeps, block) steps, where block is the largest power of
    two with block * n_modes <= BLOCK_POINTS.  Each pass of the loop takes
    the next block // per segments (one block of steps), multiplies the
    steps of each segment (`_reduce`), forms the prefix products of the
    segments (`_scan`), applies them to the state carried in, and writes
    every record that ends inside the block.  A step too long for the
    Magnus series may overflow: (u, v) then turns non-finite, without a
    warning."""
    n_modes = y0.shape[1]
    block = 1 << max(0, (BLOCK_POINTS // n_modes).bit_length() - 1)
    per = min(substeps, block)
    segments = substeps // per  # per record interval
    starts, widths = times[:-1], np.diff(times) / substeps
    n_segments = segments * len(starts)
    u, v = y0
    out[:, :, 0] = y0
    for s0 in range(0, n_segments, block // per):
        s1 = min(s0 + block // per, n_segments)
        # a pass spans whole intervals (segments == 1) or one segment, so
        # its segments share their step offset within their interval
        intervals = slice(s0 // segments, (s1 - 1) // segments + 1)
        offsets = s0 % segments * per + np.arange(per)
        steps = _steps(grid, momenta, starts[intervals], widths[intervals], offsets)
        # (segment, mode) propagators from the start of the pass
        alpha, beta = _scan(*(x.T for x in _reduce(*steps)))
        u, v = alpha * u + beta * v, np.conj(beta) * u + np.conj(alpha) * v
        # record k ends with segment k * segments - 1
        ends = slice(segments - 1 - s0 % segments, None, segments)
        records = slice(s0 // segments + 1, s1 // segments + 1)
        out[0, :, records], out[1, :, records] = u[ends].T, v[ends].T
        u, v = u[-1], v[-1]


def _steps(grid, momenta, starts, widths, offsets):
    """Single-step propagators of shape (n_modes, n_intervals, n_offsets)
    for the steps starting at starts + offsets * widths."""
    t0 = starts[:, None] + offsets[None, :] * widths[:, None]
    h = np.broadcast_to(widths[:, None], t0.shape)
    nodes = t0[..., None] + h[..., None] * _NODES
    c = grid(momenta, nodes.ravel())
    omega, g, chi = (np.reshape(x, (-1,) + nodes.shape) for x in (c.omega, c.g, c.chi))
    # generator 3-vectors (a, br, bi) = (omega, -chi, -g) at each node
    A1, A2, A3 = ((omega[..., k], -chi[..., k], -g[..., k]) for k in range(3))
    h2, h3 = (math.sqrt(15.0) / 3.0) * h, (10.0 / 3.0) * h
    a1 = tuple(h * x2 for x2 in A2)
    a2 = tuple(h2 * (x3 - x1) for x1, x3 in zip(A1, A3))
    a3 = tuple(h3 * (x3 - 2.0 * x2 + x1) for x1, x2, x3 in zip(A1, A2, A3))
    c1 = _comm(a1, a2)
    c2 = _comm(a1, [2.0 * x3 + y for x3, y in zip(a3, c1)])
    c2 = tuple((-1.0 / 60.0) * x for x in c2)
    c3 = _comm(
        [-20.0 * x1 - x3 + y for x1, x3, y in zip(a1, a3, c1)],
        [x2 + y for x2, y in zip(a2, c2)],
    )
    a, br, bi = (x1 + x3 / 12.0 + y / 240.0 for x1, x3, y in zip(a1, a3, c3))
    z = br * br + bi * bi - a * a
    # non-finite exactly where a coefficient of the step is (or |Omega|
    # passes 1e154, which no doubling within MAX_STEPS could resolve)
    if not np.all(np.isfinite(z)):
        raise IntegrationError("non-finite pair coefficients (omega, g, chi)")
    C, S = _cosh_sinhc(z)
    return C + 1j * (S * a), S * br + 1j * (S * bi)


def _comm(x, y):
    """[X, Y] of su(1,1) elements given as 3-vectors (a, br, bi) of arrays."""
    (a, r, s), (a2, r2, s2) = x, y
    return 2.0 * (s * r2 - r * s2), 2.0 * (s * a2 - a * s2), 2.0 * (a * r2 - r * a2)


def _cosh_sinhc(z):
    """(cosh(sqrt z), sinh(sqrt z)/sqrt z) for real z of either sign: a
    Taylor series in z everywhere, replaced by the closed form where
    |z| > _SERIES_Z."""
    with np.errstate(over="ignore", invalid="ignore"):
        C = 1.0 + z * (1 / 2 + z * (1 / 24 + z * (1 / 720 + z / 40320)))
        S = 1.0 + z * (1 / 6 + z * (1 / 120 + z * (1 / 5040 + z / 362880)))
        for where, cos, sin in (
            (z < -_SERIES_Z, np.cos, np.sin),
            (z > _SERIES_Z, np.cosh, np.sinh),
        ):
            r = np.sqrt(np.abs(z[where]))
            C[where], S[where] = cos(r), sin(r) / r
    return C, S


def _reduce(alpha, beta):
    """Multiply the propagators along the last axis (a power of two in
    length, later steps on the left) by pairwise products."""
    while alpha.shape[-1] > 1:
        alpha, beta = _product(
            (alpha[..., 1::2], beta[..., 1::2]), (alpha[..., 0::2], beta[..., 0::2])
        )
    return alpha[..., 0], beta[..., 0]


def _scan(alpha, beta):
    """Prefix products along the first axis: element k becomes the product of
    elements k, ..., 1, 0, later steps on the left (Hillis-Steele doubling).
    The result is C-contiguous, so each product runs over whole rows."""
    alpha, beta = alpha.copy(), beta.copy()
    shift = 1
    while shift < len(alpha):
        alpha[shift:], beta[shift:] = _product(
            (alpha[shift:], beta[shift:]), (alpha[:-shift], beta[:-shift])
        )
        shift *= 2
    return alpha, beta


def _product(later, earlier):
    """SU(1,1) product later @ earlier in the (alpha, beta) parametrisation."""
    (a2, b2), (a1, b1) = later, earlier
    return a2 * a1 + b2 * np.conj(b1), a2 * b1 + b2 * np.conj(a1)
