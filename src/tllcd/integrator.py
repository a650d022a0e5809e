"""Sixth-order Magnus integration of the pair equations of every mode at
once, and with CD on, where it reduces to a phase, that phase from a
Chebyshev interpolant of the sound velocity.

Each (p, -p) pair evolves its annihilator coefficients by

    du/dt = +i omega u - (i g + chi) v
    dv/dt = -i omega v + (i g - chi) u,

i.e. d(u, v)/dt = A (u, v) with the su(1,1) generator
A = [[i omega, b], [conj(b), -i omega]], b = -(chi + i g).  Its sign
conventions are pinned by the Fock-oracle equivalence tests.

An element X = [[i a, br + i bi], [br - i bi, -i a]] of su(1,1) is kept as
the real 3-vector (a, br, bi), so A = (omega, -chi, -g).

Adiabatic frame: each pair is integrated in its instantaneous eigenbasis,
y' = T y with T = [[c, s], [s, c]] = exp(eta sigma_x), c = cosh eta,
s = sinh eta and eta = -(1/2) artanh(g/omega) = (1/2) ln K, the Bogoliubov
angle of the pair.  With J = [[0, 1], [-1, 0]], conjugation by T maps
sigma_z to cosh(2 eta) sigma_z - sinh(2 eta) J and J to
cosh(2 eta) J - sinh(2 eta) sigma_z, and leaves sigma_x fixed, so

    T A T^-1 = i (omega cosh 2eta + g sinh 2eta) sigma_z
               - i (omega sinh 2eta + g cosh 2eta) J - chi sigma_x.

tanh 2eta = -g/omega zeroes the J part and leaves
omega cosh 2eta + g sinh 2eta = epsilon = sqrt(omega^2 - g^2), while
dT/dt T^-1 = (d eta/dt) sigma_x with d eta/dt = Kdot/(2K) = chi_cd.  So
dy'/dt = A' y' with

    A' = T A T^-1 + dT/dt T^-1 = (epsilon, chi_cd - chi, 0):

with CD on, chi = chi_cd and A' is diagonal, so a pair that starts in the
instantaneous vacuum (v' = 0) stays in it exactly, and only gains the
phase integral of epsilon.

For every coupling family omega = p (v_F + g4/2pi) and g = p g2/2pi, so
epsilon = p v_s with the sound velocity v_s = sqrt((omega/p)^2 - (g/p)^2),
and the frame depends on p only through the couplings.  Both are formed on
the couplings' own shape (`CoefficientGrid`): one row for contact
couplings, whose modes all share v_s(t), one row per mode otherwise.  c and
s come from cosh 2eta = omega/epsilon = (omega/p)/v_s and
sinh 2eta = -g/epsilon = -(g/p)/v_s as c = sqrt((1 + omega/epsilon)/2) and
s = -g/(2 epsilon c), without arctanh, cosh or sinh, so that s (and a small
n_qp) stays relatively exact; T is evaluated at the record times only, on
that shape and broadcast to every mode, to map the initial state into the
frame and each record back to the lab (u, v).

One step of the three-node Gauss-Legendre Magnus method (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 151 (2009); Iserles & Norsett, Phil. Trans.
R. Soc. A 357, 983 (1999)) takes A'1, A'2, A'3 at
t + (1/2 - sqrt(15)/10) h, t + h/2, t + (1/2 + sqrt(15)/10) h and forms

    a1 = h A'2,  a2 = sqrt(15)/3 h (A'3 - A'1),  a3 = 10/3 h (A'3 - 2 A'2 + A'1),
    c1 = [a1, a2],  c2 = -1/60 [a1, 2 a3 + c1],
    Omega = a1 + a3/12 + 1/240 [-20 a1 - a3 + c1, a2 + c2],

with a local error of order h^7.  The commutator of two su(1,1) 3-vectors
is [X, Y] = 2 (s r' - r s', s a' - a s', a r' - r a') for X = (a, r, s),
Y = (a', r', s'); as a1, a2, a3 have no bi component, c1 = (0, 0, k) with
k = 2 (a1_a a2_r - a1_r a2_a), and `_omega` spells the three commutators
out on these zeros.  Omega = (a, br, bi) stays in su(1,1), so
Omega^2 = z I with z = br^2 + bi^2 - a^2 real and

    exp(Omega) = C(z) I + S(z) Omega,  C = cosh(sqrt z), S = sinh(sqrt z)/sqrt z,

read as cos/sin for z < 0 and as a series for small |z|.  The result is the
SU(1,1) matrix [[alpha, beta'], [conj(beta'), conj(alpha)]] with
|alpha|^2 - |beta'|^2 = C^2 - z S^2 = 1, so |u|^2 - |v|^2 = 1 holds to
roundoff for every step size.  To leading order
z = ((chi_cd - chi)^2 - epsilon^2) h^2: -epsilon^2 h^2 with CD on, and with
CD off negative where chi_cd^2 < epsilon^2 = v_s^2 p^2.  Either sign is
integrated alike; the CD stability gate is `stability_margin`, whose
margin is the least over [0, t_f] where it decides the verdict, before any
integration.

Propagation, on the Magnus route: `_propagate` writes the frame state
y' = (u', v') at each record, from y0 mapped into the frame once per call,
straight into the rows of its modes in the route's one frame state.  The
steps of a pass form one flat sequence, N per record interval, taken one
block at a time so that memory does not grow with the run: the
propagators (alpha, beta) of a block's steps from its start, prefix
products by doubling (Hillis & Steele, CACM 29, 1170 (1986)), are applied
to the state carried in from the block before.  `_lab` maps y' back to the
lab (u, v), for the error test and the result.  What follows a pass runs
by chunks of at most BLOCK_POINTS (mode, record) points (`_chunks`: whole
rows of records where a row fits), each finished before the next: `_lab`,
the error test (each chunk's lab state is compared with the pass before
and then written over it), the frame map of `_start` and the invariant
defect.  So a run holds its frame state, its lab state and one block of
temporaries, whatever its length.  Of the frame state a run reads only the
moduli |u'| and |v'| (n_qp = |v'|^2, the fidelity min(1/|u'|, 1)): they
are formed last, and the frame state is let go when the call returns.

Error control, per mode: the modes are independent, so each takes its own
number of substeps N per record interval, on the ladder of levels
N = 1/2, 1, 2, 4, ...  With an even number of record intervals the first
pass takes one step per two intervals (N = 1/2) and reaches the even
records; with an odd number it takes one step per interval.  Each later
pass runs every mode still failing at twice the N of the pass before, and
compares its lab (u, v) y_N with the pass at N/2, at every record both
reach, by a Richardson estimate: a mode passes where
|y_(N/2) - y_N| / 63 <= atol + rtol |y_N| (2^6 - 1, at sixth order;
Hairer, Norsett & Wanner, Solving ODEs I, II.4) for every component and
record.  A mode leaves once its test holds, and keeps its pass at N: so a
slow mode that converges at N = 2 is not integrated again at the N that a
fast mode needs.  A mode whose y_N is non-finite (a step too long for the
Magnus series, as one step per interval of a coarse record grid can be)
fails the test and is refined like any other.

Chebyshev route, where the coefficients apply CD with chi the very array
chi_cd: the frame state at a record is (e^(i Phi) u'_0, e^(-i Phi) v'_0),
Phi = p phi with phi the integral of v_s from times[0] (`_Route.phase`,
from the interpolant of `_chebyshev` on the couplings' rows), so |u'| and
|v'| keep their initial values.  Each mode's estimate is delta Phi = p (tail +
4 eps |phi(times[-1])|); as |e^(ia) - e^(ib)| <= |a - b|, it moves the lab
u = c u' - s v' by at most delta Phi (c |u'_0| + |s| |v'_0|), and
v = c v' - s u' by at most delta Phi (c |v'_0| + |s| |u'_0|).  A mode whose
bound exceeds atol + rtol |u| (or |v|) of its formed state at a record
raises: the 4 eps |phi| term is a floor that no smaller tolerance meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _chebyshev
from ._chebyshev import EPS
from .errors import ContractError, IntegrationError
from .model import is_count

# Names of the two routes in run manifests: Magnus steps, or the phase
# from a Chebyshev interpolant where the frame generator is diagonal (CD on).
MAGNUS, CHEBYSHEV = "magnus6", "chebyshev"
# Most Magnus steps per mode in one pass before giving up; bounds the time
# a run that cannot meet its tolerance takes to fail.
MAX_STEPS = 1 << 18
# The generator, the cosine sums and what follows a pass are evaluated on
# blocks of at most this many points, so memory does not grow with the run.
BLOCK_POINTS = 1 << 12

# Gauss-Legendre nodes of one step, as fractions of its width
_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
# |z| below which C and S come from their Taylor series in z; the first
# omitted term is below 3e-17 there.
_SERIES_Z = 1e-2
_NON_FINITE = "non-finite pair coefficients (omega/p, g/p, v_s, chi, chi_cd)"


@dataclass(frozen=True)
class IntegrationReport:
    """Deterministic facts of one integration."""

    method: str  # the route that ran, MAGNUS or CHEBYSHEV
    substeps: int  # largest steps per record interval a mode kept; 1 on CHEBYSHEV
    # Magnus steps over all modes and passes, N = 1/2 included, or the v_s
    # evaluations of the Chebyshev route over every degree it tried
    steps: int
    # largest estimate a mode was accepted with: the Richardson estimate of
    # its lab (u, v), or the bound on it from delta Phi
    error_estimate: float
    max_invariant_defect: float  # max ||u|^2 - |v|^2 - 1| over records, modes


def integrate_modes(grid, times, coefficients, u0, v0, rtol, atol):
    """(u, v, report, moduli): (u, v) of every mode (rows) on the record
    grid `times` (columns), the IntegrationReport, and
    moduli = (|u'|, |v'|), two real (modes, records) arrays, of the
    adiabatic frame state (u', v') that (u, v) is mapped back from, which
    the Chebyshev route conserves.  They are formed after the invariant
    defect, |v'| first, and the frame state itself is let go on return.

    `grid(p, t)` maps momenta p and a 1-D array of times t to an object
    such as `DriveProtocol.grid`'s, whose `omega_per_p` and `g_per_p`
    (omega/p and g/p, with |g| < omega), `v_s` (the sound velocity
    sqrt((omega/p)^2 - (g/p)^2), epsilon/p) and `chi` (the CD amplitude
    applied) and `chi_cd` (Kdot/(2K), d eta/dt of the pair's Bogoliubov
    angle, whether or not CD is applied) are arrays that broadcast to
    (len(p), len(t)); chi and chi_cd have that shape, the others one row
    where they do not depend on p.  `coefficients` is grid(p, times), which
    the caller holds already, and says what is integrated: the modes are
    its column `p`, the frame comes from its omega/p and g/p, and the route
    from `cd_enabled`, `chi` and `chi_cd`.  `u0`, `v0` are the initial
    coefficients, one per mode, mapped into the frame once.  The Chebyshev
    route runs where the coefficients apply CD with chi the very array
    chi_cd: it calls `grid` at its nodes with the momenta of the couplings'
    rows, the first mode's alone where `coefficients.v_s` is one row.  Any
    other chi, a copy of chi_cd included, takes Magnus steps, which hold
    for every chi: each pass calls `grid` with the momenta of its modes,
    and a mode whose (u, v) turns non-finite in a pass (a step too long
    for the Magnus series overflows) is refined further.
    Raises IntegrationError at once on non-finite coefficients or
    |g| > omega (the pair has no adiabatic frame), when a mode that failed
    its test cannot double N without passing MAX_STEPS steps in one pass,
    when the interpolant of v_s does not converge by
    `_chebyshev.MAX_DEGREE`, or when a mode's phase estimate exceeds its
    tolerance (the module docstring).
    """
    chebyshev = coefficients.cd_enabled and coefficients.chi is coefficients.chi_cd
    route, bound = _Route(grid, times, coefficients, u0, v0, magnus=not chebyshev), None
    if chebyshev:
        method, substeps, worst = CHEBYSHEV, 1, 0.0
        steps, bound = route.phase(len(coefficients.v_s) == 1)
    else:
        method = MAGNUS
        substeps, steps, worst = route.ladder(rtol, atol)
    u, v = route.lab
    # np.maximum, not max, so that a nan propagates as np.max's would; the
    # Chebyshev route's test reads the same |u|, |v|
    defect = 0.0
    for r, t in _chunks(len(route.momenta), len(route.times)):
        x, y = np.abs(u[r, t]), np.abs(v[r, t])
        defect = np.maximum(defect, np.max(np.abs(x**2 - y**2 - 1.0)))
        if bound is not None:
            worst = max(worst, _phase_test(route.frame[:, r, t], bound[:, r], (x, y), rtol, atol))
    report = IntegrationReport(method, substeps, steps, worst, float(defect))
    if bound is None:
        v_mod = np.abs(route.out[1])
        return u, v, report, (np.abs(route.out[0]), v_mod)
    # the Chebyshev route keeps |u'| = |u'_0| and |v'| = |v'_0| at every record
    v_mod, u_mod = (np.repeat(np.abs(y), u.shape[1]).reshape(u.shape) for y in route.y0[::-1])
    return u, v, report, (u_mod, v_mod)


def fixed_steps(grid, times, coefficients, u0, v0, substeps):
    """(u, v) on the record grid `times` after `substeps` Magnus steps per
    record interval, for any chi, without error control: the method's raw
    convergence, for order checks and references; entries are non-finite
    where a step overflows.  A `substeps` that is not an integer
    (model.is_count) of at least 1 raises ContractError.  The other
    arguments are as for integrate_modes."""
    if not (is_count(substeps) and substeps >= 1):
        raise ContractError(f"substeps must be an integer >= 1, got {substeps!r}")
    route = _Route(grid, times, coefficients, u0, v0)
    route.first(1, substeps)
    return route.lab[0], route.lab[1]


class _Route:
    """The modes' `momenta` (the coefficients' column p), the frame and
    y0' from `_start`, and `out` and `lab`, the one frame state (Magnus
    steps only) and one lab state of an integration.  `ladder(rtol, atol)`
    runs the Magnus step doubling, `phase(shared)` the Chebyshev route;
    each leaves every mode's (u, v) in `lab`.  A plain class: dataclasses
    took ~2 ms more to import."""

    def __init__(self, grid, times, coefficients, u0, v0, magnus=True):
        self.grid, self.momenta = grid, coefficients.p[:, 0]
        self.times = np.asarray(times, dtype=float)
        # out holds the frame state of every mode, on the Magnus route only,
        # and lab its (u, v), each (u, v) x modes x records.  Both are
        # allocated before any temporary so that freed temporaries do not
        # stay pinned under them
        shape = (2, len(self.momenta), len(self.times))
        self.out = np.empty(shape, dtype=complex) if magnus else None
        self.lab = np.empty(shape, dtype=complex)
        self.frame, self.y0 = _start(coefficients, u0, v0)

    def ladder(self, rtol, atol):
        """(substeps, steps, worst): the step doubling of the module
        docstring, the largest N a mode kept, the steps of every pass and
        the largest estimate a mode was accepted with."""
        modes, intervals = len(self.momenta), len(self.times) - 1
        # levels are kept as exponents k of N = 2^k steps per record
        # interval.  The first pass takes one step per `stride` record
        # intervals and reaches every stride-th record, where it is
        # compared: N = 1/2 and the even records on an even interval count,
        # else N = 1 and every record
        stride = 2 - intervals % 2
        self.first(stride)
        k, steps = 1 - stride, modes * (intervals // stride)
        active = np.arange(modes)
        substeps, worst = 1, 0.0
        while len(active):
            k += 1
            # views, not copies, while every mode is still active
            rows = active if len(active) < modes else slice(None)
            passed, estimate = self.refine(active, rows, 1 << k, stride, rtol, atol)
            steps += len(active) * intervals << k
            if np.any(passed):
                substeps = 1 << k
                worst = max(worst, estimate)
            active, stride = active[~passed], 1
            if len(active) and (2 << k) * intervals > MAX_STEPS:
                finite = np.all(np.isfinite(self.lab[:, active]))
                raise IntegrationError(
                    f"{MAGNUS} step doubling not converged at {1 << k} substeps "
                    "per record interval" + ("" if finite else ": (u, v) non-finite")
                )
        return substeps, steps, worst

    def first(self, stride, substeps=1):
        """Every mode at `substeps` steps per `stride` record intervals, to
        every stride-th record of `out` and `lab`."""
        out, lab = self.out[..., ::stride], self.lab[..., ::stride]
        times = self.times[::stride]
        _propagate(self.grid, self.momenta, times, self.y0, substeps, out, slice(None))
        _lab(self.frame[..., ::stride], out, lab)

    def refine(self, active, rows, substeps, stride, rtol, atol):
        """Run the modes `active` (indexed by `rows`) at `substeps` steps
        per interval, straight into their rows of `out`, over their pass
        before, which the test does not read; map them to the lab chunk by
        chunk, compare each chunk with the pass before in `lab` at every
        stride-th record and write it there.  Returns which passed and the
        largest estimate among those."""
        y0 = self.y0[:, rows]
        _propagate(self.grid, self.momenta[rows], self.times, y0, substeps, self.out, rows)
        passed, worst = np.ones(len(active), dtype=bool), np.zeros(len(active))
        for r, t in _chunks(len(active), len(self.times)):
            modes = _rows(rows, r)
            new = np.empty((2, r.stop - r.start, t.stop - t.start), dtype=complex)
            _lab(self.frame[:, modes, t], self.out[:, modes, t], new)
            records = _compared(t, stride)
            old = self.lab[:, modes, records]
            at = new[..., records.start - t.start :: stride]
            # old is overwritten with the difference, then lab with new
            with np.errstate(over="ignore", invalid="ignore"):
                err = np.abs(np.subtract(old, at, out=old))
                err /= 63.0
                tol = np.abs(at)
                tol *= rtol
                tol += atol
            passed[r] &= np.all(err <= tol, axis=(0, 2))
            passed[r] &= np.all(np.isfinite(new), axis=(0, 2))
            worst[r] = np.maximum(worst[r], np.max(err, axis=(0, 2), initial=0.0))
            self.lab[:, modes, t] = new
        return passed, float(np.max(worst[passed])) if np.any(passed) else 0.0

    def phase(self, shared):
        """(steps, bound): the Chebyshev route of the module docstring, on
        one row of v_s for every mode where `shared`, else one per mode: the
        v_s evaluations, and delta Phi (|u'_0|, |v'_0|), (2, modes, 1), for
        `_phase_test`.  The lab state is formed from each chunk's frame
        state, which is let go with the chunk."""
        grid, momenta = self.grid, self.momenta[: 1 if shared else None]

        def v_s(t):
            values = grid(momenta, t).v_s
            if not np.all(np.isfinite(values)):
                raise IntegrationError(_NON_FINITE)
            return values

        t0, t1 = self.times[0], self.times[-1]
        b, tail, steps = _chebyshev.primitive(v_s, t0, t1, BLOCK_POINTS)
        # phi at the records, less its value at the first, so that Phi is 0
        # there exactly
        phi = np.empty((len(b), len(self.times)))
        for r, t in _chunks(*phi.shape):
            phi[r, t] = _chebyshev.evaluate(b[r], self.times[t], t0, t1)
        phi -= phi[:, :1].copy()
        p, phi = self.momenta[:, None], np.broadcast_to(phi, self.lab.shape[1:])
        delta = p * (tail[:, None] + 4.0 * EPS * np.abs(phi[:, -1:]))
        u0, v0 = self.y0[..., None]
        for r, t in _chunks(*phi.shape):
            y = np.empty((2, r.stop - r.start, t.stop - t.start), dtype=complex)
            # Phi in the real plane of v', then the frame state over it
            np.multiply(p[r], phi[r, t], out=y[1].real)
            np.cos(y[1].real, out=y[0].real)
            np.sin(y[1].real, out=y[0].imag)
            np.conjugate(y[0], out=y[1])
            y[0] *= u0[r]
            y[1] *= v0[r]
            _lab(self.frame[:, r, t], y, self.lab[:, r, t])
        return steps, delta * np.abs(self.y0[..., None])


def _phase_test(frame, bound, moduli, rtol, atol):
    """The largest bound that delta Phi puts on the lab (u, v) of a chunk,
    from its frame (c, s) and `bound` = delta Phi (|u'_0|, |v'_0|) of its
    modes (the module docstring).  Raises IntegrationError where one
    exceeds atol + rtol times `moduli`, the chunk's (|u|, |v|), which it
    may overwrite."""
    c, s = frame
    s = np.abs(s)
    worst = 0.0
    for k, tol in enumerate(moduli):
        estimate = c * bound[k]
        estimate += s * bound[1 - k]
        top = float(np.max(estimate))
        worst = max(worst, top)
        # within atol everywhere, the state need not be read
        if top <= atol:
            continue
        tol *= rtol
        tol += atol
        if not np.all(estimate <= tol):
            raise IntegrationError(
                f"{CHEBYSHEV} phase not within tolerance: estimate {worst:.3e} > "
                "atol + rtol |y|"
            )
    return worst


def _chunks(n_rows, n_records):
    """(rows, records) slices that cover an (n_rows, n_records) array in C
    order, each of at most BLOCK_POINTS points and of one at least: the
    chunks that what follows a pass runs on, so that its temporaries do
    not grow with the run.  A chunk is whole rows where a row fits, so that
    every operation on it runs along whole rows, else a part of one row."""
    if n_records <= BLOCK_POINTS:
        size = max(1, BLOCK_POINTS // n_records)
        records = slice(0, n_records)
        return [(slice(a, min(a + size, n_rows)), records) for a in range(0, n_rows, size)]
    return [
        (slice(i, i + 1), slice(a, min(a + BLOCK_POINTS, n_records)))
        for i in range(n_rows)
        for a in range(0, n_records, BLOCK_POINTS)
    ]


def _rows(rows, chunk):
    """The modes of the rows `chunk` of a pass over `rows`: the slice of
    every mode, or an index array of the modes still on the ladder."""
    return chunk if isinstance(rows, slice) else rows[chunk]


def _compared(records, stride):
    """The records of the slice `records` that a test at every stride-th
    record reads."""
    return slice(-(-records.start // stride) * stride, records.stop, stride)


def _start(coefficients, u0, v0):
    """(frame, y0'): the adiabatic frame (c, s) = (cosh eta, sinh eta) of
    every mode (rows) at every record (columns) of the record-grid
    `coefficients`, stacked on a first axis, from
    cosh 2eta = (omega/p)/v_s and sinh 2eta = -(g/p)/v_s on the couplings'
    shape, by chunks (`_chunks`), and broadcast (a read-only view) to one row
    per mode of u0; and the initial state (u0, v0) mapped into it,
    y0' = T y0 with T = [[c, s], [s, c]] at the first record.  v_s is
    formed here, not read from `coefficients`, so that with CD off the
    record grid does not hold it through the integration (with CD on, the
    Chebyshev route reads its shape there), and where it is not real the
    refusal is an IntegrationError, not check_pair_stable's."""
    w, g = np.broadcast_arrays(coefficients.omega_per_p, coefficients.g_per_p)
    frame = np.empty((2,) + w.shape)
    for r, t in _chunks(*w.shape):
        w_, g_ = w[r, t], g[r, t]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v_s = np.sqrt(w_ * w_ - g_ * g_)
            c = np.sqrt(0.5 + 0.5 * w_ / v_s)
            frame[0, r, t] = c
            frame[1, r, t] = -g_ / (2.0 * v_s * c)
        # non-finite exactly where omega/p or g/p is, or |g| > omega
        if not np.all(np.isfinite(frame[:, r, t])):
            raise IntegrationError(_NON_FINITE)
    (c, s), (u, v) = frame[..., 0], np.array([u0, v0], dtype=complex)
    frame = np.broadcast_to(frame, (2, len(u), frame.shape[-1]))
    return frame, np.array([c * u + s * v, s * u + c * v])


def _lab(frame, y, out):
    """Write the lab (u, v) of the frame state y = (u', v') on the records
    of `frame` (as from `_start`) to out[0], out[1], which may be y itself:
    T^-1 = [[c, -s], [-s, c]], by chunks (`_chunks`)."""
    for r, t in _chunks(y.shape[1], y.shape[2]):
        (c, s), (u, v) = frame[:, r, t], y[:, r, t]
        su, sv = s * u, s * v
        np.multiply(c, u, out=out[0, r, t])
        out[0, r, t] -= sv
        np.multiply(c, v, out=out[1, r, t])
        out[1, r, t] -= su


@np.errstate(over="ignore", invalid="ignore")
def _propagate(grid, momenta, times, y0, substeps, out, rows):
    """Fill the rows `rows` of out[0], out[1] (a slice, or an index array
    of the modes still on the ladder), in place, with the frame state
    (u', v') of the modes `momenta` on the record grid, from the frame
    state y0 at times[0], at `substeps` Magnus steps per record interval.
    Each block of steps (`_blocks`) applies its propagators from the block
    start to the state carried in, and writes the records that end inside
    it.  A step too long for the Magnus series may overflow: (u', v') then
    turns non-finite, without a warning."""
    u, v = y0
    out[:, rows, 0] = y0
    for starts, widths, ends, records in _blocks(times, substeps, len(momenta)):
        # (step, mode) propagators from the start of the block
        alpha, beta = _scan(*(x.T for x in _steps(grid, momenta, starts, widths)))
        u, v = alpha * u + beta * v, np.conj(beta) * u + np.conj(alpha) * v
        out[0, rows, records], out[1, rows, records] = u[ends].T, v[ends].T
        u, v = u[-1], v[-1]


def _blocks(times, substeps, n_rows):
    """The steps of a pass over `n_rows` modes at `substeps` steps per
    record interval of `times`, one block at a time: (starts, widths, ends,
    records) with the start and width of each step of the block, the steps
    of the block that end a record interval (`ends`) and those records
    (`records`).

    The steps form one flat sequence: step j starts at
    times[i] + (j - i N) h_i, with N = `substeps`, i = j // N and
    h_i = (times[i + 1] - times[i]) / N, and record k ends with step
    k N - 1.  A block is the largest power of two of steps with
    block * n_rows <= BLOCK_POINTS, so that memory does not grow with the
    run, and so that at the ladder's N (powers of two) a block holds whole
    intervals or a whole part of one, and `_scan`'s doubling multiplies the
    steps of each interval as a balanced tree."""
    block = 1 << max(0, (BLOCK_POINTS // n_rows).bit_length() - 1)
    widths = np.diff(times) / substeps
    n_steps = substeps * len(widths)
    for j0 in range(0, n_steps, block):
        j1 = min(j0 + block, n_steps)
        interval, offset = np.divmod(np.arange(j0, j1), substeps)
        h = widths[interval]
        ends = slice(substeps - 1 - j0 % substeps, None, substeps)
        records = slice(j0 // substeps + 1, j1 // substeps + 1)
        yield times[interval] + offset * h, h, ends, records


def _steps(grid, momenta, starts, widths):
    """Single-step propagators of shape (n_modes, n_steps) for the steps
    starting at `starts` with widths `widths` (1-D, one entry per step), in
    the adiabatic frame.  The coefficients are evaluated at the three
    Gauss-Legendre nodes of every step, node first, so that each node's
    values are one contiguous block."""
    nodes = starts + widths * _NODES[:, None]
    c = grid(momenta, nodes.ravel())
    eps = momenta[:, None, None] * c.v_s.reshape((-1,) + nodes.shape)
    # generator 3-vectors (epsilon, chi_cd - chi, 0) at each node
    r = np.subtract(c.chi_cd, c.chi).reshape(eps.shape)
    a, br, bi = _omega(widths, eps.swapaxes(0, 1), r.swapaxes(0, 1))
    z = br * br + bi * bi - a * a
    # non-finite exactly where a coefficient of the step is (or |Omega|
    # passes 1e154, which no doubling within MAX_STEPS could resolve)
    if not np.all(np.isfinite(z)):
        raise IntegrationError(_NON_FINITE)
    C, S = _cosh_sinhc(z)
    return C + 1j * (S * a), S * br + 1j * (S * bi)


def _omega(h, a, r):
    """Omega = (a, br, bi) of one Magnus step of width h from the generator
    (a[k], r[k], 0) at the three nodes k: the formula of the module
    docstring with the commutators written out on the zero bi components."""
    h2, h3 = (math.sqrt(15.0) / 3.0) * h, (10.0 / 3.0) * h
    # a1 = (p, q, 0), a2 = (x, y, 0), a3 = (e, f, 0)
    p, q = h * a[1], h * r[1]
    x, y = h2 * (a[2] - a[0]), h2 * (r[2] - r[0])
    e, f = h3 * (a[2] - 2.0 * a[1] + a[0]), h3 * (r[2] - 2.0 * r[1] + r[0])
    # c1 = [a1, a2] = (0, 0, k);  c2 = -1/60 [a1, 2 a3 + c1] = (q k, p k, -2 d)/30
    k = 2.0 * (p * y - q * x)
    d = p * f - q * e
    # c3 = [U, V] with U = -20 a1 - a3 + c1 and V = a2 + c2
    ua, ur = -20.0 * p - e, -20.0 * q - f
    va, vr, vs = x + q * k / 30.0, y + p * k / 30.0, d / -15.0
    return (
        p + e / 12.0 + (k * vr - ur * vs) / 120.0,
        q + f / 12.0 + (k * va - ua * vs) / 120.0,
        (ua * vr - ur * va) / 120.0,
    )


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
