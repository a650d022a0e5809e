"""Sixth-order Magnus integration of the pair equations of every mode at
once, and with CD on, where it reduces to a phase, the phase route.

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

with CD on, chi = chi_cd and A' is diagonal, so the Magnus step is the
Gauss quadrature of the phase integral of epsilon, and a pair that starts
in the instantaneous vacuum (v' = 0) stays in it exactly, at any step
size.

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
the error test of either route (each chunk's lab state is compared with
the pass before and then written over it), the phase route's forming of
the state, the frame map of `_start` and the invariant defect.  So a run
holds its frame state, its lab state and one block of temporaries,
whatever its length.  Of the frame state a run reads only the moduli
|u'| and |v'| (n_qp = |v'|^2, the fidelity min(1/|u'|, 1)): they are
formed last, and the frame state goes with the route when the call
returns.

Phase route, where the coefficients apply CD with chi the very array chi_cd
(`_route`): r = chi_cd - chi is then 0 at every node, so a1, a2 and a3 have
only an a component, every commutator of them vanishes, and
Omega = (a, 0, 0) with

    a = h A'2 + (10/3) h (A'3 - 2 A'2 + A'1)/12 = h (5 eps1 + 8 eps2 + 5 eps3)/18,

the three-node Gauss-Legendre quadrature of the integral of epsilon over
the step.  exp(Omega) = diag(e^(i a), e^(-i a)), so at a record the frame
state is (e^(i Phi) u'_0, e^(-i Phi) v'_0), with Phi the sum of the panels
a from times[0]: |u'| and |v'| are conserved, and v' stays exactly 0 from
the instantaneous vacuum.  As eps = p v_s, Phi = p phi with phi the sum of
the panels of v_s, and phi is the route's one unknown per row of the
couplings' shape: one row for contact couplings, which all modes share,
one per mode otherwise.  A pass (`_phase`) sums those panels on those rows,
block by block with blocks sized on the rows, carries the sum from block to
block, and returns phi at the records.  The ladder runs on phi, and each
mode's frame state is formed once, from the phase it is accepted with
(`_PhaseRoute.finish`), then mapped to the lab by one `_lab`.  The route
forms no `_omega`, `_cosh_sinhc` or `_scan`, and no state in a pass.  phi
is a float sum, so its rounding grows as eps phi.

Error control, per mode: the modes are independent, so each takes its own
number of substeps N per record interval, on the ladder of levels
N = 1/2, 1, 2, 4, ...  With an even number of record intervals the first
pass takes one step per two intervals (N = 1/2) and reaches the even
records; with an odd number it takes one step per interval.  Each later
pass runs every mode still failing at twice the N of the pass before, and
compares it with the pass at N/2, at every record both reach, by a
Richardson estimate: the difference over 63 (2^6 - 1, at sixth order;
Hairer, Norsett & Wanner, Solving ODEs I, II.4).  A mode leaves once its
test holds at every record, and keeps its pass at N: so a mode accurate at
one step per interval, as every CD-on mode with an accurate phase is, costs
1.5 steps per interval, and a slow mode that converges at N = 2 is not
integrated again at the N that a fast mode needs.  The two routes differ
only in what a pass returns and how the estimate is formed.

On the Magnus route a pass returns the lab (u, v) y_N of its modes, and a
mode passes where |y_(N/2) - y_N| / 63 <= atol + rtol |y_N| for every
component and record.  A mode whose y_N is non-finite (a step too long for
the Magnus series, as one step per interval of a coarse record grid can
be) fails the test and is refined like any other.

On the phase route a pass returns phi, and the test is on
delta Phi = p (phi_(N/2) - phi_N) / 63, mapped onto the lab test above by a
bound.  At a record with frame (c, s), the lab state is u = c u' - s v',
v = c v' - s u', with u' = e^(i Phi) u'_0 and v' = e^(-i Phi) v'_0.  As
|e^(ia) - e^(ib)| <= |a - b|, the lab estimate |u_(N/2) - u_N| / 63 is at
most

    B_u = |delta Phi| (c |u'_0| + |s| |v'_0|),  and that of v at most
    B_v = |delta Phi| (c |v'_0| + |s| |u'_0|);

and as |u'| = |u'_0| and |v'| = |v'_0|, the reverse triangle inequality
gives |u_N| >= c |u'_0| - |s| |v'_0| and |v_N| >= |c |v'_0| - |s| |u'_0||.
A mode passes where

    B_u <= atol + rtol (c |u'_0| - |s| |v'_0|),
    B_v <= atol + rtol |c |v'_0| - |s| |u'_0||

at every record; then the lab test holds too, so the phase test never
accepts a pass that the lab test would refuse.  Its estimate is the larger
of B_u and B_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IntegrationError
from .model import is_count

# Names of the two routes in run manifests: Magnus steps, or the phase
# integral alone where the frame generator is diagonal (CD on).
MAGNUS, PHASE = "magnus6", "phase6"
# Most steps (Magnus steps or phase quadrature panels) per mode in one pass
# before giving up; bounds the time a run that cannot meet its tolerance
# takes to fail.
MAX_STEPS = 1 << 18
# The generator is evaluated on blocks of at most this many (mode, step)
# points, so memory does not grow with the length of the run.
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

    method: str  # the route that ran, MAGNUS or PHASE
    substeps: int  # largest steps per record interval a mode kept, >= 1
    # steps (Magnus steps, or the phase route's quadrature panels) over all
    # modes and passes, N = 1/2 included
    steps: int
    # largest estimate a mode was accepted with: the Richardson estimate of
    # its lab (u, v), or on the phase route the bound on it from delta Phi
    error_estimate: float
    max_invariant_defect: float  # max ||u|^2 - |v|^2 - 1| over records, modes


def integrate_modes(grid, times, coefficients, u0, v0, rtol, atol):
    """(u, v, report, moduli): (u, v) of every mode (rows) on the record
    grid `times` (columns), the IntegrationReport, and
    moduli = (|u'|, |v'|), two real (modes, records) arrays, of the
    adiabatic frame state (u', v') that (u, v) is mapped back from.  They
    are formed after the invariant defect, |v'| first, and the frame state
    itself is let go on return.

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
    from `cd_enabled`, `chi` and `chi_cd`.  Each pass calls `grid` with the
    momenta of its modes, or on the phase route with those of the
    couplings' rows: the first mode's alone where `coefficients.v_s` is one
    row.  `u0`, `v0` are the initial coefficients, one per mode, mapped
    into the frame once.  The phase route runs where the coefficients apply
    CD with chi the very array chi_cd: each pass sums the phase integral of
    v_s on the couplings' rows, on the same ladder, and the estimate is the
    bound on the lab estimate that the module docstring derives from it.
    Any other chi, a copy of chi_cd included, takes Magnus steps, which
    hold for every chi.  A mode whose (u, v) turns non-finite in a pass (a
    step too long for the Magnus series overflows) is refined further.
    Raises IntegrationError at once on non-finite coefficients or
    |g| > omega (the pair has no adiabatic frame), or when a mode that
    failed its test cannot double N without passing MAX_STEPS steps in one
    pass.
    """
    route = _route(grid, times, coefficients, u0, v0)
    modes, intervals = len(route.momenta), len(route.times) - 1
    # levels are kept as exponents k of N = 2^k steps per record interval.
    # The first pass takes one step per `stride` record intervals and
    # reaches every stride-th record, where it is compared: N = 1/2 and the
    # even records on an even interval count, else N = 1 and every record
    stride = 2 - intervals % 2
    route.first(stride)
    k, steps = 1 - stride, modes * (intervals // stride)
    active = np.arange(modes)
    substeps, worst = 1, 0.0
    while len(active):
        k += 1
        # views, not copies, while every mode is still active
        rows = active if len(active) < modes else slice(None)
        passed, estimate = route.refine(active, rows, 1 << k, stride, rtol, atol)
        steps += len(active) * intervals << k
        if np.any(passed):
            substeps = 1 << k
            worst = max(worst, estimate)
        active, stride = active[~passed], 1
        if len(active) and (2 << k) * intervals > MAX_STEPS:
            # phi is finite: a non-finite panel raises at once
            finite = route.method == PHASE or np.all(np.isfinite(route.lab[:, active]))
            raise IntegrationError(
                f"{route.method} step doubling not converged at {1 << k} substeps "
                "per record interval" + ("" if finite else ": (u, v) non-finite")
            )
    route.finish()
    u, v = route.lab
    # np.maximum, not max, so that a nan propagates as np.max's would
    defect = 0.0
    for r, t in _chunks(modes, len(route.times)):
        x, y = np.abs(u[r, t]), np.abs(v[r, t])
        defect = np.maximum(defect, np.max(np.abs(x**2 - y**2 - 1.0)))
    report = IntegrationReport(route.method, substeps, steps, worst, float(defect))
    v_mod = np.abs(route.out[1])
    return u, v, report, (np.abs(route.out[0]), v_mod)


def fixed_steps(grid, times, coefficients, u0, v0, substeps):
    """(u, v) on the record grid `times` after `substeps` steps per record
    interval, without error control: the method's raw convergence, for
    order checks; entries are non-finite where a step overflows.
    A `substeps` that is not an integer (model.is_count) of at least 1
    raises ContractError.  The other arguments, and the route they pick,
    are as for integrate_modes; the phase route sums the panels of one of
    its passes on the couplings' rows and forms the state."""
    if not (is_count(substeps) and substeps >= 1):
        raise ContractError(f"substeps must be an integer >= 1, got {substeps!r}")
    route = _route(grid, times, coefficients, u0, v0)
    route.fixed(substeps)
    return route.lab[0], route.lab[1]


def _route(grid, times, coefficients, u0, v0):
    """The route of the record-grid `coefficients`: the phase route exactly
    where they apply CD with chi the very array chi_cd (CD off decides it
    without forming chi_cd), Magnus steps for any other chi."""
    phase = coefficients.cd_enabled and coefficients.chi is coefficients.chi_cd
    return (_PhaseRoute if phase else _MagnusRoute)(grid, times, coefficients, u0, v0)


class _Route:
    """A route's passes: the modes' `momenta` (the coefficients' column p),
    the frame and y0' from `_start`, and `out` and `lab`, the route's one
    frame state and one lab state.  `first(stride)` runs every mode at one
    step per `stride` intervals and reaches every stride-th record;
    `refine(active, rows, substeps, stride, rtol, atol)` runs the modes
    `active` (indexed by `rows`) at `substeps` steps per interval, tests
    them against their pass before at every stride-th record, keeps the
    pass, and returns which passed and the largest estimate among those;
    `finish()` leaves in `out` and `lab` the state of every mode from the
    pass it was accepted with, and `fixed(substeps)` that at `substeps`
    steps per interval.  Plain classes: dataclasses took ~2 ms more to
    import."""

    def __init__(self, grid, times, coefficients, u0, v0):
        self.grid, self.momenta = grid, coefficients.p[:, 0]
        self.times = np.asarray(times, dtype=float)
        # out holds the frame state of every mode and lab its (u, v), each
        # (u, v) x modes x records.  Both are allocated before any
        # temporary so that freed temporaries do not stay pinned under them
        self.out = np.empty((2, len(self.momenta), len(self.times)), dtype=complex)
        self.lab = np.empty_like(self.out)
        self.frame, self.y0 = _start(coefficients, u0, v0)


class _MagnusRoute(_Route):
    """Magnus steps: each pass writes the frame state of its modes straight
    into their rows of `out`, over the state of their pass before, which
    the test does not read; the test then maps it to the lab chunk by
    chunk, compares each chunk with the pass before in `lab` and writes it
    there."""

    method = MAGNUS

    def first(self, stride, substeps=1):
        out, lab = self.out[..., ::stride], self.lab[..., ::stride]
        times = self.times[::stride]
        _propagate(self.grid, self.momenta, times, self.y0, substeps, out, slice(None))
        _lab(self.frame[..., ::stride], out, lab)

    def refine(self, active, rows, substeps, stride, rtol, atol):
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

    def finish(self):
        pass

    def fixed(self, substeps):
        self.first(1, substeps)


class _PhaseRoute(_Route):
    """The phase route: each pass returns phi at the records on the
    couplings' rows (`_phase`), one for every mode where `shared`; `old` is
    the phi of the last pass of the modes still failing.  The phase
    Phi = p phi of each mode that passed is kept in `phase`, the real part
    of the v' plane of `out`, from which `finish` forms its state."""

    method = PHASE

    def __init__(self, grid, times, coefficients, u0, v0):
        super().__init__(grid, times, coefficients, u0, v0)
        # v_s on the record grid is one row where every mode shares it
        self.shared = len(coefficients.v_s) == 1
        self.phase = self.out[1].real

    def _pass(self, rows, times, substeps):
        momenta = self.momenta[:1] if self.shared else self.momenta[rows]
        return _phase(self.grid, momenta, times, substeps)

    def _own(self, chunk):
        """The rows of a pass's phi that the rows `chunk` of its modes read."""
        return slice(None) if self.shared else chunk

    def first(self, stride):
        self.old = self._pass(slice(None), self.times[::stride], 1)

    def refine(self, active, rows, substeps, stride, rtol, atol):
        new = self._pass(rows, self.times, substeps)
        p = self.momenta[rows]
        scale = (p / 63.0)[:, None]
        # (|u'_0|, |v'_0|) of each mode, and the same swapped
        y0 = np.abs(self.y0[:, rows, None])
        passed, worst = np.ones(len(active), dtype=bool), np.zeros(len(active))
        for r, t in _chunks(len(active), len(self.times)):
            records = _compared(t, stride)
            columns = slice(records.start // stride, -(-t.stop // stride))
            # |delta Phi| at every record both passes reach, then the bounds
            # (B_u, B_v) of the module docstring from c (|u'_0|, |v'_0|) and
            # |s| (|v'_0|, |u'_0|), and their tolerances
            own = self._own(r)
            d = np.abs(self.old[own, columns] - new[own, records]) * scale[r]
            c, s = self.frame[:, _rows(rows, r), records]
            direct, cross = c * y0[:, r], np.abs(s) * y0[::-1, r]
            bound = d * (direct + cross)
            lower = direct - cross
            np.abs(lower[1], out=lower[1])
            passed[r] &= np.all(bound <= atol + rtol * lower, axis=(0, 2))
            worst[r] = np.maximum(worst[r], np.max(bound, axis=(0, 2), initial=0.0))
        kept = new if self.shared else new[passed]
        self.old = new if self.shared else new[~passed]
        if not np.any(passed):
            return passed, 0.0
        accepted, p = active[passed], p[passed, None]
        for r, t in _chunks(len(accepted), len(self.times)):
            self.phase[accepted[r], t] = p[r] * kept[self._own(r), t]
        return passed, float(np.max(worst[passed]))

    def finish(self):
        # the frame state (e^(i Phi) u'_0, e^(-i Phi) v'_0) over the phase
        # Phi, chunk by chunk, then the lab
        u0, v0 = self.y0[..., None]
        for r, t in _chunks(len(self.momenta), len(self.times)):
            u, v = self.out[:, r, t]
            phase = self.phase[r, t]
            np.cos(phase, out=u.real)
            np.sin(phase, out=u.imag)
            np.conjugate(u, out=v)
            u *= u0[r]
            v *= v0[r]
        _lab(self.frame, self.out, self.lab)

    def fixed(self, substeps):
        phi = self._pass(slice(None), self.times, substeps)
        p = self.momenta[:, None]
        for r, t in _chunks(len(self.momenta), len(self.times)):
            np.multiply(p[r], phi[self._own(r), t], out=self.phase[r, t])
        self.finish()


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
    phase route reads it there, `_PhaseRoute`), and where it is not real
    the refusal is an IntegrationError, not check_pair_stable's."""
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


def _phase(grid, momenta, times, substeps):
    """phi, the integral of v_s from times[0] to each record of `times`, of
    shape (len(momenta), len(times)), at `substeps` panels (`_panels`) per
    record interval.  `momenta` are those of the couplings' rows: the first
    mode's alone for contact couplings, whose v_s every mode shares.  The
    panels are summed one block (`_blocks`, sized on those rows) at a time,
    and the sum is carried from block to block."""
    phi = np.empty((len(momenta), len(times)))
    phi[:, 0] = carry = 0.0
    for starts, widths, ends, records in _blocks(times, substeps, len(momenta)):
        total = np.cumsum(_panels(grid, momenta, starts, widths), axis=1)
        total += carry
        phi[:, records] = total[:, ends]
        carry = total[:, -1:]
    return phi


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
    """The steps of a pass over `n_rows` rows (modes on the Magnus route,
    the couplings' rows on the phase route) at `substeps` steps per record
    interval of `times`, one block at a time: (starts, widths, ends,
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


def _sound_velocity(grid, momenta, starts, widths):
    """(v_s, coefficients) at the three Gauss-Legendre nodes of the steps
    starting at `starts` with widths `widths` (1-D, one entry per step):
    v_s = epsilon/p of shape (rows, 3, n_steps), rows those of the
    couplings' shape, and the `grid` result on the nodes, node first, so
    that each node's values are one contiguous block."""
    nodes = starts + widths * _NODES[:, None]
    c = grid(momenta, nodes.ravel())
    return c.v_s.reshape((-1,) + nodes.shape), c


def _panels(grid, momenta, starts, widths):
    """The three-node Gauss-Legendre quadrature of the integral of v_s over
    each step starting at `starts` with widths `widths` (1-D, one entry per
    step), of shape (rows, n_steps) on the couplings' shape: p times it is
    the a of the Magnus step where chi is chi_cd."""
    v_s = _sound_velocity(grid, momenta, starts, widths)[0]
    panels = widths * (5.0 * (v_s[:, 0] + v_s[:, 2]) + 8.0 * v_s[:, 1]) / 18.0
    # non-finite exactly where v_s is at a node
    if not np.all(np.isfinite(panels)):
        raise IntegrationError(_NON_FINITE)
    return panels


def _steps(grid, momenta, starts, widths):
    """Single-step propagators of shape (n_modes, n_steps) for the steps
    starting at `starts` with widths `widths` (1-D, one entry per step), in
    the adiabatic frame."""
    v_s, c = _sound_velocity(grid, momenta, starts, widths)
    eps = momenta[:, None, None] * v_s
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
