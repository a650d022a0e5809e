"""The primitive of a smooth function of time from its Chebyshev
interpolant, to float64 rounding: the phase of the integrator's Chebyshev
route.  On [t0, t1], midpoint m and half-width w, the interpolant of degree
n through f at the Lobatto nodes t_k = m + w cos(pi k/n) is
sum_j'' a_j T_j(x), x = (t - m)/w, with a_j = (2/n) sum_k'' f(t_k)
cos(pi j k/n) (a DCT-I); its primitive has the coefficients
b_j = (a_(j-1) - a_(j+1))/(2j) (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 3 and 19).  For an f analytic on
[t0, t1] the a_j fall geometrically to the plateau where the rounding of
the sums leaves them, about eps sqrt(n) max|a_j|.  So n starts at 16 and
doubles, keeping the nodes it has, until the top quarter of the a_j is
within 16 eps sqrt(n) max|a_j| (4 eps max|a_j| is never reached near the
Luttinger edge).  The primitive is summed without its top quarter, whose
sum of |b_j| bounds what is left out: the tail.

The sums are formed here: importing numpy.fft or numpy.polynomial raised a
run's peak RSS by 0.1-0.6 MB.  Compiled from source as one module with
`integrator`, this code raised a sweep's peak RSS by ~0.3 MB.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError

# The largest degree before giving up: it bounds the time that a run whose
# f is not smooth takes to fail.
MAX_DEGREE = 1 << 12
EPS = 2.0**-52  # float64's machine epsilon


def primitive(f, t0, t1, block):
    """(b, tail, evaluations): the primitive of f on [t0, t1] as
    w (b_1, ..., b_m), its coefficients in x scaled to time without their
    top quarter (m = 3n/4), one row per row of f's values; w times the sum
    of the |b_j| left out, per row; and the number of values of f taken.
    `f` maps a 1-D array of times to an array of one row per function,
    one column per time.  The cosine sums take at most `block` cosines at a
    time.  Raises IntegrationError past MAX_DEGREE."""
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    n, values = 16, None
    while True:
        # the nodes of degree n that degree n/2 did not have: all at first
        step = 1 if values is None else 2
        k = np.arange(step - 1, n + 1, step)
        new = f(np.clip(mid + half * np.cos(np.pi * k / n), t0, t1))
        both = np.empty((len(new), n + 1))
        both[:, k] = new
        if values is not None:
            both[:, ::2] = values
        values, a = both, _cosine_sums(both, block)
        size = np.abs(a)
        top, scale = np.max(size[:, n - n // 4 :], axis=1), np.max(size, axis=1)
        if np.all(top <= 16.0 * EPS * math.sqrt(n) * scale):
            break
        if n >= MAX_DEGREE:
            raise IntegrationError(f"chebyshev interpolant not converged at degree {n}")
        n *= 2
    # b_j for j = 1, ..., n + 1, with a_n halved (the interpolant halves
    # a_0 and a_n; the formula takes a_0 doubled)
    a[:, n] *= 0.5
    a = np.concatenate([a, np.zeros((len(a), 2))], axis=1)
    b = half * (a[:, :-2] - a[:, 2:]) / (2.0 * np.arange(1, n + 2))
    return b[:, : n - n // 4], np.sum(np.abs(b[:, n - n // 4 :]), axis=1), values.size


def evaluate(b, t, t0, t1):
    """sum_j b_j T_j(x) over j = 1, ..., m at the times t of [t0, t1], x as
    in the module docstring, for each row (b_1, ..., b_m) of b, by
    Clenshaw's recurrence."""
    x = np.clip((t - 0.5 * (t0 + t1)) / (0.5 * (t1 - t0)), -1.0, 1.0)
    y, z, twice = np.zeros((len(b), len(x))), 0.0, 2.0 * x
    for b_j in b.T[::-1, :, None]:
        y, z = b_j + twice * y - z, y
    return x * y - z


def _cosine_sums(f, block):
    """a_0, ..., a_n of each row of f at the nodes cos(pi k/n), at most
    `block` cosines at a time, read from one table of cos(pi m/n) at
    m = j k mod 2n.  By einsum, not a matrix product: a process's first
    BLAS call added ~0.17 MB to its peak RSS, and no other run code calls
    BLAS."""
    n = f.shape[1] - 1
    w = f * (2.0 / n)
    w[:, [0, n]] *= 0.5
    table, k = np.cos(np.pi / n * np.arange(2 * n)), np.arange(n + 1)
    a = np.empty_like(w)
    size = max(1, block // (n + 1))
    for j in range(0, n + 1, size):
        cosines = table[k[:, None] * k[j : j + size] % (2 * n)]
        a[:, j : j + size] = np.einsum("rk,kj->rj", w, cosines)
    return a
