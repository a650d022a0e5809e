"""'%.17g' text of float64 arrays, computed in numpy, byte for byte as
Python's '%.17g' (and so np.savetxt(fmt='%.17g')) writes each value.

`text(x)` gives each value CELL_BYTES bytes: its ASCII text with NUL
bytes at fixed places between the pieces, so that removing every NUL byte
leaves the text.  The last byte is NUL and free for a separator.

Exactness.  For |x| in [1e-280, 1e280), X = floor(log10 |x|) and
y = |x| 10^(16 - X) lies in [1e16, 1e17); the 17 digits are D = round(y)
(half to even) and the exponent X, or 10^16 and X + 1 when D carries to
10^17.  y is computed as a double-double yh + yl: 10^m is tabulated as
th + tl, each the nearest double (th to 10^m, tl to 10^m - th), so
|th + tl - 10^m| <= 2^-106 10^m; |x| th is formed exactly by Dekker's
two-product (Numer. Math. 18, 224 (1971); no fused multiply-add needed),
and |x| tl and the one addition each round once.  So yh + yl is within
4 * 2^-106 y < 5e-15 of y, and yh is an integer (y > 2^53): D = yh +
rint(yl) is exact wherever yl is farther than that from a half-integer.

X comes from a floating-point log10, which can be one off next to a power
of ten; it is corrected once where yh + yl leaves [1e16 - 0.04,
1e17 + 0.4].  Inside that window D needs no exact decade: a y just below
1e16 gives 10^16 at X, as 10 y rounds to 10^17 at X - 1 and carries; a y
just above 1e17 carries to 10^16 at X + 1, as y / 10 rounds to 10^16.  So
x = 1e20, whose exact y is 1e16 while the computed one may fall on either
side, is decided, and so is every exact power of ten.  +-0 takes X = 0 and
y = 0, which no correction moves, and so D = 0: "0" and "-0".

Python formats these values instead:

- yl within 1e-9 of a half-integer (a rounding tie, or near one);
- yh + yl still outside the window after the correction;
- nan and +-inf;
- |x| outside [1e-280, 1e280), where the table ends.

Layout.  A cell is four little-endian 64-bit words: the sign and the
"0.000" of fixed notation below 1; then the 17 digits, trailing zeros
cleared and a '.' inserted after the integer digits (after the first digit
in exponent notation); then "e+XX" or "e-XXX".  The words are assembled by
integer arithmetic over whole arrays.  The digits come eight at a time from
one integer split into lanes: 4 + 4 digits in 32-bit lanes, then 2 + 2 in
16-bit lanes, then one per byte.
"""

from __future__ import annotations

import numpy as np

CELL_BYTES = 32
# the longest '%.17g' text, -2.2250738585072014e-308
_FALLBACK_BYTES = 24
# decimal exponents X of the fast path; tables over X reach one beyond
# these at either end, for the correction of X
_X_MIN, _X_MAX = -280, 279
_M_MIN = 16 - (_X_MAX + 1)
# 10^m for m = _M_MIN + column as rows (th, tl, th's high and low halves by
# Dekker's split); a column is filled in the first time a value needs it
_POW10 = np.full((4, _X_MAX - _X_MIN + 3), np.nan)
_SPLIT = 134217729.0  # 2^27 + 1
_TIE = 1e-9  # |yl - (n + 1/2)| below which Python formats the value


def _words(texts, n_words) -> np.ndarray:
    """(n_words, len(texts)) int64: the little-endian words of each byte
    string, padded with NUL to n_words * 8 bytes."""
    buffer = np.array(texts, dtype=f"S{8 * n_words}").view("<u8")
    return buffer.reshape(len(texts), n_words).T.astype(np.int64)


def _exponent_tables():
    """Per exponent X (row X - _X_MIN + 1, up to a carry past _X_MAX + 1):
    the '.' position P, the least number of digits kept, the first word
    (without the sign) and the exponent bytes of the last word."""
    X = np.arange(_X_MIN - 1, _X_MAX + 3)
    fixed = (X >= -4) & (X < 17)
    # the '.' follows digit P - 1: after the integer digits in fixed
    # notation and the first digit in exponent notation; never (P = 17)
    # below 1, where "0." leads
    dot = np.where(fixed, np.where(X < 0, 17, X + 1), 1)
    # the integer digits are kept even where they are trailing zeros
    least = np.where(fixed & (X < 0), 0, dot)
    first = [b"\0" + b"0.000"[: 1 - x] if -4 <= x < 0 else b"" for x in X.tolist()]
    last = [b"" if f else b"\0\0" + b"e%+03d" % x for x, f in zip(X.tolist(), fixed)]
    return dot, least, _words(first, 1)[0], _words(last, 1)[0]


_DOT, _LEAST, _FIRST, _LAST = _exponent_tables()
# byte masks of the 24-byte digit string, as three words each: _BELOW[j]
# keeps bytes 0..j-1; at column 18 P + k, _MID keeps bytes P+1..k and
# _POINT is a '.' at byte P if k > P
_BELOW = _words([b"\xff" * j for j in range(18)], 3)
_PK = [(P, k) for P in range(18) for k in range(18)]
_MID = _words([b"\0" * (P + 1) + b"\xff" * (k - P) for P, k in _PK], 3)
_POINT = _words([b"\0" * P + b"." if k > P else b"" for P, k in _PK], 3)
_ZEROS = 0x3030303030303030  # eight ASCII '0'


def text(x) -> np.ndarray:
    """(len(x), CELL_BYTES) uint8: the NUL-padded '%.17g' text of each
    value of the 1-D float64 array x."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        X = np.floor(np.log10(np.where(a == 0.0, 1.0, a)))
    decided = (X >= _X_MIN) & (X <= _X_MAX)
    # values left to Python go through the fast path as 1.0
    a[~decided] = 1.0
    X = np.where(decided, X, 0.0).astype(np.int64)
    yh, yl = _scaled(a, X)
    # one correction of X where log10 rounded across a decade
    below, above = _outside(yh, yl)
    moved = np.flatnonzero(below | above)
    if len(moved):
        X[moved] += above[moved].astype(np.int64) - below[moved]
        yh[moved], yl[moved] = _scaled(a[moved], X[moved])
        below, above = _outside(yh, yl)
        decided &= ~(below | above)
    decided &= np.abs(yl - np.floor(yl) - 0.5) >= _TIE
    words = _layout(np.signbit(x), X, yh, yl)
    slow = np.flatnonzero(~decided)
    if len(slow):
        words[:, slow] = 0
        words[: _FALLBACK_BYTES // 8, slow] = _fallback(x[slow])
    return np.ascontiguousarray(words.T, dtype="<i8").view(np.uint8)


def _outside(yh, yl):
    """Where yh + yl is below 1e16 - 0.04 and where above 1e17 + 0.4 (see
    the module text); never at y = 0, which is +-0."""
    below = ((yh < 1e16) & (yh > 0.0)) | ((yh == 1e16) & (yl < -0.04))
    above = (yh > 1e17) | ((yh == 1e17) & (yl > 0.4))
    return below, above


def _fallback(values) -> np.ndarray:
    """Python's '%.17g' of each value, as three words."""
    return _words([b"%.17g" % v for v in values.tolist()], _FALLBACK_BYTES // 8)


def _scaled(a, X):
    """yh + yl = a 10^(16 - X) as a double-double (see the module text)."""
    column = (16 - _M_MIN) - X
    if len(column):
        _fill(int(column.min()), int(column.max()))
    th, tl, thh, thl = _POW10.take(column, axis=1)
    p = a * th
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    e = ((ah * thh - p) + ah * thl + al * thh) + al * thl
    e += a * tl
    yh = p + e
    return yh, e - (yh - p)


def _fill(lo, hi) -> None:
    """Tabulate 10^m for the columns lo..hi of _POW10 not yet filled, from
    exact integers: float() of an int and int / int round correctly."""
    columns = np.arange(lo, hi + 1)
    for m in (columns[np.isnan(_POW10[0, columns])] + _M_MIN).tolist():
        if m >= 0:
            th = float(10**m)
            tl = float(10**m - int(th))
        else:
            den = 10**-m
            th = 1 / den
            num, pow2 = th.as_integer_ratio()
            tl = (pow2 - num * den) / (pow2 * den)
        c = _SPLIT * th
        thh = c - (c - th)
        _POW10[:, m - _M_MIN] = th, tl, thh, th - thh


def _layout(negative, X, yh, yl) -> np.ndarray:
    """(4, n) words of text from the sign, exponent and double-double
    scaled magnitude; meaningful where yh + yl is inside the window of the
    module text."""
    D = yh.astype(np.int64) + np.rint(yl).astype(np.int64)
    carry = D == 10**17
    X = X + carry
    D[carry] = 10**16
    lead = D // 10**16
    rest = D - lead * 10**16
    # digits 1-8 and 9-16, one per byte, the first in the lowest byte
    v = np.empty((2, len(D)), np.int64)
    v[0] = rest // 10**8
    v[1] = rest - v[0] * 10**8
    q = v // 10**4
    v = q | ((v - q * 10**4) << 32)
    q = ((v * 5243) >> 19) & 0x0000007F0000007F  # // 100 per 32-bit lane
    v = q | ((v - q * 100) << 16)
    q = ((v * 103) >> 10) & 0x000F000F000F000F  # // 10 per 16-bit lane
    v = q | ((v - q * 10) << 8)
    # digits kept: up to the last nonzero one, and at least _LEAST.  The
    # bytes up to the last nonzero one of a word come from its bit length,
    # which its double keeps: no digit byte exceeds 9, so rounding to 53
    # bits cannot carry into the next power of two
    length = (np.frexp(v.astype(float))[1] + 7) // 8
    row = X - (_X_MIN - 1)
    k = np.where(length[1] > 0, 9 + length[1], 1 + length[0])
    keep = np.maximum(k, _LEAST.take(row))
    P = _DOT.take(row)
    v += _ZEROS
    # the 17 digits as three words, and the same one byte on, to follow the '.'
    s = np.empty((3, len(D)), np.int64)
    s[0] = (lead + ord("0")) | (v[0] << 8)
    s[1] = (v[0] >> 56) | (v[1] << 8)
    s[2] = v[1] >> 56
    t = s << 8
    t[1:] |= s[:-1] >> 56
    pk = 18 * P + keep
    words = np.empty((4, len(D)), np.int64)
    words[0] = _FIRST.take(row) | (negative * ord("-"))
    body = words[1:]
    np.bitwise_and(s, _BELOW.take(np.minimum(P, keep), axis=1), out=body)
    t &= _MID.take(pk, axis=1)
    body |= t
    body |= _POINT.take(pk, axis=1)
    words[3] |= _LAST.take(row)
    return words
