"""The CSV tables of a run: '%.17g' text of float64 arrays, computed in
numpy, byte for byte as Python's '%.17g' (and so np.savetxt(fmt='%.17g'))
writes each value, and the writer of the table files.

`words(x)` gives each value CELL_WORDS little-endian 64-bit words: its
ASCII text with NUL bytes between the pieces, so that removing every NUL
byte leaves the text.  The top byte of the last word is NUL and free for a
separator.

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

Layout.  Word 0 holds the sign, the "0.000" of fixed notation below 1,
the lead digit and the '.' after it (in exponent notation and below 10,
where further digits are kept); words 1 and 2 the 16 further digits, one
per byte, trailing zeros cleared; word 3 "e+XX" or "e-XXX".  NUL bytes fill
the gaps, so no digit moves from the byte its integer lane gives it.  Only
fixed notation with 1 <= X <= 16 (X after the carry) puts the '.' among the
digits: there words 1-3 hold the 17 digits with a '.' after the integer
digits and the later digits one byte on, and word 0 the sign.  The words
are assembled by integer arithmetic over whole arrays.  The digits come
eight at a time from one integer split into lanes: 4 + 4 digits in 32-bit
lanes, then 2 + 2 in 16-bit lanes, then one per byte.

Writer.  `write_csv(path, header, columns)` writes a table a block of
CSV_BLOCK_ROWS rows at a time, so its text is never held whole.  A block is
(rows, columns, CELL_WORDS) int64: each cell's words, with its ',' or '\n'
in the free top byte of the last word, so that deleting the NUL bytes
leaves the rows.  A column with fewer entries of its own than the table
has rows (a shorter array, a 0-d value, or a view with stride 0 on the
axes it repeats on) has each entry formatted once and its words taken into
every block.  The other columns are gathered row-major, block by block, and
formatted in one call; a run of equal bits down a column within a block is
formatted once, at its first row, and its words fill the run.  A block's
int64 array is formed only once its words exist and its values are gone,
and the words and the block go before its bytes are translated, so that
the writer holds one block's temporaries at a time.
"""

from __future__ import annotations

import math

import numpy as np

CELL_WORDS = 4
# CSV rows formatted and written at a time: bounds the memory the text takes
CSV_BLOCK_ROWS = 2048
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
    word 0 without the sign and the lead digit, and word 3."""
    X = np.arange(_X_MIN - 1, _X_MAX + 3).tolist()
    # byte 0 the sign, 1-5 the "0.000" of fixed notation below 1, 6 the
    # lead digit, 7 the '.' (below 1 the prefix has it); 1 <= X <= 16 is
    # laid out apart
    first = [b"\0" + b"0.000"[: 1 - x].ljust(6, b"\0") if -4 <= x < 0
             else b"" if 1 <= x <= 16 else b"\0" * 7 + b"." for x in X]
    last = [b"" if -4 <= x < 17 else b"e%+03d" % x for x in X]
    return _words(first, 1)[0], _words(last, 1)[0]


_FIRST, _LAST = _exponent_tables()
_KEEP = _words([b"\xff" * j for j in range(9)], 1)[0]  # bytes 0..j-1
_TOP = np.int64(-1 << 56)  # the top byte of a word, where _FIRST has the '.'
# byte masks of the 24-byte digit string of 1 <= X <= 16, as three words
# each: _BELOW[j] keeps bytes 0..j-1; at column 18 P + k, _MID keeps bytes
# P+1..k and _POINT is a '.' at byte P if k > P
_BELOW = _words([b"\xff" * j for j in range(18)], 3)
_PK = [(P, k) for P in range(18) for k in range(18)]
_MID = _words([b"\0" * (P + 1) + b"\xff" * (k - P) for P, k in _PK], 3)
_POINT = _words([b"\0" * P + b"." if k > P else b"" for P, k in _PK], 3)
_ZEROS = 0x3030303030303030  # eight ASCII '0'


def words(x) -> np.ndarray:
    """(CELL_WORDS, len(x)) int64: the NUL-padded '%.17g' text of each
    value of the 1-D float64 array x, as little-endian words."""
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
    # what the layout does not read goes first: a block's peak is there
    del a, below, above
    cells = _layout(np.signbit(x), X, yh, yl)
    slow = np.flatnonzero(~decided)
    if len(slow):
        cells[:, slow] = 0
        cells[: _FALLBACK_BYTES // 8, slow] = _fallback(x[slow])
    return cells


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
    del D, carry  # not read again, nor q below: the layout is a block's peak
    # digits 1-8 and 9-16, one per byte, the first in the lowest byte
    v = np.empty((2, len(rest)), np.int64)
    v[0] = rest // 10**8
    v[1] = rest - v[0] * 10**8
    q = v // 10**4
    v = q | ((v - q * 10**4) << 32)
    q = ((v * 5243) >> 19) & 0x0000007F0000007F  # // 100 per 32-bit lane
    v = q | ((v - q * 100) << 16)
    q = ((v * 103) >> 10) & 0x000F000F000F000F  # // 10 per 16-bit lane
    v = q | ((v - q * 10) << 8)
    del q
    # the bytes up to the last nonzero digit of a word come from its bit
    # length, which its double keeps: no digit byte exceeds 9, so rounding
    # to 53 bits cannot carry into the next power of two
    length = (np.frexp(v.astype(float))[1] + 7) // 8
    v += _ZEROS
    lead += ord("0")
    row = X - (_X_MIN - 1)
    cells = np.empty((4, len(rest)), np.int64)
    # the '.' after the lead digit only where digits follow it
    np.bitwise_and(_FIRST.take(row), ~((rest == 0) * _TOP), out=cells[0])
    cells[0] |= negative * ord("-")
    cells[0] |= lead << 48
    np.bitwise_and(v[0], _KEEP.take(np.where(length[1] > 0, 8, length[0])), out=cells[1])
    np.bitwise_and(v[1], _KEEP.take(length[1]), out=cells[2])
    cells[3] = _LAST.take(row)
    shifted = np.flatnonzero((X >= 1) & (X <= 16))
    if len(shifted):
        cells[0, shifted] = negative[shifted] * ord("-")
        cells[1:, shifted] = _shifted(lead[shifted], v[:, shifted], length[:, shifted],
                                      X[shifted] + 1)
    return cells


def _shifted(lead, v, length, P) -> np.ndarray:
    """(3, n) words of fixed notation with P = X + 1 integer digits: the
    ASCII lead digit and the 16 of v, a '.' after the integer digits where
    further digits are kept, and those one byte on."""
    # digits kept: up to the last nonzero one, and at least the integer ones
    keep = np.maximum(np.where(length[1] > 0, 9 + length[1], 1 + length[0]), P)
    s = np.empty((3, len(P)), np.int64)
    s[0] = lead | (v[0] << 8)
    s[1] = (v[0] >> 56) | (v[1] << 8)
    s[2] = v[1] >> 56
    t = s << 8
    t[1:] |= s[:-1] >> 56
    pk = 18 * P + keep
    s &= _BELOW.take(P, axis=1)
    t &= _MID.take(pk, axis=1)
    s |= t
    s |= _POINT.take(pk, axis=1)
    return s


def write_csv(path, header: str, columns) -> None:
    """One CSV column per array.  The arrays broadcast against each other;
    rows run in C order of the broadcast shape (mode-major for (mode, time)).
    The bytes are those that np.savetxt(fmt='%.17g') writes of the broadcast
    table, written block by block (see the module text)."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n_rows = math.prod(shape)
    separator = np.full(len(columns), ord(",") << 56, np.int64)
    separator[-1] = ord("\n") << 56
    full, sources, repeated = [], [], []
    for j, column in enumerate(columns):
        own = column[tuple(slice(None) if s else slice(1) for s in column.strides)]
        if own.size < n_rows:
            text = words(own.ravel())
            text[3] |= separator[j]
            index = np.arange(own.size).reshape(own.shape)
            repeated.append((j, text.T.copy(), np.broadcast_to(index, shape).flat))
        else:
            # its C order is the table's: a view of a run's columns, which
            # are all C-contiguous
            full.append(j)
            sources.append(column.reshape(-1))
    full_separator = separator[full]

    def block(start, stop):
        # the words of the full columns exist, and their values are gone,
        # before the block is formed; the words and the block go on return
        if full:
            text = _block_words(np.stack([s[start:stop] for s in sources], axis=1))
            text[3] |= full_separator
        cells = np.empty((stop - start, len(columns), CELL_WORDS), "<i8")
        if full:
            cells[:, full] = text.transpose(1, 2, 0)
        for j, repeated_text, index in repeated:
            cells[:, j] = repeated_text.take(index[start:stop], axis=0)
        return cells.tobytes()

    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            f.write(block(start, stop).translate(None, b"\0"))


def _block_words(values) -> np.ndarray:
    """(CELL_WORDS, rows, columns) words of the text of each value of a
    (rows, columns) block.  Runs of equal bits down a column (so -0.0 and
    0.0 differ, and a nan equals a nan of its own bits) are formatted once,
    at their first row."""
    bits = values.view(np.int64)
    starts = np.empty(values.shape, bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    if starts.all():
        return words(values.ravel()).reshape(-1, *values.shape)
    # column after column, each cell's run start is the last start up to it
    starts = starts.T
    run = np.cumsum(starts.ravel()) - 1
    text = words(values.T[starts]).take(run, axis=1)
    return text.reshape(-1, *starts.shape).transpose(0, 2, 1)
