"""The numpy '%.17g' formatter and the CSV writer built on it: the text is
byte-identical to Python's '%.17g' for every float64, and fast: the numpy
path decides the text of almost every value, leaving few to Python.  The
writer's tables are the bytes np.savetxt writes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd import _fmt17


def texts(values):
    words = _fmt17.words(np.asarray(values, dtype=float))
    assert words.shape == (_fmt17.CELL_WORDS, len(values))
    cells = np.ascontiguousarray(words.T, dtype="<i8").view(np.uint8)
    assert not cells[:, -1].any()  # the separator byte is free
    return [bytes(cell).replace(b"\0", b"") for cell in cells]


def assert_matches(values):
    values = np.asarray(values, dtype=float)
    want = [b"%.17g" % v for v in values.tolist()]
    got = texts(values)
    bad = [(v, w, g) for v, w, g in zip(values.tolist(), want, got) if w != g]
    assert not bad, bad[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_matches_percent_format_on_bit_patterns(bits):
    # every float64 of either sign: normal, subnormal, zero, inf and nan
    assert_matches(np.array(bits, dtype=np.uint64).view(np.float64))


def test_matches_percent_format_on_edges():
    tiny, huge = 5e-324, np.finfo(float).max
    edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 2.5e-310,
             np.finfo(float).tiny, huge, -huge, 1e16, 1e17, 1e20, 1e22, 1e23,
             0.1, 1e-4, 1e-5, 123456789012345678.0, 0.5, 1.0 / 3.0]
    # 10^k across and beyond the table, each next to its two neighbours;
    # both the product 10.0**k and the parsed literal, which differ for
    # some k
    powers = [10.0**k for k in range(-307, 308)] + [float(f"1e{k}") for k in range(-323, 309)]
    # the doubles nearest to the values whose 17-digit rounding would carry
    # into the next decade (99999999999999999 x 10^k), which the decade
    # correction and the carry of D meet
    nines = [float(f"{m}e{k}") for m in ("9.9999999999999999", "9.99999999999999995")
             for k in range(-300, 300)]
    values = np.array(edges + powers + nines)
    values = np.concatenate([values, -values])
    with np.errstate(over="ignore"):
        assert_matches(np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]))
    # integers, dyadic fractions and fixed notation at both of its ends
    assert_matches(np.arange(100000.0))
    assert_matches(np.arange(1, 2**16) / 2.0**16)
    assert_matches(np.linspace(1e-5, 2e-4, 10001))
    assert_matches(np.linspace(9e15, 2e17, 10001))


def test_fast_path_decides_almost_every_value(monkeypatch):
    # a formatter that sent every value to Python would pass the tests
    # above while being slow
    fallback = _fmt17._fallback
    seen = []

    def counting(values):
        seen.append(len(values))
        return fallback(values)

    monkeypatch.setattr(_fmt17, "_fallback", counting)
    rng = np.random.default_rng(5)
    values = rng.random(10000) * 10.0 ** rng.uniform(-30.0, 3.0, 10000)
    values[::2] *= -1.0
    assert_matches(values)
    assert sum(seen) <= 10  # at least 99.9% decided without Python
    # the values left to Python are those it must take; +-0 is not one
    seen.clear()
    texts([np.nan, 0.0, -0.0, 1.0, 5e-324])
    assert sum(seen) == 2


def test_csv_writer_matches_savetxt(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * _fmt17.CSV_BLOCK_ROWS + 3  # two full blocks and a partial one
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308, 0.1]
    distinct = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    distinct[: len(special)] = special
    flat = [
        np.resize(special, n),  # repeated values, -0.0 beside 0.0
        np.full(n, 1.0 / 3.0),  # constant
        distinct,
        np.repeat(np.linspace(0.0, 1.0, 9), n // 9 + 1)[:n].reshape(1, n),  # 2-D, runs
    ]
    # columns that broadcast to an (m, k) table of more than two blocks
    m, k = 67, 71
    assert m * k > 2 * _fmt17.CSV_BLOCK_ROWS
    broadcast = [
        np.linspace(0.0, 1.0, k),  # (k,)
        0.25 * np.arange(1, m + 1)[:, None],  # (m, 1)
        np.float64(1.0 / 3.0),  # ()
        np.broadcast_to(np.resize(special, k), (m, k)),  # stride 0 on axis 0
        np.broadcast_to(np.resize(special, m)[:, None], (m, k)),  # on axis 1
        rng.normal(size=(k, m)).T,  # full, not C-contiguous
    ]
    # values Python formats (nan, inf, -0.0, subnormals, zero) between
    # values the numpy path formats, in full columns of three blocks and a
    # partial one, also on either side of each block boundary
    n = 3 * _fmt17.CSV_BLOCK_ROWS + 5
    mixed = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-30, 4, size=(2, n))
    for column, offset in zip(mixed, (0, 1)):
        for k, value in enumerate([np.nan, np.inf, -0.0, 5e-324, -2.5e-310, 0.0, -np.inf]):
            column[offset + k :: 37 + 2 * k] = value
        edges = np.arange(1, 4) * _fmt17.CSV_BLOCK_ROWS
        column[edges - 1 + offset], column[edges - offset] = np.nan, -0.0
    mixed = [mixed[0], np.float64(np.nan), mixed[1]]
    # full columns whose runs of equal bits cross every block edge, with
    # values of 1 <= X <= 16 beside values of X <= 0 in the same block: a
    # run of 12.5, nan runs, a run of -0.0 meeting a run of 0.0 (which a
    # float == would merge), and a run that starts at a block's first row
    n = 3 * _fmt17.CSV_BLOCK_ROWS + 7
    edges = np.arange(1, 4) * _fmt17.CSV_BLOCK_ROWS
    runs = rng.normal(size=(3, n))
    for edge, value in zip(edges, (12.5, np.nan, -0.0)):
        runs[0, edge - 5 : edge + 5] = value
    runs[0, edges[2] + 5 : edges[2] + 9] = 0.0
    runs[1] = np.repeat([np.nan, -0.0, 0.0, 12.5, 0.1, np.nan, 123456.75, -0.0], 777)[:n]
    runs[2, : edges[0]] = 0.5
    runs[2, edges[0] : edges[0] + 300] = -0.0  # starts at a block's first row
    runs[2, edges[0] + 300 : edges[1] + 1] = 0.0
    runs[2, edges[1] + 1 :: 2] = 12.5
    runs = [runs[0], np.float64(0.25), runs[1], runs[2]]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    for columns in (flat, broadcast, mixed, runs):
        header = ",".join("abcdef"[: len(columns)])
        shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
        table = np.column_stack([np.broadcast_to(c, shape).ravel() for c in columns])
        np.savetxt(want, table, fmt="%.17g", delimiter=",", header=header, comments="")
        _fmt17.write_csv(got, header, columns)
        assert got.read_bytes() == want.read_bytes()
