"""The numpy '%.17g' formatter behind the CSV writer: byte-identical to
Python's '%.17g' for every float64, and fast: the numpy path decides the
text of almost every value, leaving few to Python."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tllcd import _fmt17


def texts(values):
    cells = _fmt17.text(np.asarray(values, dtype=float))
    assert cells.shape == (len(values), _fmt17.CELL_BYTES)
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
