"""The CSV writer against Python's own formatting, value by value.

Every float the writer formats must be the bytes of '%.17g' % x, the format
of the transform and rotation-grid CSVs; integers must be those of str.
"""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereframes import _csvtext
from sphereframes._csvtext import csv_text


def formatted(values) -> str:
    """The writer's text of one float column."""
    x = np.asarray(values, dtype=float)
    return csv_text("", x.size, lambda lo, hi: [x[lo:hi]])


def reference(values) -> str:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).tolist())


def scaled(x) -> Fraction:
    """x 10^s exactly, at the s = 16 - floor(log10 |x|) that gives 17 digits."""
    x = Fraction(abs(x))
    k = math.floor(math.log10(x))
    k += (x >= Fraction(10) ** (k + 1)) - (x < Fraction(10) ** k)
    return x * Fraction(10) ** (16 - k)


def near_ties(s: int, count: int = 4, within: float = 2.0**-40) -> list:
    """Doubles x with 17 - s integer digits whose x 10^s lies within `within`
    of a half-integer but not on one.  With x = m 2^q and t = -(q + s), the
    fraction of x 10^s is (m 5^s mod 2^t) / 2^t, so m is solved for the
    residues 2^(t-1) +- d."""
    found = []
    lo, hi = Fraction(10) ** (16 - s), Fraction(10) ** (17 - s)
    for q in range(-200, 60):
        t = -(q + s)
        if t < 42 or Fraction(2) ** q * 2**53 <= lo or Fraction(2) ** q * 2**52 >= hi:
            continue
        inverse = pow(5**s, -1, 2**t)
        for d in range(1, 2048):
            for residue in (2 ** (t - 1) + d, 2 ** (t - 1) - d):
                m = residue * inverse % 2**t
                if m < 2**52:
                    m += -(-(2**52 - m) // 2**t) * 2**t
                if not 2**52 <= m < 2**53:
                    continue
                x = math.ldexp(m, q)
                v = Fraction(x) * 10**s
                if lo <= Fraction(x) < hi and 0 < abs(v - math.floor(v) - Fraction(1, 2)) < within:
                    found.append(x)
                    if len(found) == count:
                        return found
    return found


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_floats_match_percent_format(values):
    assert formatted(values) == reference(values)


def test_special_values_match_percent_format():
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny, huge, -huge]
    assert formatted(special) == reference(special)
    assert formatted([0.0, -0.0, np.nan, np.inf]) == "0\n-0\nnan\ninf\n"


def test_powers_of_ten_and_their_neighbours_match_percent_format():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert formatted(x) == reference(x)
    assert formatted(-x) == reference(-x)


def test_a_random_mantissa_in_every_binade_matches_percent_format():
    rng = np.random.default_rng(24)
    exponents = np.arange(-1074, 1024)
    x = np.ldexp(rng.uniform(1, 2, exponents.size), exponents)
    x[rng.random(x.size) < 0.5] *= -1
    assert formatted(x) == reference(x)


@pytest.mark.parametrize(
    "x, text",
    [
        (1000000000000000.25, "1000000000000000.2"),
        (123456789012345.125, "123456789012345.12"),
        (12345678901234.0625, "12345678901234.062"),
    ],
)
def test_exact_ties_round_half_to_even(x, text):
    assert scaled(x).denominator == 2  # the 17th digit is followed by exactly 5
    assert formatted([x, -x]) == f"{text}\n-{text}\n" == reference([x, -x])


def test_near_ties_match_percent_format():
    # s = 19..22 take one exact factor; s = 23..29 take two, whose e carries
    # a rounding error, so the nearest go to '%.17g' itself
    ties = {s: near_ties(s) for s in range(19, 30)}
    assert all(len(x) >= 1 for x in ties.values())
    x = np.array([v for s in sorted(ties) for v in ties[s]])
    assert formatted(x) == reference(x)
    assert formatted(-x) == reference(-x)
    two_factor = np.array([v for s in ties if s > 22 for v in ties[s]])
    slow = _csvtext._digits(two_factor)[2]
    assert slow.any()
    # every value the fast path keeps is at least the bound from the tie
    for v in two_factor[~slow]:
        gap = abs(scaled(v) - math.floor(scaled(v)) - Fraction(1, 2))
        assert gap > Fraction(_csvtext._TWO_FACTOR_ERROR)


def test_magnitudes_across_the_fast_range_match_percent_format():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(50_000) * 10.0 ** rng.uniform(-30, 19, 50_000)
    round_numbers = np.array([1.0, 10.0, 1000.0, 0.5, 1e-3, 1e-5, 1e16, 1e17, 99999999999999984.0])
    x = np.concatenate([x, round_numbers, -round_numbers, np.round(x[:1000] * 1e-10) / 8])
    assert formatted(x) == reference(x)


def test_integer_columns_match_str():
    v = np.array([0, 1, 9, 10, 99, 10**7 - 1, 10**7, 10**8, 10**15, 10**16 - 1, 2**62, 2**63 - 1])
    for column in (v, v[:4], np.arange(0, 300_000, 7)):
        reverse = column[::-1]
        text = csv_text("h\n", column.size, lambda lo, hi: [column[lo:hi], reverse[lo:hi]])
        lines = (f"{a},{b}\n" for a, b in zip(column.tolist(), reverse.tolist()))
        assert text == "h\n" + "".join(lines)


def test_columns_keep_their_order_and_blocks_join_seamlessly(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000)
    expect = "".join("%.17g,%d,%.17g\n" % (a, i, -a / 3) for i, a in enumerate(x.tolist()))

    def columns(lo, hi):
        return [x[lo:hi], np.arange(lo, hi), -x[lo:hi] / 3]

    for budget in (1, 3 * 96 * 7, _csvtext._BLOCK_BYTES, 2**30):
        monkeypatch.setattr(_csvtext, "_BLOCK_BYTES", budget)
        assert csv_text("", x.size, columns) == expect
    assert csv_text("head\n", 0, columns) == "head\n"


def test_writer_memory_stays_within_its_block_budget():
    # the transform table's columns for 43 x 4096 entries: formatted in one
    # block they would hold tens of MB beyond the text
    rng = np.random.default_rng(11)
    shape = (43, 4096)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values *= 10.0 ** rng.uniform(-12, 0, shape)
    flat = values.reshape(-1)

    def columns(lo, hi):
        j, g = np.divmod(np.arange(lo, hi), shape[1])
        return [j, g, flat[lo:hi].real, flat[lo:hi].imag]

    csv_text("", 4096, columns)
    tracemalloc.start()
    try:
        text = csv_text("j,g,re,im\n", flat.size, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 8 * 2**20
    assert peak - sys.getsizeof(text) <= _csvtext._BLOCK_BYTES
