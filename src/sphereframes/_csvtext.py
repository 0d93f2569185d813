"""CSV text of numeric columns, every float in the bytes of '%.17g' % x.

The writer formats whole numpy arrays.  For finite x with 1e-28 <= |x| < 1e17
it takes k = floor(log10 |x|) and the exact product |x| 10^(16 - k) = p + e,
with Dekker's two-product at each exact power of ten (one factor up to 10^22,
two up to 10^44).  p lies in [1e16, 1e17), so it is an even integer, and the
17 digits are N = p + rint(e): rint rounds half to even, as '%.17g' does.
With one factor e is exact; with two it carries a rounding error below
_TWO_FACTOR_ERROR, and an e that close to a half-integer is formatted by
'%.17g' itself.  So are zeros, non-finite values and magnitudes outside the
range.  The digits come four at a time from a 10 000-entry table.

A line is laid out as little-endian 64-bit words of padded bytes: a float
takes four words, an integer one word per 8 bytes of its digits and the
separator after it.  Every byte outside the text is zero, and a block of
lines is compacted once by deleting the zero bytes.  A float's layout depends
only on k, and the bytes it keeps on k, the number of significant digits nd
and the sign, so each of its words is built from table rows indexed by them,
and every operation runs over whole columns.  Blocks hold at most
_BLOCK_BYTES of working arrays, so the memory beyond the returned text does
not grow with the table.

The writers import this module on first use: its tables took 1.7 ms and
1.2 MB of resident memory to build at import, which runs that write no such
CSV need not pay.
"""

from __future__ import annotations

import numpy as np

# Working bytes of one block of lines, and an upper bound on those of one
# column of a line (a float: its scaling, digit and word temporaries, its
# words in the line buffer and its share of the compacted bytes; about 92
# bytes by tracemalloc).  A block of four columns holds 2048 lines: for the
# 42 x 128 transform table that keeps 0.33 MB beyond the text, below the
# 0.45 MB of per-value formatting, and blocks of 2000 to 3000 lines formatted
# it fastest (numpy 2.4, AVX-512 Xeon).
_BLOCK_BYTES = 768 * 2**10
_COLUMN_BYTES = 96

_WORD = np.dtype("<u8")
_BYTE = np.arange(32)


def _words(rows) -> np.ndarray:
    """Byte rows (..., 8 m) as m rows of little-endian words, one per word."""
    rows = np.ascontiguousarray(rows, np.uint8)
    return rows.view(_WORD).reshape(-1, rows.shape[-1] // 8).T.copy()


# The 4 ASCII digits of each of 0..9999, first digit in the low byte, and
# their trailing zeros (4 for 0000), from those of the 2 digits of 0..99.
_PAIR = np.arange(100)
_PAIRS = (_PAIR[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8).view("<u2")[:, 0]
_PAIR_ZEROS = (_PAIR % 10 == 0).astype(np.uint8) + (_PAIR == 0)
_HIGH, _LOW = np.divmod(np.arange(10_000), 100)
_QUADS = _PAIRS[_HIGH].astype(_WORD) | (_PAIRS[_LOW].astype(_WORD) << 16)
_QUAD_ZEROS = np.where(_LOW == 0, _PAIR_ZEROS[_HIGH] + 2, _PAIR_ZEROS[_LOW])

# Exact powers of ten 10^0..10^22 and their Veltkamp halves.
_POW10 = np.array([float(10**i) for i in range(23)])
_SPLITTER = 2.0**27 + 1


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# Bound on the rounding of e after two factors: |e| < 20, and its two
# roundings are each at most 2^-53 of a term below 20.
_TWO_FACTOR_ERROR = 2.0**-46
_SMALLEST, _LARGEST = 1e-28, 1e17

# A float's 32 bytes: 0 unused, 1 the sign, 2-6 the "0.000" head of the
# fixed form below one, 7-24 the 17 digits and the point (slot i at byte
# 7 + i), 25-28 "e-XX", 29 the separator, 30-31 unused.  Table columns are
# indexed by (k + 28) * 18 + nd, for k in -28..16 and nd in 0..17.
_K = np.arange(-28, 17)[:, None, None]
_ND = np.arange(18)[:, None]
_SLOT = _BYTE - 7
_EXPONENT_FORM = _K < -4
_BELOW_ONE = (_K < 0) & ~_EXPONENT_FORM
# the point's slot q: after k + 1 digits in the fixed form and after one in
# the exponent form; below one it is in the head, and q = 17 is never kept
_POINT = np.where(_EXPONENT_FORM, 1, np.where(_BELOW_ONE, 17, _K + 1))
# the slots kept: the nd digits, and the point if a digit follows it; in the
# fixed form also the zeros before the point
_END = np.where(_ND > _POINT, _ND + 1, np.where(_BELOW_ONE, _ND, _POINT))
_KEPT = (_SLOT >= 0) & (_SLOT < _END)
_FF, _00 = np.uint8(0xFF), np.uint8(0)
_BEFORE = _words(np.where(_KEPT & (_SLOT < _POINT), _FF, _00))  # digit i in slot i
_AFTER = _words(np.where(_KEPT & (_SLOT > _POINT), _FF, _00))  # digit i - 1 in slot i
_text = np.zeros((_K.shape[0], 1, 32), np.uint8)
_text[..., 2:7] = np.frombuffer(b"0.000", np.uint8)
_text[..., 25:29] = [ord("e"), ord("-"), 0, 0] + np.concatenate(
    [0 * _K, 0 * _K, -_K // 10 + ord("0"), -_K % 10 + ord("0")], axis=-1
)
_MARKS = _words(
    np.where(_KEPT & (_SLOT == _POINT), np.uint8(ord(".")), _00)
    | np.where((_BYTE >= 2) & (_BYTE < 2 + np.where(_BELOW_ONE, 1 - _K, 0)), _text, _00)
    | np.where(_EXPONENT_FORM & (_BYTE >= 25) & (_BYTE < 29), _text, _00)
)
_MINUS, _NONE = np.uint64(ord("-") << 8), np.uint64(0)
_SEP_AT = 29
del _PAIR, _PAIRS, _PAIR_ZEROS, _HIGH, _LOW
del _K, _ND, _SLOT, _EXPONENT_FORM, _BELOW_ONE, _POINT, _END, _KEPT, _text
_POW10_INT = 10 ** np.arange(1, 19)
# Integer words: bytes b >= t kept, for row t.
_FROM = _words(np.where(_BYTE[:8] >= np.arange(9)[:, None], _FF, _00))[0]
del _FF, _00


def _two_product(a, s):
    """a * 10^s = p + e exactly, for 0 <= s <= 22."""
    a_hi, a_lo = _split(a)
    b, b_hi, b_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _scaled(ax, k):
    """p and N = p + rint(e) of |x| 10^(16 - k), and whether N may be wrong."""
    s = 16 - k
    p, e = _two_product(ax, np.minimum(s, 22))
    n = p.astype(np.int64)
    n += np.rint(e).astype(np.int64)
    unsure = np.zeros(ax.shape, bool)
    two = (s > 22).nonzero()[0]
    if two.size:
        rest = s[two] - 22
        p[two], e2 = _two_product(p[two], rest)
        e2 += e[two] * _POW10[rest]
        r = np.rint(e2)
        n[two] = p[two].astype(np.int64) + r.astype(np.int64)
        # |e| < 20 may also carry N out of the 17 digits
        unsure[two] = (np.abs(e2 - r) > 0.5 - _TWO_FACTOR_ERROR) | (n[two] < 10**16) | (
            n[two] >= 10**17
        )
    return p, n, unsure


def _digits(x):
    """Exponent k, 17-digit integer N and fallback mask of each value."""
    ax = np.abs(x)
    fast = (ax >= _SMALLEST) & (ax < _LARGEST)
    ax = np.where(fast, ax, 1.0)
    k = np.maximum(np.minimum(np.floor(np.log10(ax)), 16), -28).astype(np.int64)
    p, n, unsure = _scaled(ax, k)
    # log10 may put k one off near a power of ten: move k and scale again.
    # With one factor, p in (1e16, 1e17) keeps N = p + rint(e) in 17 digits.
    off = ((p <= 1e16) | (p >= 1e17)).nonzero()[0]
    if off.size:
        moved = k[off] + np.where(p[off] < 1e16, -1, 1)
        k[off] = np.maximum(np.minimum(moved, 16), -28)
        p_off, n[off], unsure[off] = _scaled(ax[off], k[off])
        unsure[off] |= (moved != k[off]) | (p_off <= 1e16) | (p_off >= 1e17)
    unsure |= ~fast
    return k, n, unsure


def _divmod(a, d):
    """a // d, and a reduced mod d in place."""
    q = a // d
    a -= q * d
    return q, a


def _float_words(x) -> np.ndarray:
    """The four words (4, x.size) of each x's '%.17g' field, no separator."""
    k, n, slow = _digits(x)
    lead, n = _divmod(n, 10**16)
    hi, lo = _divmod(n, 10**8)
    groups = [*_divmod(hi, 10**4), *_divmod(lo, 10**4)]
    tz = _QUAD_ZEROS[groups[3]]
    for g in (2, 1, 0):  # whole groups of zeros, rare but for round numbers
        zero = (tz == 4 * (3 - g)).nonzero()[0]
        tz[zero] += _QUAD_ZEROS[groups[g][zero]]
    row = (k + 28) * 18 + 17 - tz  # 17 - tz significant digits
    first = (lead + ord("0")).astype(_WORD)  # digit 0, in slot 0
    low = _QUADS[groups[0]] | (_QUADS[groups[1]] << 32)  # digits 1-8
    high = _QUADS[groups[2]] | (_QUADS[groups[3]] << 32)  # digits 9-16
    del k, n, lead, hi, lo, groups, tz

    # digit i goes in slot i before the point and in slot i + 1 after it
    word = np.empty((4, x.size), _WORD)
    word[0] = _MARKS[0][row] | (first << 56) | np.where(x < 0, _MINUS, _NONE)
    word[1] = (low & _BEFORE[1][row]) | (((low << 8) | first) & _AFTER[1][row])
    word[1] |= _MARKS[1][row]
    word[2] = (high & _BEFORE[2][row]) | (((high << 8) | (low >> 56)) & _AFTER[2][row])
    word[2] |= _MARKS[2][row]
    word[3] = ((high >> 56) & _AFTER[3][row]) | _MARKS[3][row]

    for i in slow.nonzero()[0]:
        text = np.zeros(32, np.uint8)
        value = b"%.17g" % x[i]
        text[1 : 1 + len(value)] = np.frombuffer(value, np.uint8)
        word[:, i] = _words(text)[:, 0]
    return word


def _int_words(v, sep: int) -> np.ndarray:
    """The words (m, v.size) of each non-negative integer v, right-aligned
    and followed by the separator byte sep."""
    width = np.searchsorted(_POW10_INT, v, "right") + 1  # digits
    m = int(width.max()) // 8 + 1  # words of 8 m - 1 digits and sep
    word = np.empty((m, v.size), _WORD)
    rest = v.astype(np.int64)
    for t in range(m - 1, -1, -1):  # 8 digits a word, the last word first
        rest, chunk = _divmod(rest, 10**8)
        high, low = _divmod(chunk, 10**4)
        word[t] = _QUADS[high] | (_QUADS[low] << 32)
    # drop the first digit to make room for sep after the last
    word[:-1] = (word[:-1] >> 8) | (word[1:] << 56)
    word[-1] = (word[-1] >> 8) | np.uint64(sep << 56)
    start = 8 * m - 1 - width  # first byte kept
    for t in range(m):
        word[t] &= _FROM[np.minimum(np.maximum(start - 8 * t, 0), 8)]
    return word


def _block_text(columns) -> str:
    """The lines of one block of rows, its columns formatted together."""
    floats = [c for c in columns if c.dtype.kind == "f"]
    float_fields = iter(())
    if floats:  # one pass over all float columns, then one field per column
        words = _float_words(np.concatenate(floats)).reshape(4, len(floats), -1)
        float_fields = iter(words.swapaxes(0, 1))
    fields = []
    for i, c in enumerate(columns):
        sep = ord("\n" if i == len(columns) - 1 else ",")
        if c.dtype.kind == "f":
            fields.append(next(float_fields))
            fields[-1][3] |= np.uint64(sep << 8 * (_SEP_AT - 24))
        else:
            fields.append(_int_words(c, sep))
    buf = np.empty((columns[0].size, sum(f.shape[0] for f in fields)), _WORD)
    at = 0
    for words in fields:
        buf[:, at : at + words.shape[0]] = words.T
        at += words.shape[0]
    del fields, float_fields, words
    data = buf.tobytes()
    del buf  # hold the block's bytes once at a time
    return data.translate(None, b"\0").decode("ascii")


def csv_text(header: str, n_rows: int, columns) -> str:
    """header followed by one line per row, its values joined by commas.

    columns(lo, hi) returns the 1-D arrays of rows lo..hi - 1, one per
    column: float64 columns are written as '%.17g' writes them, integer
    columns must be non-negative.  Rows are formatted in blocks of at most
    _BLOCK_BYTES of working arrays."""
    step = max(1, _BLOCK_BYTES // (len(columns(0, 0)) * _COLUMN_BYTES))
    text = header
    for lo in range(0, n_rows, step):
        # CPython extends a str with one reference in place, so the text is
        # not copied per block
        text += _block_text(columns(lo, min(lo + step, n_rows)))
    return text
