"""``'%.17g' % v`` for every element of a float64 array, at numpy speed.

:func:`cells` returns the text of each value as a row of NUL-padded ASCII
bytes; the row with its NUL bytes dropped is ``('%.17g' % v).encode()``.

Digits.  The 17 significant digits are floor(X) of X = |v| * 10**(16 - E),
with E the decade of |v|, rounded half up on the fraction of X.  X is a
double-double product: |v| times the pair hi + lo of 10**(16 - E), built
exactly from Python ints, with hi * |v| split without error by
Veltkamp/Dekker (Dekker 1971).  Its absolute error is below 1e-14 on an X
in [1e16, 1e17).  E is settled on floor(X) before rounding.

Fallback.  Python's ``%`` prints every value that this error bound leaves
undecided: a fraction within 2**-30 of 1/2 (an exact tie, which ``%``
rounds to even) and an X near 10**16 or 10**17 (a neighbour of a power of
ten).  That takes every X whose floor is 10**16 or 10**17 - 1, so no
rounding carries into the next decade.  It also prints each value
outside [1e-280, 1e280] in magnitude: 0, -0, NaN, +-inf, the subnormals
and the ends of the range, where 10**(16 - E) or the split would
overflow; and every value on a big-endian machine, where the words below
are not laid out as text.

Text.  A cell is 24 bytes, held as three little-endian uint64 words.  Byte
0 is the sign, bytes 1.. the digits with the point inserted, and bytes
19..23 the exponent of the exponent notation.  Digits come four at a time
from a table.  Placing them is a shift and three masks per word, looked
up by the decade (which fixes the digits before the point and the zeros
after it) and the length once trailing zeros are stripped.  A caller lays
whole tables out in fixed widths and drops the padding with one
``bytes.translate(None, b"\\0")``.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

FMT = "%.17g"

_MIN, _MAX = 1e-280, 1e280
_UNDECIDED = 2.0 ** -30
_SPLIT = 134217729.0  # 2**27 + 1
_K_MIN, _K_MAX = -266, 298  # 16 - E for the decades E of [_MIN, _MAX], +-1
_E_MAX = 400  # exponent table: -_E_MAX .. _E_MAX
_U64 = np.uint64


def _words(cells: np.ndarray) -> np.ndarray:
    """The three little-endian words of each 24-byte cell of ``cells``
    (uint8, last axis 24), as a (3, n) array."""
    return cells.astype(np.uint8).reshape(-1, 24).view("<u8").astype(_U64).T.copy()


def _layout_tables():
    """The layouts (E + 4) * 25 + L of the fixed notation, E in -4..16 (the
    exponent notation takes E = 0) and L the bytes of sign, digits and
    point.  Returns the shift of the digits per E + 4; the layout per
    (E + 4) * 18 + d, d significant digits; and per layout and word the
    masks of the bytes kept in place and of those shifted, and the
    constant bytes."""
    e = np.arange(-4, 17)[:, None, None]
    length = np.arange(25)[None, :, None]
    byte = np.arange(24)
    fill = np.maximum(-e, 0)  # E < 0: '0.' and -E - 1 zeros come before the digits
    point = 1 + np.maximum(e, 0)  # digits before the point, in bytes 1..point
    first = point + 1 + np.maximum(fill, 1)  # the first digit after the point
    keep = (fill == 0) & (byte <= point)
    moved = (byte >= first) & (byte < length)
    digits = np.arange(18)[None, :, None] + fill  # with the zeros after the point
    layout = (e + 4) * 25 + 1 + np.maximum(digits, point) + (digits > point)
    const = np.select([(fill == 0) & (byte == point + 1) & (length > first),
                       (fill > 0) & (byte == 1),
                       (fill > 0) & (byte == 2),
                       (fill > 0) & (byte >= 3) & (byte < 2 + fill)],
                      [ord("."), ord("0"), ord("."), ord("0")])
    words = tuple(_words(np.broadcast_to(table, (21, 25, 24)))
                  for table in (keep * 0xFF, moved * 0xFF, const))
    return (8 * (1 + fill)).astype(_U64).ravel(), layout.ravel(), words


@functools.cache
def _tables() -> dict:
    """The constant tables of the kernel, built on first use."""
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # Python's int division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)  # 10**k - hi, rounded once
        powers.append((hi, lo))
    hi, lo = np.array(powers).T
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    digits = [np.arange(10000) // 10**i % 10 for i in (3, 2, 1, 0)]
    zeros, tail = 0, True  # trailing zeros of each group of four; 4 for 0000
    for d in digits[::-1]:
        tail = tail & (d == 0)
        zeros = zeros + tail
    exponents = bytearray(24 * (2 * _E_MAX + 2))  # entry 0 is none
    for i, x in enumerate(range(-_E_MAX, _E_MAX + 1), 1):
        text = b"e%+03d" % x
        exponents[24 * i + 19:24 * i + 19 + len(text)] = text
    shift, layout, words = _layout_tables()
    return {
        "powers": np.stack([hi, hi_h, hi - hi_h, lo]),
        "quad": sum((d + ord("0")).astype(_U64) << _U64(8 * i) for i, d in enumerate(digits)),
        "zeros": zeros,
        "layout": layout,
        "shift": shift,
        "words": words,
        # the exponent in bytes 19..23
        "exponent": _words(np.frombuffer(exponents, dtype=np.uint8))[2].copy(),
    }


def _scaled(a: np.ndarray, e: np.ndarray):
    """floor(X) as int64 and X - floor(X), for X = a * 10**(16 - e) below
    10**18.  Exact to 1e-14 from X = 2**53 on, where the rounded a * hi is
    a whole number; a smaller X gets a floor below 10**16, which makes the
    caller try E - 1."""
    hi, hi_h, hi_l, lo = (table.take(16 - _K_MIN - e) for table in _tables()["powers"])
    p = a * hi
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    t = (((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l) + a * lo
    t_whole = np.floor(t)
    return p.astype(np.int64) + t_whole.astype(np.int64), t - t_whole


def _decimal(v: np.ndarray):
    """The 17 significant digits of each value as an int64 n, its decade
    E, and whether the kernel prints it (False where Python's ``%`` must;
    n and E of those are any numbers that the layout accepts)."""
    a = np.abs(v)
    # False for NaN; the words are read as bytes in little-endian order
    fast = (a >= _MIN) & (a <= _MAX) & (sys.byteorder == "little")
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e)
    low, high = n < 10**16, n >= 10**17
    redo = np.flatnonzero(low | high)
    if redo.size:
        e[redo] += high[redo].astype(np.int64) - low[redo]
        n[redo], frac[redo] = _scaled(a[redo], e[redo])
    # X near 10**16 or 10**17 has n at the ends of its range; this also
    # sends n = 10**16 and 10**17 - 1 away from them to Python's text
    fast &= (np.abs(frac - 0.5) >= _UNDECIDED) & (n > 10**16) & (n < 10**17 - 1)
    n += frac > 0.5
    return n, e, fast


def _digits(n: np.ndarray):
    """The digits of each n in bytes 1..17 of three words, and how many
    are left once trailing zeros are stripped."""
    t = _tables()
    # lead, then four groups of four (``//`` is much faster than divmod)
    lead = n // 10**16
    rest = n - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g0, g2 = upper // 10**4, lower // 10**4
    g1, g3 = upper - g0 * 10**4, lower - g2 * 10**4
    q0, q1, q2, q3 = (t["quad"].take(g) for g in (g0, g1, g2, g3))
    sixteen, forty_eight = _U64(16), _U64(48)
    w0 = ((lead.astype(_U64) + _U64(48)) << _U64(8)) | (q0 << sixteen) | (q1 << forty_eight)
    w1 = (q1 >> sixteen) | (q2 << sixteen) | (q3 << forty_eight)
    w2 = q3 >> sixteen
    # 17 less the trailing zeros, four or more of them rare
    zeros = t["zeros"]  # zeros[0] is 4, and the lead digit is not 0
    nd = 17 - zeros.take(g3)
    rare = np.flatnonzero(g3 == 0)
    if rare.size:
        g0, g1, g2 = g0[rare], g1[rare], g2[rare]
        nd[rare] = 13 - (zeros.take(g2) + (g2 == 0) * (zeros.take(g1)
                                                        + (g1 == 0) * zeros.take(g0)))
    return w0, w1, w2, nd


def cells(values) -> np.ndarray:
    """The ``'%.17g'`` text of each value of ``values`` (flattened), as the
    rows of a uint8 array of shape (n, W): a row with its NUL bytes dropped
    is the ASCII text of its value.  Byte 0 of each row is its sign, or a
    NUL byte, unless no text has a sign; W is the widest row, at most 24."""
    t = _tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    # each step returns only what the next needs, so that few arrays are
    # alive at once: freed pages that must be faulted in again cost more
    # than the arithmetic
    n, e, fast = _decimal(v)
    w0, w1, w2, nd = _digits(n)
    del n

    fixed = (e >= -4) & (e <= 16)
    decade = e * fixed + 4  # the exponent notation lays out as E = 0
    layout = t["layout"].take(decade * 18 + nd)
    bits = t["shift"].take(decade)
    del nd, decade
    back = _U64(64) - bits
    shifted = (w0 << bits, (w1 << bits) | (w0 >> back), (w2 << bits) | (w1 >> back))
    del bits, back
    out = np.empty((v.size, 3), dtype=_U64)
    for j, (w, s, keep, moved, const) in enumerate(zip((w0, w1, w2), shifted, *t["words"])):
        w &= keep.take(layout)
        w |= s & moved.take(layout)
        np.bitwise_or(w, const.take(layout), out=out[:, j])
    del w0, w1, w2, shifted, w, s
    exponent = ~fixed
    out[:, 2] |= t["exponent"].take((e + _E_MAX + 1) * exponent)
    negative = v < 0
    out[:, 0] |= negative.astype(_U64) * _U64(ord("-"))
    width = int((layout % 25).max(initial=0))  # the bytes of sign and digits
    if exponent.any():
        width = max(width, 23 + int(np.abs(e[exponent]).max() >= 100))

    text = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = 0
        for i, x in zip(slow.tolist(), v[slow].tolist()):
            s = (FMT % x).encode("ascii")
            sign = s.startswith(b"-")  # -0 is not below 0
            negative[i] |= sign
            text[i, 1 - sign:1 - sign + len(s)] = np.frombuffer(s, dtype=np.uint8)
            width = max(width, 1 - sign + len(s))
    start = 0 if negative.any() else 1
    return text[:, start:max(width, start)]
