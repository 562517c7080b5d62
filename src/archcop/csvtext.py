"""CSV text of the ``grid`` and ``sample`` outputs.

A header line, then one line per row: each value as the text ``repr``
gives for it (the shortest decimal that reads back as the same double),
separated by commas, each line ending in ``\\n``; files are opened with
``newline=""``.  The text comes a block of rows at a time (one lattice
row for a grid), meant to be written as it comes, so an output never
holds more than one block as text.

The text of many values is made at once in numpy.  Each value gets a
fixed-width slot of a byte matrix that holds every character its text
could need, a boolean mask keeps the ones it does need, and one
``np.compress`` of the matrix gives the text of ``PASS`` rows.

Digits.  Take a finite x with 1e-4 <= |x| < 1e16, the range ``repr``
prints without an exponent, that is not a power of two.  Its decade E
(10**E <= |x| < 10**(E+1)) is decided exactly against the least doubles
not below the powers of ten, so y = |x| * 10**(16-E) lies in
[1e16, 1e17).  10**(16-E) is a double, and Dekker's two-product gives
y exactly as a pair of doubles.  With x = m * 2**e, m a 53-bit integer,
the decimals that read back as x lie within 2**(e-1) of it; in units of
y that is y +- h with h = y / (2m), and 0.55 < h < 11.2.  The nearest
decimals of 15, 16 and 17 significant digits are the multiples of 100,
10 and 1 nearest to y, and the first of them closer to y than h is the
text.  It is ``repr``'s, the shortest decimal inside the interval and,
of the shortest, the nearest to x:

- multiples of 100 are further apart than the interval is wide, so at
  most one lies inside.  A decimal of fewer than 15 digits is one of
  them with trailing zeros, so when the nearest one is inside it is the
  shortest decimal once its zeros are stripped; when it is not, no
  decimal of 15 digits or fewer is inside;
- otherwise the nearest multiple of 10 is inside whenever any is, and
  is the nearest of them;
- the nearest integer is always inside, since h > 1/2.

The arithmetic is exact to about 1e-14 in units of y.  A value whose
distance to the nearest candidate lies within 1e-6 of h or of a tie
between two candidates could be decided wrongly, so it takes ``repr``
itself, as do values outside the range, zeros, infinities, NaN and
powers of two (whose interval is narrower below than above).  None of
``sample``'s values in (1e-4, 1) does; in a 1000**2 ``f3`` cdf lattice,
0.2% of the values do: 0, 1, the powers of two and values below 1e-4.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

PASS = 512  # rows of a table formatted at once; bounds the working set

# A value's slot: column 0 the sign, 1-5 "0.000", 6-7 the first digit and
# a ".", 8-39 the other sixteen digits, each followed by a "." (four 8-byte
# cells of four digits), 40 the separator.  Digit i (from 1) sits in
# column 4 + 2i, the "." after it in 5 + 2i.
_TEMPLATE = b"-0.000" + b"0." * 17 + b","
_SLOT = len(_TEMPLATE)
_DECADES = 20  # E = -4 .. 15
_KEYS = 2 * _DECADES * 17  # (sign, decade, significant digits) of a slot
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split into 26-bit halves
_MARGIN = 1e-6  # a value this close to h or to a tie takes repr
_STEPS = np.array([[100.0], [10.0], [1.0]])  # the candidates' spacings, in units of y
_GROUP_START = np.array([[1], [5], [9], [13]], np.int8)  # digit before each group


class _Tables(NamedTuple):
    cuts: np.ndarray  # least double >= 10**E, E = -4 .. 16
    scale: np.ndarray  # 10**(16-E), E = -4 .. 15, exact doubles
    scale_hi: np.ndarray  # Veltkamp halves of scale
    scale_lo: np.ndarray
    lead: np.ndarray  # "d." for d = 0 .. 9, as uint16
    cells: np.ndarray  # "a.b.c.d." for each four-digit group, as uint64
    last: np.ndarray  # place (1-4) of a group's last nonzero digit; 0 for 0000
    keep: np.ndarray  # a slot's mask for each key, then for a repr of 1-24 chars


@functools.cache
def _tables() -> _Tables:
    """The lookup tables, built at the first formatting, not at import."""
    cuts = []
    for k in range(-4, 17):
        c = float(f"1e{k}")  # the double nearest to 10**k
        num, den = c.as_integer_ratio()
        if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0):
            c = math.nextafter(c, math.inf)
        cuts.append(c)
    scale = 10.0 ** np.arange(20, 0, -1)
    t = _SPLIT * scale
    scale_hi = t - (t - scale)

    digits = np.empty((10000, 4), np.uint8)
    for k, place in enumerate((1000, 100, 10, 1)):
        digits[:, k] = np.arange(10000, dtype=np.int16) // place % 10
    cells = np.full((10000, 8), ord("."), np.uint8)
    cells[:, ::2] = digits + ord("0")
    last = ((digits != 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)

    sign, j, n = np.unravel_index(np.arange(_KEYS), (2, _DECADES, 17))
    e, n = (j - 4)[:, None], (n + 1)[:, None]
    keep = np.zeros((_KEYS + 25, _SLOT), bool)
    keep[:_KEYS, 0] = sign == 1
    keep[:_KEYS, 1:6] = (np.arange(1, 6) <= 1 - e) & (e < 0)  # "0." and zeros
    # the digits up to the last significant one, and for E >= 0 at least
    # one after the point ("12.0", not "12."); the point after digit E + 1
    keep[:_KEYS, 6:40:2] = np.arange(1, 18) <= np.where(e < 0, n, np.maximum(n, e + 2))
    keep[:_KEYS, 7:40:2] = np.arange(1, 18) == e + 1
    for length in range(1, 25):  # a repr written from column 6
        keep[_KEYS + length, 6 : 6 + length] = True
    keep[:, -1] = True
    return _Tables(np.array(cuts), scale, scale_hi, scale - scale_hi,
                   np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.", np.uint16),
                   cells.view(np.uint64)[:, 0], last, keep)


def _decimal(a):
    """The shortest round-trip decimal of each value of ``a`` (>= 0) as
    (m, j, sure): the 17-digit integer m (its digits, padded with zeros)
    times 10**(j - 20), and whether it was certified; where it was not,
    m and j are meaningless.  Overwrites ``a``."""
    tab = _tables()
    j = np.searchsorted(tab.cuts, a, side="right") - 1  # E + 4
    sure = (j >= 0) & (j < _DECADES)
    a[~sure] = 1.5  # placeholders, so that no value out of range reaches
    j[~sure] = 4  # the arithmetic below
    p = tab.scale.take(j)
    ph, pl = tab.scale_hi.take(j), tab.scale_lo.take(j)
    big = _SPLIT * a
    ah = big - (big - a)
    al = a - ah
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl  # y = hi + lo exactly
    h = np.spacing(a)
    sure &= a != h * 2.0**52
    h *= 0.5 * p
    # y = 100*q + t, q an integer, t in [-8, 108); a candidate is
    # 100*q + step*k with k the integer nearest to t/step
    y = hi.astype(np.int64)  # hi is an integer below 2**63
    q = y // 100
    t = (y - 100 * q) + lo
    off = np.floor(t / _STEPS + 0.5) * _STEPS
    d = np.abs(t - off)  # distances from y to the candidates
    sure &= ((np.abs(d - h) >= _MARGIN) & (np.abs(d - 0.5 * _STEPS) >= _MARGIN)).all(axis=0)
    inside = d < h  # the first candidate inside; the nearest integer always is
    m = 100 * q + np.where(inside[0], off[0], np.where(inside[1], off[1], off[2])).astype(np.int64)
    carry = m == 10**17  # rounded up to the next decade
    m[carry] = 10**16
    j += carry
    return m, j, sure


def _write_digits(m, buf):
    """Write the 17 digits of each m into its slot of ``buf``; return how
    many are significant."""
    tab = _tables()
    hi = m // 10**8
    lo = m - hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    groups = np.empty((4, len(m)), np.intp)  # digits 2-5, 6-9, 10-13, 14-17
    for c, half in ((0, hi), (2, lo)):
        np.floor_divide(half, 10**4, out=groups[c])
        groups[c + 1] = half - groups[c] * 10**4
    buf[:, 6:8].view(np.uint16)[:, 0] = tab.lead.take(lead)
    buf[:, 8:40].view(np.uint64)[...] = tab.cells.take(groups).T
    last = tab.last.take(groups)
    return np.where(last > 0, last + _GROUP_START, 1).max(axis=0)


def _fill(x, buf, mask):
    """Write the text of each value of the 1-D float array ``x`` into one
    slot (row) of ``buf`` and ``mask``; the separators of ``buf`` stay."""
    x = np.asarray(x, dtype=np.float64)
    m, j, sure = _decimal(np.abs(x))
    key = ((x < 0) * _DECADES + j) * 17 + (_write_digits(m, buf) - 1)
    rest = np.flatnonzero(~sure)
    if rest.size:  # repr's own text, written from column 6
        text = np.array([repr(v) for v in x[rest].tolist()], "S24").view(np.uint8).reshape(-1, 24)
        buf[rest, 6:30] = text
        key[rest] = _KEYS + (text != 0).sum(axis=1)  # their lengths, as NULs pad them
    np.take(_tables().keep, key, axis=0, out=mask, mode="clip")


def _canvas(rows: int, cols: int):
    """Byte matrix and mask of ``rows`` lines of ``cols`` slots."""
    buf = np.tile(np.frombuffer(_TEMPLATE, np.uint8), (rows, cols, 1))
    buf[:, -1, -1] = ord("\n")
    return buf, np.zeros(buf.shape, bool)


def _text(buf, mask) -> str:
    return np.compress(mask.ravel(), buf.ravel()).tobytes().decode("ascii")


def _rows(buf, mask, values) -> str:
    """The lines of the 2-D array ``values``, made in the first rows of
    a canvas."""
    buf, mask = buf[: len(values)], mask[: len(values)]
    _fill(values.ravel(), buf.reshape(-1, _SLOT), mask.reshape(-1, _SLOT))
    return _text(buf, mask)


def table(header: str, blocks):
    """The header, then the rows ``x,y`` of each (b, 2) array of the
    iterable ``blocks``, one block's text at a time.  The first block is
    made before the header is yielded, so an error in making it leaves no
    output."""
    blocks = iter(blocks)
    block = next(blocks)
    yield header + "\n"
    buf, mask = _canvas(PASS, 2)
    while block is not None:
        yield "".join([_rows(buf, mask, block[r : r + PASS]) for r in range(0, len(block), PASS)])
        block = next(blocks, None)


def lattice(header: str, pts, fn):
    """The header, then the rows ``u,v,fn(u, pts)`` for each ``u`` of
    ``pts``: one call of ``fn`` per lattice row, each row's text made
    before the next call.  The text of ``pts`` is made once, packed to
    its longest value; a row formats and packs only its values."""
    yield header + "\n"
    n = len(pts)
    # the texts of pts, padded with NULs; the canvas that made them is freed
    texts = np.array(_rows(*_canvas(n, 1), pts[:, None]).split(), "S")
    w = texts.itemsize + 1  # a text and its comma
    line = np.zeros((n, 2 * w + _SLOT), np.uint8)  # u and v with their commas, a value's slot
    line[:, w : 2 * w - 1] = texts.view(np.uint8).reshape(n, -1)
    line[:, 2 * w - 1] = ord(",")
    line[:, 2 * w :] = np.frombuffer(_TEMPLATE[:-1] + b"\n", np.uint8)
    keep = line != 0
    for i, u in enumerate(pts.tolist()):
        line[:, :w], keep[:, :w] = line[i, w : 2 * w], keep[i, w : 2 * w]
        _fill(fn(u, pts), line[:, 2 * w :], keep[:, 2 * w :])
        yield _text(line, keep)
