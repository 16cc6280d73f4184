"""The row text of every table: each row of a structured array as
``line % row`` writes it (``_line``: integers as %d, reals as FLOAT_FMT),
byte for byte, CHUNK_ROWS rows at a time.

``encoded`` lays each chunk out as one byte block and a mask of the bytes
kept (``_real``, ``_int``), and hands the rows it cannot decide to
``line % row``.  Its tables are built on first use.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

import numpy as np

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 8192  # rows written at a time: bounds the encoder's block and the held text
_TIE = 1e-9  # a fraction of y this close to 1/2 is left to `%` (see _decimal)
_Q0, _QN = -345, 650  # the powers 10**-q held: q = _Q0 .. _Q0 + _QN - 1
_X = _Q0 + 16  # the smallest exponent held
_REAL_WIDTH = 46  # bytes of a real cell (see _real_cells)


def _line(rows: np.ndarray, sep: str) -> str:
    """The ``%`` format of one row: integer fields as %d, float fields as
    FLOAT_FMT, joined by ``sep``."""
    names = rows.dtype.names
    return sep.join("%d" if rows.dtype[n].kind in "iu" else FLOAT_FMT for n in names) + "\n"


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """``(h1, h2, lo, bias)`` for each q = _Q0 + i: 10**-q = (h + lo)·2**k,
    h = h1 + h2 the double nearest 10**-q·2**-k in [1, 2], split into two
    halves of 26 bits, lo the double nearest the rest, bias = k + 1023;
    worked out from exact integers."""
    h1, h2, lo = np.empty(_QN), np.empty(_QN), np.empty(_QN)
    bias = np.empty(_QN, np.int64)
    for i in range(_QN):
        q = _Q0 + i
        num, den = (10**-q, 1) if q <= 0 else (1, 10**q)
        k = num.bit_length() - den.bit_length()
        k -= (num << max(-k, 0)) < (den << max(k, 0))
        num, den = num << max(-k, 0), den << max(k, 0)
        h = num / den  # int / int rounds once, to nearest
        lo[i] = (num * 2**52 - int(h * 2**52) * den) / (den * 2**52)
        c = h * 134217729.0  # 2**27 + 1: Dekker's split
        h1[i] = c - (c - h)
        h2[i] = h - h1[i]
        bias[i] = k + 1023
    return h1, h2, lo, bias


@functools.cache
def _digits(r: int) -> np.ndarray:
    """The last ``r`` of the four ASCII digits of each of 0..9999, one
    ``r``-byte item each."""
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    return np.ascontiguousarray(digits[:, 4 - r :], np.uint8).view(f"V{r}").ravel()


@functools.cache
def _trailing_zeros() -> np.ndarray:
    """The trailing zeros of each of 0..9999 written in four digits."""
    n = np.arange(10000)
    return sum((n % 10**k == 0).astype(np.int64) for k in range(1, 5))


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits D and exponent X that %.17g writes for each float64 of
    ``x`` (D the 17 significant digits as an integer in [10**16, 10**17),
    |x| ≈ D·10**(X - 16); D = X = 0 for ±0), and where the two are left
    undecided, for ``%`` to write.

    With |x| = m·2**e (``np.frexp``, 1/2 ≤ m < 1) and q = ⌊log10|x|⌋ - 16,
    y = |x|·10**-q = m·(h + lo)·2**(e + k) lies in [10**16, 10**17) and D is
    y rounded to the nearest integer, as %.17g rounds.  The product m·h is
    exact as p + ε (Dekker: numpy has no fused multiply-add), and y is
    taken as (p + (ε + m·lo))·2**(e + k).  Its error: h + lo misses
    10**-q·2**-k by at most 2**-106, m·lo (|lo| ≤ 2**-53) rounds by at most
    2**-107 and its sum with ε (|ε| ≤ 2**-53) by 2**-105, under 2**-104 in
    all; with m·h ≥ 1/2 and y < 10**17 the scale 2**(e + k) is below
    2·10**17, so y is off by less than 1e-14.  p·2**(e + k) ≥ 2**53 is an
    integer, so the fraction of y is that of the small part alone.

    Undecided, for ``%``: a fraction within _TIE of 1/2 (exact ties such as
    2**-25 round half to even), a rounded y outside [10**16, 10**17)
    (log10 a step off next to a power of ten, or a carry to 10**17), nan
    and ±inf.
    """
    h1, h2, lo, bias = _powers()
    finite, zero = np.isfinite(x), x == 0
    a = np.abs(x)
    a[~finite | zero] = 1.0
    m, e = np.frexp(a)
    q = np.floor(np.log10(a)).astype(np.int64) - 16
    i = q - _Q0
    hi1, hi2 = h1.take(i), h2.take(i)
    scale = ((bias.take(i) + e) << 52).view(np.float64)  # 2**(e + k)
    c = m * 134217729.0
    m1 = c - (c - m)
    m2 = m - m1
    p = m * (hi1 + hi2)
    eps = m2 * hi2 - (((p - m1 * hi1) - m2 * hi1) - m1 * hi2)
    small = (eps + m * lo.take(i)) * scale
    whole = np.floor(small)
    frac = small - whole
    floor = (p * scale).astype(np.int64) + whole.astype(np.int64)
    digits = floor + (frac > 0.5)
    undecided = ((np.abs(frac - 0.5) <= _TIE) | (floor < 10**16) | (digits >= 10**17)
                 | ~finite)
    digits[zero] = 0
    q[zero] = -16
    return digits, q + 16, undecided


@functools.cache
def _real_cells() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables ``_real`` writes a cell from: the layout class and the
    "e±ddd" bytes of each exponent X - _X, and the cell mask of each
    (class, significant digits, sign).

    A cell is a sign, "0.000", 17 digits for the integer part, a dot, the
    same 17 digits for the fraction and "e±ddd"; the mask keeps the bytes
    %.17g writes.  Classes 0..16 are fixed notation with X = class,
    17..20 "0." notation with X = 16 - class, 21 and 22 scientific with two
    and three exponent digits.
    """
    X = np.arange(_X, _X + _QN)
    fixed, point = (X >= 0) & (X < 17), (X < 0) & (X >= -4)
    kind = np.where(fixed, X, np.where(point, 16 - X, np.where(abs(X) < 100, 21, 22)))
    exponents = b"".join(b"e%c%03d" % (b"+-"[x < 0], abs(x)) for x in X.tolist())
    mask = np.zeros((23, 17, 2, _REAL_WIDTH), bool)
    mask[:, :, 1, 0] = True
    for c, L in itertools.product(range(23), range(1, 18)):
        cell = mask[c, L - 1, :, 1:]  # after the sign
        whole = c + 1 if c < 17 else 0 if c < 21 else 1  # integer-part digits
        cell[:, : c - 15 if 17 <= c < 21 else 0] = True  # "0." and zeros
        cell[:, 5 : 5 + whole] = True
        cell[:, 22] = 0 < whole < L
        cell[:, 23 + whole : 23 + L] = True
        cell[:, 40:] = c >= 21
        cell[:, 42] = c == 22
    return (kind, np.frombuffer(exponents, "V5"),
            mask.reshape(-1, _REAL_WIDTH).view(f"V{_REAL_WIDTH}").ravel())


def _put(cells: np.ndarray, items: np.ndarray, index: np.ndarray) -> None:
    """Write ``items[index]`` into the (rows, itemsize) bytes ``cells``."""
    cells.view(items.dtype)[:, 0] = items.take(index)


def _real(x: np.ndarray, block: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Write the float64 column ``x`` into its cells of ``block`` and
    ``mask`` (see ``_real_cells``); return the rows left undecided."""
    kind, exponents, masks = _real_cells()
    D, X, undecided = _decimal(x)
    top, low = np.divmod(D, 10**8)
    first, g12 = np.divmod(top, 10**8)
    groups = (*np.divmod(g12, 10**4), *np.divmod(low, 10**4))
    block[:, 6] = first + ord("0")
    for j, g in enumerate(groups):
        _put(block[:, 7 + 4 * j : 11 + 4 * j], _digits(4), g)
    block[:, 24:41].view("V17")[:, 0] = block[:, 6:23].view("V17")[:, 0]
    _put(block[:, 41:46], exponents, X - _X)
    # D's trailing zeros, four digits at a time from the right
    zeros, (g1, g2, g3, g4) = _trailing_zeros(), groups
    tail = zeros.take(g4) + (g4 == 0) * (
        zeros.take(g3) + (g3 == 0) * (zeros.take(g2) + (g2 == 0) * zeros.take(g1)))
    _put(mask, masks, (kind.take(X - _X) * 17 + 16 - tail) * 2 + np.signbit(x))
    return undecided


@functools.cache
def _int_masks(width: int) -> np.ndarray:
    """The mask of an integer cell (a sign, then ``width`` digits) for each
    (digit count, sign)."""
    mask = np.zeros((width + 1, 2, width + 1), bool)
    mask[:, :, 1:] = np.arange(width) >= width - np.arange(width + 1)[:, None, None]
    mask[:, 1, 0] = True
    return mask.view(f"V{width + 1}").ravel()


def _int(col: np.ndarray, block: np.ndarray, mask: np.ndarray) -> None:
    """Write the int64 or uint64 column ``col`` into its cells of ``block``
    and ``mask``: a sign and right-aligned digits."""
    width = block.shape[1] - 1
    neg = col < 0
    mag = np.abs(col).view(np.uint64)  # |-2**63| wraps to -2**63, which is 2**63 as uint64
    count = np.searchsorted(np.array([10**k for k in range(1, 20)], np.uint64), mag, "right") + 1
    _put(mask, _int_masks(width), count * 2 + neg)
    for end in range(width + 1, 1, -4):
        start = max(1, end - 4)
        if start > 1:
            mag, group = np.divmod(mag, 10**4)
        else:
            group = mag
        _put(block[:, start:end], _digits(end - start), group)


def encoded(rows: np.ndarray, sep: str) -> Iterator[bytes]:
    """The text of ``rows``, CHUNK_ROWS at a time, byte for byte what
    ``line % row`` writes for each row.

    Each chunk is one (rows, width) byte block and a mask of the bytes
    kept, compacted with ``compress``: a cell per column, as wide as its
    widest value (``_real``, ``_int``), then ``sep`` or a newline.  The
    bytes no value changes are written once.  A row with a value left
    undecided is written by ``line % row``.
    """
    line, names, total = _line(rows, sep), rows.dtype.names, rows.shape[0]
    real = [rows.dtype[n].kind == "f" for n in names]
    widths = [_REAL_WIDTH if r else
              1 + len(str(max(int(rows[n].max(initial=0)), -int(rows[n].min(initial=0)))))
              for n, r in zip(names, real)]
    starts = np.cumsum([0] + [w + 1 for w in widths]).tolist()
    ends = np.subtract(starts[1:], 1)  # the separator after each cell
    block = np.empty((min(CHUNK_ROWS, total), starts[-1]), np.uint8)
    mask = np.empty(block.shape, bool)
    block[:, starts[:-1]] = ord("-")
    block[:, ends] = ord(sep)
    block[:, -1] = ord("\n")
    mask[:, ends] = True
    for at, r in zip(starts, real):
        if r:
            block[:, at + 1 : at + 6] = np.frombuffer(b"0.000", np.uint8)
            block[:, at + 23] = ord(".")
    for s in range(0, total, CHUNK_ROWS):
        chunk = rows[s : s + CHUNK_ROWS]
        b, m = block[: chunk.shape[0]], mask[: chunk.shape[0]]
        undecided = np.zeros(chunk.shape[0], bool)
        for n, r, at, width in zip(names, real, starts, widths):
            cells = slice(at, at + width)
            if r:
                undecided |= _real(chunk[n], b[:, cells], m[:, cells])
            else:
                _int(chunk[n], b[:, cells], m[:, cells])
        pieces, start = [], 0
        for i in np.flatnonzero(undecided).tolist() + [None]:
            pieces.append(b[start:i].ravel().compress(m[start:i].ravel()).tobytes())
            if i is not None:
                pieces.append((line % chunk[i].item()).encode())
                start = i + 1
        yield b"".join(pieces)
