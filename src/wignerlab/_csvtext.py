"""The ``%.17g`` text of float64 arrays, and CSV lines built from it.

``_number_text`` formats whole arrays as ``format(v, ".17g")`` would, and
``_csv_lines`` joins columns of that text into CRLF lines
(docs/conventions.md, Number text).  Only the CSV writers of ``io`` use
them, and they import this module when they run.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np


# The %.17g fast path.  Each |v| in [_FAST_MIN, _FAST_MAX] is scaled to
# D = |v|·10^(16-e), e = floor(log10|v|), as a double-double; the ends keep
# the Veltkamp splits of |v| and 10^(16-e) clear of overflow and underflow.
# D is known to about 1e-14 absolute, so a fractional part that is not
# within _TIE_MARGIN of 1/2 proves the rounding; every value the fast path
# cannot prove is formatted by format() itself.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_MIN, _E_MAX = -281, 280  # floor(log10|v|) on that range; log10 may round 1e-280 down
_TIE_MARGIN = 1e-6


class _TextTables(NamedTuple):
    powers: np.ndarray  # rows hi, hi's Veltkamp halves and lo of 10^(16-e), by e - _E_MIN
    digits4: np.ndarray  # "<u4" per 0..9999: its four ASCII digits in text order
    zeros4: np.ndarray  # trailing zeros of each four-digit group, 4 for 0
    prefixes: np.ndarray  # "<u8" per e = -4 .. 0: NUL, then "0.000" .. "0." or nothing
    exponents: np.ndarray  # "<u8" per e: "e+XX" or "e-XXX", NUL padded


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a = hi + lo with each half exact in 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _power_of_ten(k: int) -> tuple[float, float]:
    """10^k as hi + lo, both correctly rounded."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    num, den = (hi := 1 / 10**-k).as_integer_ratio()
    return hi, (den - num * 10**-k) / (den * 10**-k)


@functools.cache
def _text_tables() -> _TextTables:
    """Built on first use, so importing the package does not pay for them."""
    hi, lo = np.array([_power_of_ten(16 - e) for e in range(_E_MIN, _E_MAX + 1)]).T
    g = np.arange(10000)
    quads = np.stack([g // 10**k - g // 10 ** (k + 1) * 10 for k in (3, 2, 1, 0)], 1)
    return _TextTables(
        np.stack([hi, *_split(hi), lo]),
        (quads + ord("0")).astype(np.uint8).view("<u4").ravel(),
        sum(g // 10**k * 10**k == g for k in range(1, 5)),
        _ascii(["\0" + "0." + "0" * (-e - 1) if e < 0 else "" for e in range(-4, 1)], "<u8"),
        _ascii([f"e{e:+03d}" for e in range(_E_MIN, _E_MAX + 1)], "<u8"),
    )


def _ascii(texts: list[str], dtype: str) -> np.ndarray:
    """Each text as one little-endian word, its first byte lowest, NUL padded."""
    width = np.dtype(dtype).itemsize
    return np.array([t.encode().ljust(width, b"\0") for t in texts], f"S{width}").view(dtype)


def _decimal17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits and decimal exponent of each float64.

    Returns ``(digits, exponent, proved)``.  Where ``proved`` holds,
    ``digits`` is |v|·10^(16-exponent) rounded half-even, an integer in
    [10^16, 10^17), or 0 for a zero (exponent 0).  Where it does not hold
    (non-finite values, |v| outside [1e-280, 1e280], near-ties, and a
    misjudged exponent) the caller must format the value exactly.
    """
    a = np.abs(values)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    row = e - _E_MIN
    hi, hi_h, hi_l, lo = _text_tables().powers
    # Dekker's two-product: top + rest == a·hi exactly, then rest += a·lo.
    top = a * hi[row]
    a_h, a_l = _split(a)
    rest = a_h * hi_h[row] - top
    rest += a_h * hi_l[row]
    rest += a_l * hi_h[row]
    rest += a_l * hi_l[row]
    rest += a * lo[row]
    # top >= 2^53 is an integer, so the fraction of D is that of rest.
    whole = np.floor(rest)
    rest -= whole
    digits = top.astype(np.int64) + whole.astype(np.int64)
    proved = fast & (digits >= 10**16) & (np.abs(rest - 0.5) >= _TIE_MARGIN)
    digits += rest > 0.5
    proved &= digits < 10**17
    digits[zero] = 0
    return digits, e, proved | zero


# A text row has 32 bytes: sign, the "0.000" prefix of fixed notation with
# e < 0, the leading digit, the decimal point, sixteen more digits, then the
# exponent from byte 24.  Every byte that is not part of the text is NUL.
# _MASKS[c] keeps the first c of eight digits.
_MASKS = np.array([(1 << 8 * c) - 1 for c in range(9)], "<u8")


def _number_text(values: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each float64 value, as NUL-padded ASCII.

    Returns uint8 of shape ``values.shape + (width,)``: the text of a value
    is the non-NUL bytes of its row, in order.  Digits come from the fast
    path of ``_decimal17``; a value it does not prove goes to ``format``.
    """
    t = _text_tables()
    v = np.asarray(values, dtype=np.float64)
    flat = v.reshape(-1)
    digits, e, proved = _decimal17(flat)
    # digits = lead·10^16 + four groups of four digits.  Floor division by a
    # constant is fast in numpy; remainders are not.
    high = digits // 10**8
    low = digits - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    groups = np.empty((len(flat), 4), np.int64)
    for j, half in ((0, high), (2, low)):
        groups[:, j] = quotient = half // 10**4
        groups[:, j + 1] = half - quotient * 10**4
    # A group's trailing zeros count only when every later group is 0.
    trailing = t.zeros4[groups[:, 3]]
    for j, full in ((2, 4), (1, 8), (0, 12)):
        trailing += (trailing == full) * t.zeros4[groups[:, j]]
    kept = 17 - trailing
    fixed = (e >= -4) & (e < 17)
    # Fixed notation shows every digit left of the point.
    shown = np.where(fixed, np.maximum(kept, e + 1), kept)
    point = (kept > 1) & ~(fixed & (e != 0))
    text = np.empty((len(flat), 32), np.uint8)
    words = text.view("<u8")
    words[:, 0] = t.prefixes[np.where(fixed, np.minimum(e, 0), 0) + 4]
    text[:, 0] = np.signbit(flat) * ord("-")
    text[:, 6] = lead + ord("0")
    text[:, 7] = point * ord(".")
    text.view("<u4")[:, 2:6] = t.digits4[groups]
    words[:, 1] &= _MASKS[np.minimum(shown - 1, 8)]
    words[:, 2] &= _MASKS[np.maximum(shown - 9, 0)]
    words[:, 3] = t.exponents[e - _E_MIN]
    words[fixed, 3] = 0
    # Fixed notation with e >= 1: digits 1..e move left over the point slot,
    # and the point follows them.
    wide = np.flatnonzero(fixed & (e >= 1))
    for k in set(e[wide].tolist()):
        rows = wide[e[wide] == k]
        text[rows, 7 : 7 + k] = text[rows, 8 : 8 + k]
        text[rows, 7 + k] = np.where(kept[rows] > k + 1, ord("."), 0)
    for i in np.flatnonzero(~proved):
        s = format(float(flat[i]), ".17g").encode()
        text[i] = 0
        text[i, : len(s)] = np.frombuffer(s, np.uint8)
    # Bytes 29..31 are always NUL, and bytes 24..28 hold only an exponent.
    width = 24 if fixed.all() else 29
    return text[:, :width].reshape(*v.shape, width)


def _csv_lines(*columns: np.ndarray) -> bytearray:
    """CRLF lines of comma-joined number text, NUL padding dropped.

    Each column is a ``_number_text`` array; the columns broadcast to one
    shape and each index of it is one line, in C order.
    """
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    width = sum(c.shape[-1] + 1 for c in columns) + 1
    raw = bytearray(math.prod(shape) * width)
    buf = np.frombuffer(raw, np.uint8).reshape(*shape, width)
    at = 0
    for col in columns:
        buf[..., at : at + col.shape[-1]] = col
        at += col.shape[-1] + 1
        buf[..., at - 1] = ord(",")
    buf[..., at - 1 :] = (ord("\r"), ord("\n"))
    return raw.translate(None, b"\0")
