"""The ``%.17g`` text of float64 arrays, and CSV lines built from it.

``_number_text`` formats whole arrays as ``format(v, ".17g")`` would,
``_packed`` formats a short axis without NUL gaps, and ``_csv_lines``
joins columns of text into CRLF lines (docs/conventions.md, Number text).
Only the CSV writers of ``io`` use them, and they import this module when
they run.
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
    powers: np.ndarray  # per e - _E_MIN: hi, hi's Veltkamp halves and lo of 10^(16-e)
    digits4: np.ndarray  # "<u4" per 0..9999: its four ASCII digits in text order
    last: np.ndarray  # digits4 with the group's trailing zeros NUL
    zeros4: np.ndarray  # trailing zeros of each four-digit group, 4 for 0
    prefixes: np.ndarray  # "<u8" per e = -4 .. 0: NUL, then "0.000" .. "0." or nothing
    exponents: np.ndarray  # "<u8" per e - _E_MIN: "e+XX" or "e-XXX", NUL padded; 0 if fixed


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


def _fixed(e: np.ndarray) -> np.ndarray:
    """Whether %.17g writes a value of decimal exponent e in fixed notation."""
    return (e >= -4) & (e < 17)


@functools.cache
def _text_tables() -> _TextTables:
    """Built on first use, so importing the package does not pay for them."""
    e = range(_E_MIN, _E_MAX + 1)
    hi, lo = np.array([_power_of_ten(16 - k) for k in e]).T
    g = np.arange(10000)
    quads = np.stack([g // 10**k - g // 10 ** (k + 1) * 10 for k in (3, 2, 1, 0)], 1)
    quads = (quads + ord("0")).astype(np.uint8)
    zeros4 = sum(g // 10**k * 10**k == g for k in range(1, 5))
    last = quads.copy()
    for k in range(1, 5):
        last[zeros4 >= k, 4 - k] = 0
    return _TextTables(
        np.ascontiguousarray(np.stack([hi, *_split(hi), lo], 1)),
        quads.view("<u4").ravel(),
        last.view("<u4").ravel(),
        zeros4,
        _ascii(["\0" + "0." + "0" * (-k - 1) if k < 0 else "" for k in range(-4, 1)]),
        _ascii(["" if _fixed(k) else f"e{k:+03d}" for k in e]),
    )


def _ascii(texts: list[str]) -> np.ndarray:
    """Each text as one little-endian "<u8" word, its first byte lowest, NUL padded."""
    return np.array([t.encode().ljust(8, b"\0") for t in texts], "S8").view("<u8")


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
    if not fast.all():
        a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    # One gather of the four table rows; each column is a strided view.
    hi, hi_h, hi_l, lo = np.take(_text_tables().powers, e - _E_MIN, axis=0).T
    # Dekker's two-product: top + rest == a·hi exactly, then rest += a·lo.
    top = a * hi
    a_h, a_l = _split(a)
    rest = a_h * hi_h - top
    rest += a_h * hi_l
    rest += a_l * hi_h
    rest += a_l * hi_l
    rest += a * lo
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
# e < 0, the leading digit, the decimal point, sixteen more digits as four
# "<u4" groups, then the exponent from byte 24.  Every byte that is not part
# of the text is NUL.  _MASKS[c] keeps the first c of eight digits.
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
    # digits = lead·10^16 + two halves of eight digits, each split into two
    # groups of four.  Floor division by a constant is fast in numpy;
    # remainders are not.
    high = digits // 10**8
    digits -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    g0, g2 = high // 10**4, digits // 10**4
    high -= g0 * 10**4
    digits -= g2 * 10**4
    g1, g3 = high, digits
    fixed = _fixed(e)
    words = np.empty((len(flat), 4), "<u8")
    text = words.view(np.uint8)
    quarters = words.view("<u4")
    # First every value is written as if its last group were not 0000: all
    # sixteen digits up to that group's trailing zeros are shown, and a
    # point follows the lead digit unless fixed notation moves it.
    words[:, 0] = t.prefixes.take(np.where(fixed, np.minimum(e, 0), 0) + 4)
    text[:, 0] = np.signbit(flat) * ord("-")
    text[:, 6] = lead + ord("0")
    text[:, 7] = ((e == 0) | ~fixed) * ord(".")
    quarters[:, 2] = t.digits4.take(g0)
    quarters[:, 3] = t.digits4.take(g1)
    quarters[:, 4] = t.digits4.take(g2)
    quarters[:, 5] = t.last.take(g3)
    words[:, 3] = t.exponents.take(e - _E_MIN)
    # Then the values ending in 0000 (zeros among them; 1 to 3 % of a
    # Hermite field's values) and fixed notation with e >= 1, which shows
    # every digit left of the point, are redone.
    wide = (e >= 1) & fixed
    redo = np.flatnonzero((g3 == 0) | wide)
    if redo.size:
        # A group's trailing zeros count only when every later group is 0.
        trailing = t.zeros4[g3[redo]]
        for group, full in ((g2, 4), (g1, 8), (g0, 12)):
            trailing += (trailing == full) * t.zeros4[group[redo]]
        kept = 17 - trailing
        wide = wide[redo]
        shown = np.where(wide, np.maximum(kept, e[redo] + 1), kept)
        quarters[redo, 5] = t.digits4[g3[redo]]
        words[redo, 1] &= _MASKS[np.minimum(shown - 1, 8)]
        words[redo, 2] &= _MASKS[np.maximum(shown - 9, 0)]
        text[redo[kept <= 1], 7] = 0
        # Fixed notation with e >= 1: digits 1..e move left over the point
        # slot, and the point follows them.
        for k in set(e[redo[wide]].tolist()):
            at = wide & (e[redo] == k)
            rows = redo[at]
            text[rows, 7 : 7 + k] = text[rows, 8 : 8 + k]
            text[rows, 7 + k] = np.where(kept[at] > k + 1, ord("."), 0)
    for i in np.flatnonzero(~proved):
        s = format(float(flat[i]), ".17g").encode()
        text[i] = 0
        text[i, : len(s)] = np.frombuffer(s, np.uint8)
    # Bytes 29..31 are always NUL, and bytes 24..28 hold only an exponent; a
    # text written by format() has at most 24 bytes.
    width = 24 if e.min(initial=0) >= -4 and e.max(initial=0) < 17 else 29
    return text[:, :width].reshape(*v.shape, width)


def _packed(values: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each value of a short 1-D array, packed.

    Returns uint8 of shape ``(len(values), width)``: each text from its
    row's first byte, NUL padded only to the longest text.  The x and p
    axes of a field are formatted once per file, so ``format`` itself is
    fast enough here.
    """
    texts = np.array([format(v, ".17g").encode() for v in values.tolist()])
    return texts.view(np.uint8).reshape(len(values), -1)


def _csv_lines(*columns: np.ndarray) -> bytearray:
    """CRLF lines of comma-joined number text, NUL padding dropped.

    Each column is a ``_number_text`` or ``_packed`` array; the columns
    broadcast to one shape and each index of it is one line, in C order.
    Each cell is copied as one item of its column's width.
    """
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    width = sum(c.shape[-1] + 1 for c in columns) + 1
    raw = bytearray(math.prod(shape) * width)
    buf = np.frombuffer(raw, np.uint8).reshape(*shape, width)
    at = 0
    for col in columns:
        item = f"V{col.shape[-1]}"
        buf[..., at : at + col.shape[-1]].view(item)[..., 0] = col.view(item)[..., 0]
        at += col.shape[-1] + 1
        buf[..., at - 1] = ord(",")
    buf[..., at - 1 :] = (ord("\r"), ord("\n"))
    return raw.translate(None, b"\0")
