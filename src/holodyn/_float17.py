"""CSV cells of float64 arrays with 17 significant digits, without a dtoa call
where %.17g prints fixed notation or a zero; the digit rule and why it is
exact are in the serialize docstring.  serialize.write_csv imports this
module on its first call, so importing holodyn builds none of its tables.
"""
from __future__ import annotations

import numpy as np

from .serialize import format_float

# A cell is laid out in _WIDTH byte slots and printed where its mask is True:
#   0        "-" before an integer part
#   1-17     the 17 digits, for the integer part
#   18-23    "-0.000": sign, units and leading zeros of a number below 1,
#            and the point after the units
#   24-40    the 17 digits again, for the fractional part
#   41       the separator that follows the cell
# Which slots print depends on the sign, E and the last nonzero digit alone.
_WIDTH = 42
_INT, _POINT, _FRAC = 1, 20, 24  # slots of the first integer digit, point, first fraction digit


def _keep_patterns() -> np.ndarray:
    """The slot mask of each (sign, E + 4, last nonzero digit), a _WIDTH-byte
    void item."""
    neg, e, last = (a.reshape(-1, 1) for a in np.mgrid[0:2, -4:17, 0:17])
    digit = np.arange(17)
    keep = np.zeros((neg.shape[0], _WIDTH), dtype=bool)
    keep[:, 0:1] = (neg == 1) & (e >= 0)
    keep[:, _INT:_INT + 17] = digit <= e
    keep[:, _POINT - 2:_POINT - 1] = (neg == 1) & (e < 0)
    keep[:, _POINT - 1:_POINT] = e < 0
    keep[:, _POINT:_POINT + 1] = (e < 0) | (last > e)
    keep[:, _POINT + 1:_FRAC] = np.arange(3) >= e + 4  # -E - 1 zeros, next to the digits
    keep[:, _FRAC:_FRAC + 17] = (digit > e) & (digit <= last)
    keep[:, -1] = True
    return keep.view(f"V{_WIDTH}")[:, 0]


_KEEP = _keep_patterns()
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: the digits of g
_GROUPS = np.ascontiguousarray(_DIGITS + ord("0")).view(np.uint32)[:, 0]  # as one ASCII word
# place (0-3) of the last nonzero digit of a 4-digit group; -17 puts a zero group below any
_LAST_NONZERO = np.where(_DIGITS != 0, np.arange(4, dtype=np.int8), -17).max(axis=1)
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round_half_even(a * 10**(16 - e)) as int64, for a * 10**(16 - e) >= 2**53."""
    k = np.clip(16 - e, 0, 22)
    b, bh, bl = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    ah, al = _split(a)
    p = a * b
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # TwoProduct: a * b == p + err
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _divmod(x: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    q = x // c  # numpy floor-divides by a scalar without a division per element; % does not
    return q, x - q * c


def text_cells(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the given text, laid out as float_cells lays out its own."""
    text = np.array(cells, dtype=f"S{_WIDTH - 1}").view(np.uint8).reshape(-1, _WIDTH - 1)
    chars = np.zeros((len(cells), _WIDTH), dtype=np.uint8)
    chars[:, :-1] = text
    chars[:, -1] = ord(",")
    return chars, chars != 0


def float_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """format_float(x) + "," for each x of the float64 array v, as (chars, keep)
    of shape v.shape + (_WIDTH,): a cell's text is its chars where keep is True."""
    shape, v = v.shape + (_WIDTH,), v.ravel()  # 1-D: no inner loop over a short last axis
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    d = _digits(a, e)
    off = (d < 10**16) | (d >= 10**17)
    if off.any():
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _digits(a[off], e[off])
        fast[off] &= (e[off] >= -4) & (e[off] <= 16) & (d[off] >= 10**16) & (d[off] < 10**17)
    zero = np.flatnonzero(v == 0)  # the digits of 1.0, E = 0, set to 0: "0" or "-0"
    d[zero], fast[zero] = 0, True
    top, low = _divmod(d, 10**8)
    lead, top = _divmod(top, 10**8)
    groups = (*_divmod(top, 10**4), *_divmod(low, 10**4))
    chars = np.empty((v.shape[0], _WIDTH), dtype=np.uint8)
    chars[:, _INT] = chars[:, _FRAC] = lead + ord("0")
    whole = chars[:, _INT + 1:_INT + 17].view(np.uint32)
    frac = chars[:, _FRAC + 1:_FRAC + 17].view(np.uint32)
    for i, g in enumerate(groups):
        whole[:, i] = frac[:, i] = _GROUPS[g]
    chars[:, 0] = chars[:, _POINT - 2] = ord("-")
    chars[:, _POINT - 1:_FRAC - 1].view(np.uint32)[:, 0] = np.frombuffer(b"0.00", np.uint32)[0]
    chars[:, _FRAC - 1] = ord("0")
    chars[:, -1] = ord(",")
    last = np.maximum(0, _LAST_NONZERO[groups[0]] + 1)
    for i, g in enumerate(groups[1:], 1):
        last = np.maximum(last, _LAST_NONZERO[g] + (1 + 4 * i))
    keep = _KEEP[(np.signbit(v) * 21 + e + 4) * 17 + last].view(np.bool_).reshape(chars.shape)
    slow = np.flatnonzero(~fast)
    if slow.size:
        chars[slow], keep[slow] = text_cells([format_float(x) for x in v[slow].tolist()])
    return chars.reshape(shape), keep.reshape(shape)
