"""Byte-deterministic writers for JSON, CSV and binary PPM artifacts.

Floats are rendered with 17 significant digits (round-trip exact for
doubles) and NaN as NaN, so reruns with identical inputs compare
byte-identical.  Complex values serialize as [re, im] pairs, dataclass
instances as objects of their fields in declaration order, and enum members
as their values.

CSV is written from columns, integer ones as %d and the rest as format_float
(%.17g, NaN as NaN), a block of rows at a time with one write per block.
_float17 formats float cells without a dtoa call where %.17g prints fixed
notation or a zero, that is for 0, -0 (as E = 0 with digits 0) and for
finite |v| in [1e-4, 1e17) whose decimal exponent E
(10**E <= |v| < 10**(E+1) after rounding to 17 digits) is in [-4, 16].  The
17 digits are then D = round_half_even(|v| * 10**k) with k = 16 - E, and
they are exact: 10**k is a double for k <= 22; Dekker's TwoProduct writes
|v| * 10**k as p + e without error; and p >= 1e16 > 2**53 is an even
integer, so rounding p + e half to even is p + rint(e).  An E taken from
log10 that is off by one, or a rounding that carries to 10**17, leaves D
outside [1e16, 1e17); E is corrected by one and D computed again.  A cell
still outside, or whose E leaves [-4, 16], goes through format_float like
every other cell: NaN, inf, and nonzero |v| < 1e-4 or >= 1e17.
"""
from __future__ import annotations

import dataclasses
from enum import Enum

import numpy as np


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    return "%.17g" % float(x)


def fields(obj, *names: str) -> dict:
    """The named fields of a dataclass instance, in the order named; all of
    its fields in declaration order when no name is given."""
    names = names or tuple(f.name for f in dataclasses.fields(obj))
    return {name: getattr(obj, name) for name in names}


def _render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        out.append(f"[{format_float(c.real)}, {format_float(c.imag)}]")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _render(str(k), out)
            out.append(": ")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _render(fields(obj), out)
    elif isinstance(obj, Enum):
        _render(obj.value, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    out: list[str] = []
    _render(obj, out)
    return "".join(out)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_dumps(obj))
        fh.write("\n")


_BLOCK_ROWS = 2048  # one format per whole cloud costs ~4 MB of peak RSS on the saddle benchmark


def write_csv(path, header: list[str], columns) -> None:
    """Equal-length 1-D columns (arrays or sequences) as CSV rows under header."""
    from . import _float17

    columns = [np.asarray(c) for c in columns]
    ints = [c.dtype.kind in "iu" for c in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [c[lo:lo + _BLOCK_ROWS] for c in columns]
            if any(ints):
                cells = [
                    _float17.text_cells(["%d" % x for x in b.tolist()]) if i
                    else _float17.float_cells(b.astype(float))
                    for b, i in zip(block, ints)
                ]
                chars, keep = (np.stack(part, axis=1) for part in zip(*cells))
            else:  # one formatter call for the whole block
                x = np.stack(block, axis=1).astype(float, copy=False)
                chars, keep = _float17.float_cells(x)
            chars[:, -1, -1] = ord("\n")
            fh.write(chars[keep])


_PPM_BLOCK_PIXELS = 1 << 16  # 192 KiB of RGB bytes per write


def write_ppm(path, marked: np.ndarray) -> None:
    """Binary P6 image; marked cells black on white, row 0 at the top, written
    a block of rows at a time so memory beyond marked stays at one block."""
    h, w = marked.shape
    rows = max(1, _PPM_BLOCK_PIXELS // max(w, 1))
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        for lo in range(0, h, rows):
            block = marked[lo:lo + rows]
            rgb = np.full((*block.shape, 3), 255, dtype=np.uint8)
            rgb[block != 0] = 0
            fh.write(rgb)
