"""Byte-deterministic writers for JSON, CSV and binary PPM artifacts.

Floats are rendered with 17 significant digits (round-trip exact for
doubles) and NaN as NaN, so reruns with identical inputs compare
byte-identical.  Complex values serialize as [re, im] pairs, dataclass
instances as objects of their fields in declaration order, and enum members
as their values.  CSV is written from columns (integer ones as %d, the rest
as %.17g) a block of rows at a time: one % format and one write per block,
no Python code per cell.
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
    columns = [np.asarray(c) for c in columns]
    n, k = len(columns[0]), len(columns)
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            m = min(_BLOCK_ROWS, n - lo)
            cells = [None] * (k * m)  # row-major: column j fills every k-th cell
            for j, c in enumerate(columns):
                cells[j::k] = c[lo:lo + m].tolist()
            fh.write(((row * m) % tuple(cells)).replace("nan", "NaN"))  # %g's NaN, its only "nan"


def write_ppm(path, marked: np.ndarray) -> None:
    """Binary P6 image; marked cells black on white, row 0 at the top."""
    h, w = marked.shape
    body = np.where(marked[:, :, None], 0, 255).astype(np.uint8)
    body = np.repeat(body, 3, axis=2)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(body.tobytes())
