"""Byte-deterministic writers for JSON, CSV and binary PPM artifacts.

Floats are rendered with 17 significant digits (round-trip exact for
doubles) so reruns with identical inputs compare byte-identical.  Complex
values serialize as [re, im] pairs, dataclass instances as objects of their
fields in declaration order, and enum members as their values.
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


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (float, np.floating)):
                    cells.append(format_float(float(v)))
                elif isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


def write_ppm(path, marked: np.ndarray) -> None:
    """Binary P6 image; marked cells black on white, row 0 at the top."""
    h, w = marked.shape
    body = np.where(marked[:, :, None], 0, 255).astype(np.uint8)
    body = np.repeat(body, 3, axis=2)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(body.tobytes())
