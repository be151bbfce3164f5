"""Byte oracle for serialize.write_csv.

The writer renders columns a block of rows at a time.  Its files must equal,
byte for byte, those of the per-cell formatter it replaced, which is kept
here as the reference.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from holodyn import serialize
from holodyn.serialize import format_float, write_csv

BLOCK = serialize._BLOCK_ROWS
I64 = np.iinfo(np.int64)


def write_csv_per_cell(path, header, rows) -> None:
    """The row-at-a-time writer: one format_float or str(int) call per cell."""
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


def _both(tmp_path, header, columns) -> tuple[bytes, bytes]:
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, header, columns)
    write_csv_per_cell(want, header, zip(*columns))
    return got.read_bytes(), want.read_bytes()


def _mixed(n: int, seed: int = 0) -> list[np.ndarray]:
    """An integer row counter and floats spread over the whole exponent range."""
    rng = np.random.default_rng(seed)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return [np.arange(n), floats, rng.integers(I64.min, I64.max, n), rng.random(n)]


def test_mixed_int_and_float_columns(tmp_path):
    got, want = _both(tmp_path, ["n", "a", "k", "b"], _mixed(500))
    assert got == want


SPECIAL = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3,
]


def test_special_floats_and_int64_extremes(tmp_path):
    n = len(SPECIAL)
    ints = np.array([I64.min, I64.max, 0, -1, 1] * n, dtype=np.int64)[:n]
    floats = np.array(SPECIAL)
    got, want = _both(tmp_path, ["k", "v", "w"], [ints, floats, floats[::-1]])
    assert got == want
    assert b"NaN" in got and b"nan" not in got


def test_uint64_extreme(tmp_path):
    got, want = _both(tmp_path, ["u"], [np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64)])
    assert got == want


def test_zero_rows(tmp_path):
    got, want = _both(tmp_path, ["n", "x"], [np.arange(0), np.empty(0)])
    assert got == want == b"n,x\n"


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_rows_across_block_boundaries(tmp_path, n):
    columns = _mixed(n, seed=n)
    columns[1][BLOCK - 2:BLOCK + 2] = math.nan  # a NaN on each side of the boundary
    got, want = _both(tmp_path, ["n", "a", "k", "b"], columns)
    assert got == want
    assert got.count(b"\n") == n + 1


def test_complex_points_viewed_as_four_columns(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
    pts[7, 1] = complex(math.nan, -0.0)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    header = ["re_x", "im_x", "re_y", "im_y"]
    write_csv(got, header, pts.view(np.float64).T)
    write_csv_per_cell(want, header, [(p[0].real, p[0].imag, p[1].real, p[1].imag) for p in pts])
    assert got.read_bytes() == want.read_bytes()
