"""Byte oracles for serialize.write_csv and serialize.write_ppm.

The writer renders columns a block of rows at a time.  Its files must equal,
byte for byte, those of the per-cell formatter it replaced, which is kept
here as the reference.  Its float formatter is checked cell by cell against
'%.17g' on its own.  write_ppm's body must equal that of the whole-image
writer it replaced, kept here too.
"""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn import _float17, serialize
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
    """An integer row counter, floats spread over the whole exponent range,
    and a column of signed zeros among fixed-notation floats."""
    rng = np.random.default_rng(seed)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    zeros = rng.choice([0.0, -0.0, 0.5, -1.25], n)
    return [np.arange(n), floats, rng.integers(I64.min, I64.max, n), rng.random(n), zeros]


MIXED = ["n", "a", "k", "b", "z"]


def test_mixed_int_and_float_columns(tmp_path):
    got, want = _both(tmp_path, MIXED, _mixed(500))
    assert got == want
    assert b",0\n" in got and b",-0\n" in got


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
    got, want = _both(tmp_path, MIXED, columns)
    assert got == want
    assert got.count(b"\n") == n + 1


def test_complex_points_viewed_as_four_columns(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
    pts[7, 1] = complex(math.nan, -0.0)
    pts[::3, 0] = pts[::3, 0].real + 0j  # points on the real rays, as a pullback cloud has
    pts[1::3, 1] = complex(-0.0, -0.0)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    header = ["re_x", "im_x", "re_y", "im_y"]
    write_csv(got, header, pts.view(np.float64).T)
    write_csv_per_cell(want, header, [(p[0].real, p[0].imag, p[1].real, p[1].imag) for p in pts])
    assert got.read_bytes() == want.read_bytes()


# -- the float formatter against '%.17g' ---------------------------------------


def _formatted(values) -> list[bytes]:
    chars, keep = _float17.float_cells(np.array(values, dtype=np.float64))
    return [c[k].tobytes() for c, k in zip(chars, keep)]


def _percent_g(values) -> list[bytes]:
    """'%.17g' % x and its separator, NaN spelled as format_float spells it."""
    return [(format_float(x) + ",").encode("ascii") for x in values]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(width=64) | st.floats(1e-4, 1e17) | st.floats(-1e17, -1e-4)
        | st.sampled_from([0.0, -0.0]),
        min_size=1, max_size=40,
    )
)
def test_formatter_matches_percent_g(values):
    assert _formatted(values) == _percent_g(values)


def test_formatter_prints_signed_zeros_without_dtoa(monkeypatch):
    monkeypatch.setattr(_float17, "format_float", lambda x: pytest.fail(f"dtoa call for {x!r}"))
    assert _formatted([0.0, -0.0, 1.5, -0.0, -2.0]) == [b"0,", b"-0,", b"1.5,", b"-0,", b"-2,"]


def test_formatter_near_powers_of_ten():
    """log10 lands on the wrong side of 10**j, and rounding carries to 10**j."""
    values = [
        sign * float(f"1e{j}") * (1 + eps)
        for j in range(-6, 19) for eps in (-(2.0**-52), 0.0, 2.0**-52) for sign in (1, -1)
    ]
    values += [math.nextafter(float(f"1e{j}"), 0.0) for j in range(-6, 19)]
    assert _formatted(values) == _percent_g(values)


def _ties() -> list[float]:
    """Doubles whose 17-digit rounding is an exact tie: for odd m, m / 2**(17 - E)
    times 10**(16 - E) is an odd number of halves, and a double while m < 2**53.
    E stops at 15, above which no such double exists."""
    out = []
    for e in range(-4, 16):
        scale = 2 ** (17 - e)
        lo = math.ceil(Fraction(10) ** e * scale) | 1
        hi = min(math.floor(Fraction(10) ** (e + 1) * scale), 2**53) - 1 | 1
        for m in (*range(lo, lo + 20, 2), *range(hi - 20, hi + 1, 2)):
            x = m / scale
            assert Fraction(x) == Fraction(m, scale)  # exact
            assert Fraction(x) * 10 ** (16 - e) % 1 == Fraction(1, 2)
            out.append(x)
    return out


def test_formatter_rounds_ties_to_even():
    assert _formatted([4000000000000001 / 4]) == [b"1000000000000000.2,"]
    ties = _ties()
    assert _formatted(ties) == _percent_g(ties)


def _ppm_whole_image(marked: np.ndarray) -> bytes:
    """The P6 file write_ppm wrote with whole-image int64 and uint8 temporaries."""
    h, w = marked.shape
    body = np.repeat(np.where(marked[:, :, None], 0, 255).astype(np.uint8), 3, axis=2)
    return f"P6\n{w} {h}\n255\n".encode("ascii") + body.tobytes()


def test_ppm_body_equals_the_whole_image_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize, "_PPM_BLOCK_PIXELS", 12)  # 4 rows of width 3
    g = np.random.default_rng(5)
    for h, w in [(0, 5), (1, 1), (7, 3), (8, 3), (9, 3), (3, 0)]:
        marked = g.random((h, w)) < 0.5
        serialize.write_ppm(tmp_path / "m.ppm", marked)
        assert (tmp_path / "m.ppm").read_bytes() == _ppm_whole_image(marked), (h, w)


def test_ppm_memory_stays_below_a_byte_per_pixel(tmp_path):
    # the whole-image writer peaked at 9 bytes per pixel (36 MB here)
    marked = np.zeros((2000, 2000), dtype=bool)
    marked[::7, ::3] = True
    tracemalloc.start()
    try:
        serialize.write_ppm(tmp_path / "big.ppm", marked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < marked.size, f"peak {peak / 2**20:.2f} MB"
    assert (tmp_path / "big.ppm").read_bytes() == _ppm_whole_image(marked)
