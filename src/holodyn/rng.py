"""Reproducible sampling built on a counter-based generator.

All random probes draw their samples from a Philox stream keyed by the seed,
block by block in stream order, so sample i is a pure function of (seed, i)
and results do not depend on how work is later chunked or parallelised.
The generator is counter-based, so a stream drawn in parts gives the bytes
of one draw.
"""
from __future__ import annotations

import numpy as np

from .core import _BLOCK


def make_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


def ball4_points(seed: int, n: int, radius: float, center=(0j, 0j)):
    """Uniform samples in the Euclidean 4-ball of C^2 around center.

    Returns two complex arrays (xs, ys).  The stream gives the 4n normals of
    the directions, row by row, then the n uniforms of the radii; both are
    drawn one block of _BLOCK rows at a time into the float views of xs and
    ys, which are scaled and shifted in place, so no temporary is larger
    than a block.
    """
    g = make_generator(seed)
    xs, ys = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    xf, yf = xs.view(np.float64).reshape(n, 2), ys.view(np.float64).reshape(n, 2)
    normals = np.empty((min(n, _BLOCK), 4))
    blocks = [slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    for b in blocks:
        v = g.standard_normal(out=normals[: b.stop - b.start])
        xf[b], yf[b] = v[:, :2], v[:, 2:]
    cx, cy = complex(center[0]), complex(center[1])
    for b in blocks:
        re_x, im_x, re_y, im_y = xf[b, 0], xf[b, 1], yf[b, 0], yf[b, 1]
        # np.linalg.norm(v, axis=1) bit for bit: the squares summed in column order
        norms = np.sqrt(((re_x * re_x + im_x * im_x) + re_y * re_y) + im_y * im_y)
        norms[norms == 0] = 1.0
        scale = radius * g.random(b.stop - b.start) ** 0.25 / norms
        xf[b] *= scale[:, None]
        yf[b] *= scale[:, None]
        # v0 + 1j * v1 + c with its signed zeros: 1j * v1 is (0 * v1 - 0, 0 + v1)
        for re, im, c in ((re_x, im_x, cx), (re_y, im_y, cy)):
            re += im * 0.0
            re += c.real
            im += 0.0
            im += c.imag
    return xs, ys
