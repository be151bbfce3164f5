"""Reproducible sampling built on a counter-based generator.

All random probes draw their samples as one deterministic batch from a
Philox stream keyed by the seed, so sample i is a pure function of
(seed, i) and results do not depend on how work is later chunked or
parallelised.
"""
from __future__ import annotations

import numpy as np


def make_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


def ball4_points(seed: int, n: int, radius: float, center=(0j, 0j)):
    """Uniform samples in the Euclidean 4-ball of C^2 around center.

    Returns two complex arrays (xs, ys).
    """
    g = make_generator(seed)
    v = g.standard_normal((n, 4))
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0] = 1.0
    r = radius * g.random(n) ** 0.25
    v = v * (r / norms)[:, None]
    xs = v[:, 0] + 1j * v[:, 1] + center[0]
    ys = v[:, 2] + 1j * v[:, 3] + center[1]
    return xs, ys

