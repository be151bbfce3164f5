"""50-digit reference for AutoChain: forward, inverse and differential (mpmath).

Doubles convert to mpmath exactly, so each function gives the exact
formulas of the steps at the given double inputs, to 50 significant digits,
with arithmetic independent of holodyn's step code.
"""
from __future__ import annotations

import functools

import mpmath as mp

from holodyn.core import Linear, ShearX, ShearY, Translation

DPS = 50


def mpc(z) -> mp.mpc:
    return z if isinstance(z, mp.mpc) else mp.mpc(complex(z).real, complex(z).imag)


ONE, ZERO = mp.mpc(1), mp.mpc(0)


@functools.cache
@mp.workdps(DPS)
def _coeffs(s):
    """The step's coefficients as exact mpc (for shears with the derivative's),
    converted once per step so that long orbits stay fast."""
    if isinstance(s, (ShearX, ShearY)):
        c = [mpc(v) for v in s.coeffs]
        return c, [k * v for k, v in enumerate(c)][1:]
    if isinstance(s, Translation):
        return mpc(s.bx), mpc(s.by)
    if isinstance(s, Linear):
        return tuple(mpc(v) for v in (s.a, s.b, s.c, s.d))
    raise TypeError(f"no oracle for {s!r}")


def _poly(coeffs, z):
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _step(s, x, y, inverse=False):
    """The image of (x, y) under the step (or its inverse), and the step's
    Jacobian (a, b, c, d) at (x, y)."""
    k = _coeffs(s)
    if isinstance(s, (ShearX, ShearY)):
        w = y if isinstance(s, ShearX) else x
        p, dp = _poly(k[0], w), _poly(k[1], w)
        p = -p if inverse else p
        if isinstance(s, ShearX):
            return (x + p, y), (ONE, dp, ZERO, ONE)
        return (x, y + p), (ONE, ZERO, dp, ONE)
    if isinstance(s, Translation):
        bx, by = (-k[0], -k[1]) if inverse else k
        return (x + bx, y + by), (ONE, ZERO, ZERO, ONE)
    a, b, c, d = k
    if inverse:
        det = a * d - b * c
        return ((d * x - b * y) / det, (a * y - c * x) / det), (a, b, c, d)
    return (a * x + b * y, c * x + d * y), (a, b, c, d)


@mp.workdps(DPS)
def forward(chain, z):
    """The chain's image of z."""
    return push(chain, z, (0, 0))[0]


@mp.workdps(DPS)
def inverse(chain, z):
    """The inverse chain's image of z (inverse steps in reverse order)."""
    x, y = mpc(z[0]), mpc(z[1])
    for s in reversed(chain.steps):
        (x, y), _ = _step(s, x, y, inverse=True)
    return x, y


@mp.workdps(DPS)
def push(chain, z, dz):
    """(image of z, image of the tangent dz under the differential at z)."""
    (x, y), (dx, dy) = (mpc(v) for v in z), (mpc(v) for v in dz)
    for s in chain.steps:
        (x, y), (a, b, c, d) = _step(s, x, y)
        dx, dy = a * dx + b * dy, c * dx + d * dy
    return (x, y), (dx, dy)


def differential(chain, z):
    """The Jacobian ((j11, j12), (j21, j22)) at z."""
    (j11, j21), (j12, j22) = (push(chain, z, e)[1] for e in ((1, 0), (0, 1)))
    return (j11, j12), (j21, j22)
