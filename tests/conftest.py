from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from holodyn.core import (
    AutoChain,
    Linear,
    QuadraticJet,
    ShearX,
    ShearY,
    Translation,
    find_fixed_point,
    henon_chain,
)
from holodyn.manifold import _fit_degree, _lsq_fit, local_stable_graph
from holodyn.parabolic import blowup_step, in_sector
from holodyn.poly import polyder
from holodyn.rng import make_generator


@pytest.fixture(scope="session")
def henon075():
    return henon_chain(0.75)


@pytest.fixture(scope="session")
def henon_saddle(henon075):
    return find_fixed_point(henon075, (1.4, 1.4))


@pytest.fixture(scope="session")
def henon_graph(henon075, henon_saddle):
    return local_stable_graph(henon075, henon_saddle, 0.1, mesh=(10, 16), tol=1e-9)


def quadratic_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Independent quadratic-formula oracle for a z^2 + b z + c = 0."""
    import cmath

    disc = cmath.sqrt(b * b - 4 * a * c)
    return (-b + disc) / (2 * a), (-b - disc) / (2 * a)


def direction_residual(d, p2) -> float:
    """|P2(v) - lambda v| for a characteristic direction d with vector v."""
    vx, vy = complex(d.direction[0]), complex(d.direction[1])
    px, qy = p2.eval(vx, vy)
    return math.hypot(abs(px - d.lam * vx), abs(qy - d.lam * vy))


def finite_difference_jacobian(chain, z, h=1e-5):
    """Central finite differences, the independent check on exact Jacobians."""
    out = np.zeros((2, 2), dtype=complex)
    for k, e in enumerate([(1.0, 0.0), (0.0, 1.0)]):
        zp = (z[0] + h * e[0], z[1] + h * e[1])
        zm = (z[0] - h * e[0], z[1] - h * e[1])
        fp = chain.apply(*zp)
        fm = chain.apply(*zm)
        out[0, k] = (fp[0] - fm[0]) / (2 * h)
        out[1, k] = (fp[1] - fm[1]) / (2 * h)
    return out


# -- the elementary steps' literal formulas ----------------------------------------
#
# The steps compile their maps from emitted source lines that leave out exact
# no-op arithmetic; these are the formulas written out in full, sharing no code
# with the steps, as the independent oracle for apply and the tangent push
# (so for differential and differential_batch, which push the unit tangents).


def polyval_ref(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _shear_x_ref(s):
    return (
        lambda x, y: (x + polyval_ref(s.coeffs, y), y),
        lambda x, y: (1.0, polyval_ref(polyder(s.coeffs), y), 0.0, 1.0),
    )


def _shear_y_ref(s):
    return (
        lambda x, y: (x, y + polyval_ref(s.coeffs, x)),
        lambda x, y: (1.0, 0.0, polyval_ref(polyder(s.coeffs), x), 1.0),
    )


def _linear_ref(s):
    return (
        lambda x, y: (s.a * x + s.b * y, s.c * x + s.d * y),
        lambda x, y: (s.a, s.b, s.c, s.d),
    )


def _translation_ref(s):
    return (
        lambda x, y: (x + s.bx, y + s.by),
        lambda x, y: (1.0, 0.0, 0.0, 1.0),
    )


def _jet_ref(s):
    pa, pxy, pc = s.p
    qa, qxy, qc = s.q
    return (
        lambda x, y: (
            x + pa * x * x + pxy * x * y + pc * y * y,
            y + qa * x * x + qxy * x * y + qc * y * y,
        ),
        lambda x, y: (
            1.0 + 2 * pa * x + pxy * y,
            pxy * x + 2 * pc * y,
            2 * qa * x + qxy * y,
            1.0 + qxy * x + 2 * qc * y,
        ),
    )


_REFS = {
    ShearX: _shear_x_ref,
    ShearY: _shear_y_ref,
    Linear: _linear_ref,
    Translation: _translation_ref,
    QuadraticJet: _jet_ref,
}


def literal_formulas(step):
    """(apply, Jacobian) of step as its literal formulas."""
    return _REFS[type(step)](step)


# -- constructions only the tests use ------------------------------------------


def identity_chain() -> AutoChain:
    return AutoChain(())


def bidisc_points(seed: int, n: int, radius: float):
    """Independent uniform samples in the bidisc {|x|<=r} x {|y|<=r}."""
    g = make_generator(seed)
    rho = radius * np.sqrt(g.random((n, 2)))
    phi = 2.0 * np.pi * g.random((n, 2))
    z = rho * np.exp(1j * phi)
    return z[:, 0], z[:, 1]


def total_degree(p) -> int:
    """Total degree of a Poly2 (0 for the zero polynomial)."""
    return max((i + j for i, j in p.terms), default=0)


def sample_points(graph) -> np.ndarray:
    """The mesh points of a LocalGraph in ambient coordinates, one row each."""
    return np.stack(graph.to_ambient(graph.s_grid, graph.t_values), axis=1)


def with_t_offset(graph, offset: complex):
    """The LocalGraph with every t moved by offset, refitted."""
    t = graph.t_values + offset
    fit = _lsq_fit(graph.s_grid, t, _fit_degree(graph.mesh[0]))
    return dataclasses.replace(graph, t_values=t, fit_coeffs=fit)


def expansion_pair_margin(map_like, p1, p2) -> float | None:
    """|u1 - u1~| - max(|u - u~|, 2|x1 - x1~|) for an admissible pair.

    None when the pair is skipped: hypothesis 2|x - x~| < |u - u~|
    vacuous or violated, or either point outside the sector.
    """
    if not (in_sector(p1) and in_sector(p2)):
        return None
    du = abs(p1.u - p2.u)
    if 2 * abs(p1.x - p2.x) >= du:
        return None
    q1 = blowup_step(map_like, p1)
    q2 = blowup_step(map_like, p2)
    return abs(q1.u - q2.u) - max(du, 2 * abs(q1.x - q2.x))
