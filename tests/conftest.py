from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from holodyn.core import (
    AutoChain,
    Linear,
    QuadraticJet,
    Shear,
    Translation,
    find_fixed_point,
    henon_chain,
)
from holodyn.manifold import local_stable_graph, polar_mesh
from holodyn.errors import BlowupSingular
from holodyn.parabolic import SectorPoint, in_sector
from holodyn.poly import polyval
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


def shear_x(coeffs) -> Shear:
    """The shear (x, y) -> (x + p(y), y)."""
    return Shear(tuple(coeffs), (1, 0), (0, 1))


def shear_y(coeffs) -> Shear:
    """The shear (x, y) -> (x, y + q(x))."""
    return Shear(tuple(coeffs), (0, 1), (1, 0))


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


def polyder(coeffs):
    if len(coeffs) <= 1:
        return (0j,)
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


def polyval_ref(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _shear_ref(s):
    (v0, v1), (w0, w1) = s.v, s.w

    def apply(x, y):
        # a constant p is c_0 whatever w.z: the step adds c_0 v
        p = polyval_ref(s.coeffs, w0 * x + w1 * y) if len(s.coeffs) > 1 else s.coeffs[0]
        return x + v0 * p, y + v1 * p

    def jacobian(x, y):
        dp = polyval_ref(polyder(s.coeffs), w0 * x + w1 * y)
        return 1.0 + v0 * dp * w0, v0 * dp * w1, v1 * dp * w0, 1.0 + v1 * dp * w1

    return apply, jacobian


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
    Shear: _shear_ref,
    Linear: _linear_ref,
    Translation: _translation_ref,
    QuadraticJet: _jet_ref,
}


def literal_formulas(step):
    """(apply, Jacobian) of step as its literal formulas."""
    return _REFS[type(step)](step)


# -- rounding-error bounds along the orbit the chain reaches -------------------
#
# A step evaluates its formula in complex doubles.  With u = 2^-53 a complex
# product rounds within 2 sqrt(2) u and a sum within sqrt(2) u of its exact
# value, relative to the operands' moduli, so the computed image of a step
# differs from the exact image of the same computed input by at most K u S:
# S sums |term| over the terms the formula adds (for a shear's coordinate
# z_i + v_i (c_0 + c_1 l + ... + c_d l^d) with l = w.z, S = |z_i| + |v_i|
# sum |c_i| |l|^i, Horner's rule included) and K = 8 (d + 2) counts d + 1
# multiply-adds at under 4.3 u each, with twice that to spare.  A shear off
# the axes adds two roundings: the product v_i p, charged 8 u |v_i| sum
# |c_i| |l|^i unless v_i is 1 or -1, and l itself, charged 8 u (|w_0 x| +
# |w_1 y|) unless w is (1, 0) or (0, 1), which reaches p through p', at most
# sum i |c_i| |l|^(i-1) in modulus.  Linear rows a x + b y take K = 8; the inverted
# step's rows (d / det) x + (-b / det) y take K = 16 times
# 1 + (|ad| + |bc|) / |det|, which covers the rounded determinant and the
# rounding of each quotient once.
# Each operation may also lose up to 2^-1075 on the subnormal grid, so every
# bound adds K ETA with ETA = 2^-1074.
#
# An error e in a step's input leaves it as J e, so with the max-row-sum
# norm |J| the errors of one pass add up as F_k = |J_k| F_(k-1) + e_k.  In a
# round trip the inverse pass returns each forward error e_k to level k - 1
# through the inverse Jacobian there:  E_(k-1) = |J_k^-1| (E_k + e_k) + e'_k
# from E_n = 0 down to E_0, with e'_k the inverse step's own rounding.  A
# Jacobian product adds, per step, its own rounding (8 u |M| |J| entrywise),
# the rounding of the entries p'(w), and |p''(w)| F_(k-1) for evaluating them
# on the computed orbit rather than the exact one.  The tangent push gets
# p'(w) of a degree-d shear from the recurrence dp <- dp w + p run alongside
# Horner's rule, so p'(w) = sum_k p_k w^(k-1) over the Horner partial values
# p_k: the term i c_i w^(i-1) reaches it along i paths, each through at most
# i + 1 sums and i - 1 products, which round it within 4.3 i u <= 4.3 d u,
# inside the 8 d u sum i |c_i| |w|^(i-1) charged.  These are first-order
# bounds, so the tests allow a factor 2; every intermediate the chain
# reaches enters S, so a cubic shear that takes |x| = 2 to |y| ~ 10 before
# the inverse subtracts it again is charged for that size, which a bound
# relative to |z| is not.

U = 2.0**-53
ETA = 2.0**-1074


def coeff_terms(coeffs, w):
    return sum(abs(c) * abs(w) ** i for i, c in enumerate(coeffs))


def step_rounding(step, x, y, inverse=False):
    """K u S for one step (inverse: its inverse formula) at the input (x, y)."""
    if isinstance(step, Shear):
        (w0, w1), k = step.w, 8 * (len(step.coeffs) + 1)
        l = w0 * x + w1 * y
        terms, slope = coeff_terms(step.coeffs, l), coeff_terms(polyder(step.coeffs), l)
        bare = 0 in step.w and 1 in step.w  # w.z is x or y, read without rounding
        l_err = 0.0 if bare else 8 * (U * (abs(w0 * x) + abs(w1 * y)) + ETA)
        return max(
            k * (U * (abs(z) + abs(v) * terms) + ETA)
            + abs(v) * slope * l_err
            + (0.0 if v in (1, -1) else 8 * (U * abs(v) * terms + ETA))
            for z, v in zip((x, y), step.v) if v != 0
        )
    if isinstance(step, Translation):
        return 4 * (U * max(abs(x) + abs(step.bx), abs(y) + abs(step.by)) + ETA)
    a, b, c, d = (abs(v) for v in (step.a, step.b, step.c, step.d))
    if not inverse:
        return 8 * (U * max(a * abs(x) + b * abs(y), c * abs(x) + d * abs(y)) + ETA)
    det = abs(step.det())
    rows = max(d * abs(x) + b * abs(y), c * abs(x) + a * abs(y))
    return 16 * (U * rows / det * (1 + (a * d + b * c) / det) + ETA)


def jac_norm(step, x, y, inverse=False):
    """|J| of the step at its input (x, y), or with inverse |J^-1|: the norm of
    the inverse step's Jacobian at the image of (x, y)."""
    a, b, c, d = literal_formulas(step)[1](x, y)
    if inverse:
        a, b, c, d = (v / (a * d - b * c) for v in (d, b, c, a))
    return max(abs(a) + abs(b), abs(c) + abs(d))


def step_orbit(steps, z):
    points = [z]
    for s in steps:
        points.append(s.apply(*points[-1]))
    return points


def forward_bound(steps, z):
    """F_n for the steps at z: the error the computed image may carry."""
    bound = 0.0
    for s, p in zip(steps, step_orbit(steps, z)):
        bound = jac_norm(s, *p) * bound + step_rounding(s, *p)
    return bound


def round_trip_bound(steps, z, inverse_steps):
    """E_0 for the forward steps, then inverse_steps: the functions that undo
    them, last step first."""
    points = step_orbit(steps, z)
    bound, w = 0.0, points[-1]
    for s, p, back in zip(reversed(steps), reversed(points[:-1]), inverse_steps):
        e = step_rounding(s, *p)
        bound = jac_norm(s, *p, inverse=True) * (bound + e) + step_rounding(s, *w, inverse=True)
        w = back(*w)
    return bound


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
    """The LocalGraph with every t moved by offset: gamma_0 shifts by it."""
    coeffs = graph.fit_coeffs.copy()
    coeffs[0] += offset
    return dataclasses.replace(graph, t_values=graph.t_values + offset, fit_coeffs=coeffs)


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full matrix of squared distances between the C^2 clouds a and b."""
    return np.abs(a[:, None, 0] - b[None, :, 0]) ** 2 + np.abs(a[:, None, 1] - b[None, :, 1]) ** 2


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric max-min distance between nonempty clouds in C^2, brute force."""
    return max(
        float(np.sqrt(sq_distances(a, b).min(axis=1).max())),
        float(np.sqrt(sq_distances(b, a).min(axis=1).max())),
    )


def graph_transform(chain, fp, delta, mesh, tol=1e-9):
    """t on polar_mesh(delta, *mesh) as the fixed point of the Newton graph
    transform, an oracle for local_stable_graph sharing none of its method.

    One step replaces the graph by s -> t with t'(s, t) = gamma(s'(s, t)):
    the point over s whose image lies on the current graph, found by
    Newton's method on the whole mesh at once, with gamma the least-squares
    polynomial of degree min(6, n_r - 1) through the current values.
    Starting from t = 0 it contracts at a rate near
    max(|lambda_s|, 1/|lambda_u|) and stops when a step moves t less than tol.
    """
    vs, vu = fp.stable_direction, fp.unstable_direction
    (bx, by), (n_r, n_theta) = fp.location, mesh
    ei = np.linalg.inv(np.array([[vs[0], vu[0]], [vs[1], vu[1]]], dtype=complex))
    s_grid = polar_mesh(delta, n_r, n_theta)
    vand = np.vander(s_grid, min(6, max(1, n_r - 1)) + 1, increasing=True)
    t_vals = np.zeros_like(s_grid)
    for _ in range(80):
        coeffs = np.linalg.lstsq(vand, t_vals, rcond=None)[0]
        t_cur = t_vals.copy()
        for _ in range(16):
            x, y = bx + s_grid * vs[0] + t_cur * vu[0], by + s_grid * vs[1] + t_cur * vu[1]
            j11, j12, j21, j22, fx, fy = chain.differential_batch(x, y)
            s1, t1 = ei @ np.stack([fx - bx, fy - by])
            ds1, dt1 = ei @ np.stack([j11 * vu[0] + j12 * vu[1], j21 * vu[0] + j22 * vu[1]])
            slope = dt1 - polyval(polyder(coeffs), s1) * ds1
            step = (t1 - polyval(coeffs, s1)) / slope
            t_cur = t_cur - step
            if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(t_cur))):
                break
        change = np.max(np.abs(t_cur - t_vals))
        t_vals = t_cur
        if change < tol:
            return t_vals
    raise AssertionError(f"graph transform did not reach tol {tol:.1e}")


def blowup_step(map_like, pt: SectorPoint) -> SectorPoint:
    """One step of the full map in blow-up coordinates through the chain's
    apply, one Python call per step: the frozen reference that the compiled
    blow-up loops of holodyn.parabolic must replay bit for bit."""
    x = complex(pt.x)
    if x == 0:
        raise BlowupSingular("blow-up chart needs x != 0")
    y = pt.u * x
    fx, fy = map_like.apply(x, y)
    if abs(fx) <= 1e-300:
        raise BlowupSingular(f"image x-coordinate vanished (x1 = {fx!r})")
    return SectorPoint(fx, fy / fx, pt.epsilon)


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
