"""graph_point by shooting against the survival grid it replaced, and in 50 digits.

graph_point_grid below is the survival-set refinement graph_point ran
before shooting, frozen as the reference: its radius bounds the distance
from its centre to the survivors, so the two results must lie within the
sum of their radii.  The 50-digit replay checks one certificate with
arithmetic that shares nothing with holodyn's step code.  The step _push
methods must give apply's values bit for bit, so a shooting orbit is the
orbit blowup_step replays.
"""
from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mp_oracle
from holodyn import parabolic
from holodyn.core import Linear, QuadraticJet, ShearX, ShearY, Translation
from holodyn.errors import Ambiguous, InvalidParameter, NoConvergence, NoSurvivor
from holodyn.parabolic import (
    HomogeneousQuadratic,
    SectorPoint,
    _clusters,
    _distance_blocks,
    _survivors,
    arg_deviation_from_pi,
    blowup_step,
    cubic_perturbation_family,
    graph_point,
    normal_form_family,
    sector_orbit,
)

EPS = 0.02


def graph_point_grid(
    map_like, x, epsilon=0.02, resolution=1e-6, grid_n=32, horizon0=10, max_levels=40
):
    """The survival-grid graph_point, frozen (radius: half the survivor
    diameter plus a cell diagonal)."""
    x = complex(x)
    if not (abs(x) < epsilon and arg_deviation_from_pi(x) < epsilon):
        raise InvalidParameter("x must satisfy |x| < eps and |arg(x) - pi| < eps")
    r0 = abs(x) / 2.0
    lo_re, hi_re = -r0, r0
    lo_im, hi_im = -r0, r0
    split_seen = 0
    for level in range(max_levels):
        horizon = horizon0 * (2**level)
        survivors = np.empty(0, dtype=complex)
        cell = 0.0
        for refine in range(4):
            n = grid_n * (2**refine)
            re = np.linspace(lo_re, hi_re, n + 1)
            im = np.linspace(lo_im, hi_im, n + 1)
            cre = 0.5 * (re[:-1] + re[1:])
            cim = 0.5 * (im[:-1] + im[1:])
            cell = max(re[1] - re[0], im[1] - im[0])
            uu = (cre[None, :] + 1j * cim[:, None]).ravel()
            uu = uu[2 * np.abs(uu) <= abs(x)]
            if uu.size == 0:
                continue
            alive = _survivors(map_like, x, uu, epsilon, horizon)
            survivors = uu[alive]
            if survivors.size:
                break
        if survivors.size == 0:
            raise NoSurvivor(f"no surviving cells at level {level}", level, horizon)
        diam = max(float(d.max()) for _, d in _distance_blocks(survivors, survivors))
        cell_diag = cell * math.sqrt(2.0)
        center = complex(survivors.mean())
        certified = 0.5 * diam + cell_diag
        if certified < resolution:
            return parabolic.GraphPointResult(
                x=x, u=center, certified_radius=certified, levels=level + 1,
                final_horizon=horizon,
            )
        groups, gap = _clusters(survivors, 3.0 * cell)
        if groups == 1:
            split_seen = 0
        elif gap > 6.0 * cell:
            split_seen += 1
            if split_seen >= 2:
                raise Ambiguous(f"{groups} separated survivor clusters at level {level}")
        margin = 1.5 * cell
        lo_re = max(float(survivors.real.min()) - margin, -r0)
        hi_re = min(float(survivors.real.max()) + margin, r0)
        lo_im = max(float(survivors.imag.min()) - margin, -r0)
        hi_im = min(float(survivors.imag.max()) + margin, r0)
    raise NoConvergence(f"refinement did not reach resolution {resolution:.1e}")


def _agree(map_like, x, resolution):
    shot = graph_point(map_like, x, epsilon=EPS, resolution=resolution)
    grid = graph_point_grid(map_like, x, epsilon=EPS, resolution=resolution)
    assert shot.certified_radius < resolution
    assert abs(shot.u - grid.u) <= shot.certified_radius + grid.certified_radius
    replay = sector_orbit(map_like, SectorPoint(x, shot.u, EPS), shot.final_horizon, floor=0.0)
    assert replay.kind == "undecided"


_x = st.builds(
    lambda r, phi: -r * cmath.exp(1j * phi), st.floats(0.005, 0.018), st.floats(-0.01, 0.01)
)


@settings(max_examples=12, deadline=None)
@given(c=st.sampled_from([0.0, 1.0, 3.0]), x=_x)
def test_shooting_agrees_with_grid_on_normal_forms(c, x):
    _agree(normal_form_family(c), x, 1e-6)


@settings(max_examples=4, deadline=None)
@given(x=_x)
def test_shooting_agrees_with_grid_on_a_shear_chain(x):
    _agree(cubic_perturbation_family(3.0)(0.0), x, 1e-7)


@pytest.mark.parametrize("tilt, x", [(0.02, -0.016), (0.02, -0.019), (0.005, -0.015)])
def test_a_root_whose_orbit_leaves_the_sector_raises_no_survivor(tilt, x):
    # q gains tilt * x^2, so the characteristic direction moves to u ~ tilt / 3
    # and every orbit leaves W_eps once |x_n| < 2|u|: there is no graph point.
    # The grid kept cells for the coarse horizons; the root of u_N then leaves
    # W_eps, which must end the search instead of doubling N without bound.
    # (At tilt 0.005 the survival grid returned a u whose orbit left W_eps
    # five steps after its final horizon.)
    bad = HomogeneousQuadratic((1.0, 2.0, 0.0), (tilt, -2.0, -1.0)).to_map()
    with pytest.raises(NoSurvivor):
        graph_point(bad, x, epsilon=EPS, resolution=1e-6)


# -- a certificate replayed in 50 digits ------------------------------------------


def _blowup_mp(chain, x, u, du):
    """One blow-up step in 50 digits, with du_n/du_0 (x depends on u_0 too)."""
    (x1, y1), (dx1, dy1) = mp_oracle.push(chain, (x, u * x), du)
    u1 = y1 / x1
    return x1, u1, (dx1, (dy1 - u1 * dx1) / x1)


@mp.workdps(mp_oracle.DPS)
def _orbit_mp(chain, x, u, n):
    """(u_n, du_n/du_0, steps in W_eps) of the 50-digit blow-up orbit of (x, u)."""
    x, u = mp_oracle.mpc(x), mp_oracle.mpc(u)
    tangent = (mp.mpc(0), mp.mpc(1))  # (dx, du) with respect to u_0
    inside = 0
    for _ in range(n):
        dx, du = tangent
        x, u, tangent = _blowup_mp(chain, x, u, (dx, du * x + u * dx))
        if abs(x) < EPS and abs(mp.arg(-x)) < EPS and 2 * abs(u) < abs(x):
            inside += 1
    return u, tangent[1], inside


def test_certified_radius_holds_in_50_digits():
    chain = cubic_perturbation_family(3.0)(0.0)
    gp = graph_point(chain, -0.01, epsilon=EPS, resolution=1e-8)
    n = gp.final_horizon
    with mp.workdps(mp_oracle.DPS):
        un, dun, inside = _orbit_mp(chain, gp.x, gp.u, n)
        assert inside == n  # the orbit of u stays in W_eps for final_horizon steps
        root = mp_oracle.mpc(gp.u)
        for _ in range(6):  # Newton on u_n in 50 digits
            step = un / dun
            root -= step
            if abs(step) < mp.mpf(10) ** -25:
                break
            un, dun, _ = _orbit_mp(chain, gp.x, root, n)
        assert abs(step) < mp.mpf(10) ** -25
        assert abs(root - gp.u) < gp.certified_radius


# -- step _push and the shooting orbit ----------------------------------------------


_cx = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0j, complex(-1.0, 0.0)]),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
_coeffs = st.lists(_cx, min_size=1, max_size=5).map(tuple)


def _linear(a, b, c, d):
    try:
        return Linear(a, b, c, d)
    except ValueError:  # singular
        return None


_steps = st.one_of(
    _coeffs.map(ShearX),
    _coeffs.map(ShearY),
    st.tuples(_cx, _cx, _cx, _cx).map(lambda t: _linear(*t)).filter(bool),
    st.tuples(_cx, _cx).map(lambda t: Translation(*t)),
    st.tuples(st.tuples(_cx, _cx, _cx), st.tuples(_cx, _cx, _cx)).map(lambda t: QuadraticJet(*t)),
)
_z = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(step=_steps, x=_z, y=_z, dx=_z, dy=_z)
def test_push_gives_apply_values_and_jacobian_tangent(step, x, y, dx, dy):
    x1, y1, dx1, dy1 = step._push(x, y, dx, dy)
    assert np.array([x1, y1]).tobytes() == np.array(step.apply(x, y), dtype=complex).tobytes()
    a, b, c, d = step.jacobian(x, y)
    scale = 1 + max(abs(a), abs(b), abs(c), abs(d)) * (abs(dx) + abs(dy))
    assert abs(dx1 - (a * dx + b * dy)) <= 1e-13 * scale
    assert abs(dy1 - (c * dx + d * dy)) <= 1e-13 * scale


@pytest.mark.parametrize(
    "map_like, x, u",
    [
        (cubic_perturbation_family(3.0)(0.0), -0.01, 0.0016 + 2e-5j),
        (cubic_perturbation_family(0.0)(1e-2), -0.014 + 1e-4j, 0.004j),
        (normal_form_family(1.0), -0.01, 1e-4 - 1e-4j),
    ],
)
def test_shoot_replays_blowup_step_bit_for_bit(map_like, x, u):
    xn, un, dun, stayed = parabolic._shoot(map_like.steps, complex(x), complex(u), 300, EPS)
    pt = SectorPoint(complex(x), complex(u), EPS)
    for _ in range(300):
        pt = blowup_step(map_like, pt)
    assert (xn, un) == (pt.x, pt.u)
    kind = sector_orbit(map_like, SectorPoint(x, u, EPS), 300, floor=0.0).kind
    assert stayed == (kind == "undecided")
    if isinstance(map_like.steps[0], QuadraticJet):
        return  # the oracle covers AutoChain steps
    un_mp, dun_mp, inside = _orbit_mp(map_like, x, u, 300)
    assert stayed == (inside == 300)
    assert abs(dun - dun_mp) <= 1e-10 * abs(dun_mp)
