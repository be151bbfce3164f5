"""graph_point by shooting against the survival grid it replaced, and in 50 digits.

graph_point_grid below is the survival-set refinement graph_point ran
before shooting, frozen as the reference: its radius bounds the distance
from its centre to the survivors, so the two results must lie within the
sum of their radii.  The 50-digit replay checks one certificate with
arithmetic that shares nothing with holodyn's step code.  A chain's
compiled tangent push must give apply's values bit for bit, and the
literal formulas' values, so a shooting orbit is the orbit blowup_step
replays.  A chain's compiled apply must be its steps' apply composed, bit
for bit.

ring_winds_once_blowup below is the ring certificate as it ran in blow-up
coordinates, one blow-up step per step, frozen as the reference for the
ring that now runs the map on (x, y) and divides once, at step N: the two
must give the same verdict.  A 50-digit replay checks one ring's winding
and its samples' exit from W_eps.

Each blow-up orbit loop a chain compiles (the shot, sector_orbit's orbit,
the ring and the survival step) must give bit for bit what the per-step
loop it replaced gives: shoot_ref and sector_orbit_ref below, conftest's
blowup_step, apply iterated, and blowup_batch with _sector_mask.
"""
from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mp_oracle
from conftest import blowup_step, literal_formulas, shear_x, shear_y
from holodyn import parabolic
from holodyn.core import EndoChain, Linear, QuadraticJet, Shear, Translation, _distance_blocks
from holodyn.errors import Ambiguous, BlowupSingular, InvalidParameter, NoConvergence, NoSurvivor
from holodyn.parabolic import (
    HomogeneousQuadratic,
    SectorPoint,
    _clusters,
    _in_sector,
    _ring_winds_once,
    _sector_mask,
    _survivors,
    blowup_batch,
    cubic_perturbation_family,
    graph_point,
    in_sector,
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
    if not (abs(x) < epsilon and abs(cmath.phase(-x)) < epsilon):
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
            raise NoSurvivor(f"no surviving cells at level {level}")
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


# -- the compiled tangent push and the shooting orbit -----------------------------


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
    _coeffs.map(shear_x),
    _coeffs.map(shear_y),
    # a shear along v, with w = (v_1, -v_0) so that w.v = 0 exactly
    st.tuples(_coeffs, _cx, _cx)
    .filter(lambda t: t[1] or t[2])
    .map(lambda t: Shear(t[0], (t[1], t[2]), (t[2], -t[1]))),
    st.tuples(_cx, _cx, _cx, _cx).map(lambda t: _linear(*t)).filter(bool),
    st.tuples(_cx, _cx).map(lambda t: Translation(*t)),
    st.tuples(st.tuples(_cx, _cx, _cx), st.tuples(_cx, _cx, _cx)).map(lambda t: QuadraticJet(*t)),
)
_z = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_steps, min_size=1, max_size=4), x=_z, y=_z, dx=_z, dy=_z)
def test_compiled_push_gives_apply_values_and_differential_tangent(steps, x, y, dx, dy):
    chain = EndoChain(tuple(steps))
    x1, y1, dx1, dy1 = chain._tangent_push(x, y, dx, dy)
    # apply runs the value lines of the same emitters, so this checks only
    # that the tangent lines leave the value lines as they are
    assert np.array([x1, y1]).tobytes() == np.array(chain.apply(x, y), dtype=complex).tobytes()
    # the independent oracle: the literal formulas, composed step by step
    # (== ignores only the sign of a zero, which the skips may change)
    rx, ry = x, y
    for step in steps:
        rx, ry = literal_formulas(step)[0](rx, ry)
    assert (x1, y1) == (rx, ry)
    j = chain.differential((x, y))
    # the per-step bound 1e-13 * (1 + max|J| (|dx| + |dy|)), with max|J| the
    # product of each step's largest Jacobian entry along the orbit: rounding
    # in one step is carried through the Jacobians of the steps after it
    growth, (px, py) = 1.0, (x, y)
    for step in steps:
        growth *= max(abs(v) for v in literal_formulas(step)[1](px, py))
        px, py = step.apply(px, py)
    scale = 1 + growth * (abs(dx) + abs(dy))
    assert abs(dx1 - (j[0, 0] * dx + j[0, 1] * dy)) <= 1e-13 * scale
    assert abs(dy1 - (j[1, 0] * dx + j[1, 1] * dy)) <= 1e-13 * scale


@pytest.mark.parametrize(
    "map_like, x, u",
    [
        (cubic_perturbation_family(3.0)(0.0), -0.01, 0.0016 + 2e-5j),
        (cubic_perturbation_family(0.0)(1e-2), -0.014 + 1e-4j, 0.004j),
        (normal_form_family(1.0), -0.01, 1e-4 - 1e-4j),
        (
            EndoChain((
                Linear(1.0, 1e-3, 0.0, 1.0),
                QuadraticJet((1.0, 2.0, -1.0), (0.0, -2.0, -1.0)),
                Translation(1e-6, -1e-6j),
            )),
            -0.012 + 5e-5j,
            2e-4 + 1e-4j,
        ),
    ],
)
def test_shoot_replays_blowup_step_bit_for_bit(map_like, x, u):
    xn, un, dun, stayed = parabolic._shoot(map_like, complex(x), complex(u), 300, EPS)
    pt = SectorPoint(complex(x), complex(u), EPS)
    for _ in range(300):
        pt = blowup_step(map_like, pt)
    assert (xn, un) == (pt.x, pt.u)
    kind = sector_orbit(map_like, SectorPoint(x, u, EPS), 300, floor=0.0).kind
    assert stayed == (kind == "undecided")
    if isinstance(map_like, EndoChain):
        return  # the oracle covers AutoChain steps
    un_mp, dun_mp, inside = _orbit_mp(map_like, x, u, 300)
    assert stayed == (inside == 300)
    assert abs(dun - dun_mp) <= 1e-10 * abs(dun_mp)


_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_part = st.one_of(_special, st.floats(-2.0, 2.0))
_z_special = st.builds(complex, _part, _part)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(_steps, max_size=4),
    zs=st.lists(st.tuples(_z_special, _z_special), min_size=1, max_size=6),
)
def test_chain_apply_is_the_step_composition_bit_for_bit(steps, zs):
    chain = EndoChain(tuple(steps))
    xs, ys = (np.array(v, dtype=complex) for v in zip(*zs))
    with np.errstate(all="ignore"):
        for x, y in [(xs, ys), *zs]:  # the arrays, then each point as scalars
            rx, ry = x, y
            for step in steps:
                rx, ry = step.apply(rx, ry)
            got = np.array(chain.apply(x, y), dtype=complex)
            assert got.tobytes() == np.array((rx, ry), dtype=complex).tobytes()


# -- the ring certificate ---------------------------------------------------------


def ring_winds_once_blowup(map_like, x, u, rho, n, eps):
    """The 32-sample ring check in blow-up coordinates, frozen: u_k = y_k / x_k
    is formed after every step (0 where x_k ~ 0) and y_{k+1} from it."""
    us = u + rho * np.exp(2j * np.pi * np.arange(32) / 32)
    xs = np.full(32, x, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            xs, ys = map_like.apply(xs, us * xs)
            us = np.divide(ys, xs, out=np.zeros(32, dtype=complex), where=np.abs(xs) > 1e-300)
        if not (np.isfinite(us).all() and us.all()) or _sector_mask(xs, us, eps).any():
            return False
    turns = np.angle(np.roll(us, -1) / us)
    return bool(np.abs(turns).max() < np.pi / 2) and round(turns.sum() / (2 * np.pi)) == 1


@pytest.mark.parametrize(
    "map_like, x, resolution",
    [
        (normal_form_family(0.0), -0.0105, 1e-6),
        (normal_form_family(1.0), -0.013 * cmath.exp(2e-3j), 1e-6),
        (normal_form_family(3.0), -0.0155 * cmath.exp(-1e-3j), 1e-6),
        (cubic_perturbation_family(3.0)(0.0), -0.01, 1e-8),
        (cubic_perturbation_family(0.0)(1e-2), -0.014, 1e-8),
    ],
)
def test_ring_in_ambient_coordinates_gives_the_blowup_verdict(map_like, x, resolution):
    gp = graph_point(map_like, x, epsilon=EPS, resolution=resolution)
    u, rho = gp.u, gp.certified_radius
    rings = {  # (centre, radius) -> the verdict both must give at N = final_horizon
        (u, rho): True,  # the certificate graph_point returned
        (u, 1e-4 * rho): False,  # u_N stays near 0, so the samples stay in W_eps
        (u + 3 * rho, rho): False,  # the root is outside: u_N winds 0 times
    }
    for (centre, radius), verdict in rings.items():
        args = (map_like, gp.x, centre, radius, gp.final_horizon, EPS)
        assert _ring_winds_once(*args) is verdict
        assert ring_winds_once_blowup(*args) is verdict


def test_a_normal_form_ring_winds_once_outside_the_sector_in_50_digits():
    m = normal_form_family(1.0)
    gp = graph_point(m, -0.018, epsilon=EPS, resolution=1e-3)
    assert gp.final_horizon == 80  # a short ring: 32 orbits of 80 steps in 50 digits
    k = parabolic._RING
    ring = gp.u + gp.certified_radius * np.exp(2j * np.pi * np.arange(k) / k)  # the samples
    with mp.workdps(mp_oracle.DPS):
        un = []
        for u0 in ring:
            x = mp_oracle.mpc(gp.x)
            z = (x, mp_oracle.mpc(u0) * x)
            for _ in range(gp.final_horizon):
                z = mp_oracle.forward(m, z)
            x, u = z[0], z[1] / z[0]
            assert not (abs(x) < EPS and abs(mp.arg(-x)) < EPS and 2 * abs(u) < abs(x))
            un.append(u)
        turns = [mp.arg(un[(j + 1) % k] / un[j]) for j in range(k)]
        assert max(abs(t) for t in turns) < mp.pi / 2
        assert abs(mp.fsum(turns) - 2 * mp.pi) < mp.mpf(10) ** -40  # winding number 1


# -- the compiled blow-up loops, bit for bit against the per-step references ------


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised: an overflowing
    abs() or a vanishing image x must end both loops alike."""
    try:
        return f(*args)
    except (ArithmeticError, BlowupSingular) as exc:
        return type(exc), str(exc)


def shoot_ref(map_like, x, u, n, eps):
    """The shot as it ran before its loop was compiled: one call of the
    chain's tangent push and of _in_sector per step."""
    dx, du, stayed = 0j, 1.0 + 0j, True
    for _ in range(n):
        y, dy = u * x, du * x + u * dx
        x, y, dx, dy = map_like._tangent_push(x, y, dx, dy)
        if abs(x) <= 1e-300:
            raise BlowupSingular(f"image x-coordinate vanished (x1 = {x!r})")
        u = y / x
        du = (dy - u * dx) / x
        stayed = stayed and _in_sector(x, u, eps)
    return x, u, du, stayed


def sector_orbit_ref(map_like, pt, max_iter, floor):
    """sector_orbit as it ran before its loop was compiled: a SectorPoint
    per blowup_step, then the sector test, then the floor."""
    if not in_sector(pt):
        return "left", 0, pt
    for n in range(1, max_iter + 1):
        pt = blowup_step(map_like, pt)
        if not in_sector(pt):
            return "left", n, pt
        if abs(pt.x) < floor:
            return "converged", n, pt
    return "undecided", max_iter, pt


def _bits(*zs):
    return np.array(zs, dtype=complex).tobytes()


# Chains with exact orbits, for the examples below:
# - _TO_ZERO (x -> x + 2^-8) takes x = -2^-6 to exactly 0 at step 4, inside
#   W_eps on u = 0; it takes -(2^-6 + 2^-8) to |x1| = 2^-6 = _RIM, on the rim
#   of W_eps for eps = _RIM, and -2^-6 to |x2| = 2^-7, a floor of 2^-7;
# - _AWAY (x -> x - 2^-8) takes -(_RIM - 2^-8), inside W_eps, onto that rim;
# - _HALVE ((x, y) -> (x / 2, y)) takes x = _TINY to |x1| = 1e-300, which has
#   no chart, and (x, u) = (-2^-6, 2^-9) to 2|u1| = |x1| = 2^-7;
# - _TILT (x -> x + 10^-4 i) takes -0.005 to |arg(-x1)| = _TILTED, as eps.
_TO_ZERO = [Translation(2.0**-8, 0j)]
_HALVE = [Linear(0.5, 0.0, 0.0, 1.0)]
_AWAY = [Translation(-(2.0**-8), 0j)]
_TINY = -(2 * 1e-300)
_RIM = 2.0**-6
_TILT = [Translation(1e-4j, 0j)]
_TILTED = abs(cmath.phase(-complex(-0.005, 1e-4)))  # numpy's arctan2 gives the same
_eps = st.sampled_from([EPS, _RIM])
_chains = st.one_of(st.lists(_steps, min_size=1, max_size=4), st.just(_TO_ZERO), st.just(_AWAY))
_x_sector = st.one_of(
    st.just(-(2.0**-6)), st.builds(lambda r, phi: -r * cmath.exp(1j * phi),
                                   st.floats(1e-3, 0.019), st.floats(-0.015, 0.015)),
)
_u_small = st.complex_numbers(max_magnitude=0.01, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(steps=_chains, x=_x_sector, u=_u_small, n=st.integers(0, 40), eps=_eps)
@example(steps=_TO_ZERO, x=-(2.0**-6), u=0j, n=8, eps=EPS)  # BlowupSingular at step 4
@example(steps=_HALVE, x=_TINY, u=0j, n=1, eps=EPS)  # BlowupSingular at |x1| = 1e-300
@example(steps=_TO_ZERO, x=-(_RIM + 2.0**-8), u=0j, n=3, eps=_RIM)  # |x1| = eps
@example(steps=_HALVE, x=-_RIM, u=2.0**-9, n=1, eps=EPS)  # 2|u1| = |x1|
@example(steps=_TILT, x=-0.005, u=0j, n=1, eps=_TILTED)  # |arg(-x1)| = eps
@example(steps=[QuadraticJet((1.0, 2.0, 1.0), (0.0, -2.0, -1.0))], x=-0.01, u=1e-3, n=40, eps=EPS)
def test_compiled_shot_is_the_per_step_shot(steps, x, u, n, eps):
    chain, x, u = EndoChain(tuple(steps)), complex(x), complex(u)  # as graph_point shoots
    got = _outcome(parabolic._shoot, chain, x, u, n, eps)
    want = _outcome(shoot_ref, chain, x, u, n, eps)
    if isinstance(want[0], type):
        assert got == want
        return
    assert _bits(*got[:3]) == _bits(*want[:3]) and got[3] is want[3]
    pt = SectorPoint(x, u, eps)  # the point is blowup_step's, through apply
    for _ in range(n):
        pt = blowup_step(chain, pt)
    assert _bits(got[0], got[1]) == _bits(pt.x, pt.u)


@settings(max_examples=200, deadline=None)
@given(
    steps=_chains, x=_x_sector, u=_u_small, max_iter=st.integers(0, 60),
    floor=st.sampled_from([0.0, 1e-4, 5e-3]), eps=_eps,
)
@example(steps=_TO_ZERO, x=-(2.0**-6), u=0j, max_iter=8, floor=0.0, eps=EPS)  # BlowupSingular
@example(steps=_HALVE, x=_TINY, u=0j, max_iter=3, floor=0.0, eps=EPS)  # the same, at 1e-300
@example(steps=_AWAY, x=-(_RIM - 2.0**-8), u=0j, max_iter=3, floor=0.0, eps=_RIM)  # left at 1
@example(steps=_HALVE, x=-_RIM, u=2.0**-9, max_iter=3, floor=0.0, eps=EPS)  # left at 1
@example(steps=_TILT, x=-0.005, u=0j, max_iter=3, floor=0.0, eps=_TILTED)  # left at 1
@example(steps=_TO_ZERO, x=-_RIM, u=0j, max_iter=8, floor=2.0**-7, eps=EPS)  # converged at 3
@example(steps=[QuadraticJet((1.0, 2.0, 0.0), (0.0, -2.0, -1.0))], x=-0.01, u=0.0,
         max_iter=20000, floor=1e-4, eps=EPS)  # converged at step 9,896
@example(steps=[QuadraticJet((1.0, 2.0, 0.0), (0.0, -2.0, -1.0))], x=-0.01, u=-0.004,
         max_iter=200, floor=0.0, eps=EPS)  # left at step 6
@example(steps=[QuadraticJet((1.0, 2.0, 0.0), (0.0, -2.0, -1.0))], x=-0.01, u=0.0,
         max_iter=50, floor=0.0, eps=EPS)  # undecided
def test_compiled_sector_orbit_is_the_per_step_orbit(steps, x, u, max_iter, floor, eps):
    chain = EndoChain(tuple(steps))
    pt = SectorPoint(x, u, eps)
    got = _outcome(lambda: sector_orbit(chain, pt, max_iter, floor))
    want = _outcome(sector_orbit_ref, chain, pt, max_iter, floor)
    if isinstance(want[0], type):
        assert got == want
        return
    kind, n, last = want
    assert (got.kind, got.steps) == (kind, n)
    assert _bits(got.last.x, got.last.u) == _bits(last.x, last.u)
    assert got.last.epsilon == eps


def test_sector_orbit_reaches_each_verdict():
    # the examples above, pinned: each kind with its step index
    m = normal_form_family(0.0)
    assert sector_orbit(m, SectorPoint(-0.01, 0.0, EPS), 20000, 1e-4).kind == "converged"
    assert sector_orbit(m, SectorPoint(-0.01, 0.0, EPS), 50, 0.0).kind == "undecided"
    left = sector_orbit(m, SectorPoint(-0.01, -0.004, EPS), 200, 0.0)
    assert left.kind == "left" and 0 < left.steps < 200
    with pytest.raises(BlowupSingular, match=r"x1 = 0j"):
        sector_orbit(EndoChain(tuple(_TO_ZERO)), SectorPoint(-(2.0**-6), 0j, EPS), 8, 0.0)


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(_steps, max_size=4),
    zs=st.lists(st.tuples(_z_special, _z_special), min_size=1, max_size=6),
    n=st.integers(0, 3),
)
def test_compiled_ring_loop_is_apply_iterated(steps, zs, n):
    # its coefficients are 0-d arrays, apply's are Python numbers: same bytes
    chain = EndoChain(tuple(steps))
    xs, ys = (np.array(v, dtype=complex) for v in zip(*zs))
    with np.errstate(all="ignore"):
        got = parabolic._loop(chain, "ring")(xs, ys, n)
        for _ in range(n):
            xs, ys = chain.apply(xs, ys)
    assert _bits(*got) == _bits(xs, ys)


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(_steps, min_size=1, max_size=4),
    zs=st.lists(st.tuples(_z_special, _z_special), min_size=1, max_size=6),
    near=st.lists(st.tuples(_x_sector, _u_small), max_size=6),
    eps=st.sampled_from([EPS, 0.5]),
)
@example(steps=_HALVE, zs=[(complex(_TINY), 0j)], near=[], eps=EPS)  # |x1| = 1e-300: no chart
@example(steps=_AWAY, zs=[(complex(-(_RIM - 2.0**-8)), 0j)], near=[], eps=_RIM)  # |x1| = eps
@example(steps=_TILT, zs=[(-0.005 + 0j, 0j)], near=[], eps=_TILTED)  # |arg(-x1)| = eps
@example(steps=_HALVE, zs=[(complex(-_RIM), complex(2.0**-9))], near=[], eps=EPS)  # 2|u1| = |x1|
# a constant p times v_1, where two 0-d arrays multiply otherwise than Python numbers
@example(
    steps=[shear_x((1.0,)), Shear((0.98 + 1j,), (0, 0.3125 + 0.5j), (0.3125 + 0.5j, 0))],
    zs=[(0j, 0j)], near=[], eps=EPS,
)
def test_compiled_survival_step_is_blowup_batch_and_sector_mask(steps, zs, near, eps):
    chain = EndoChain(tuple(steps))
    xs, us = (np.array(v, dtype=complex) for v in zip(*zs, *near))
    with np.errstate(over="ignore", invalid="ignore"):  # iterate_live's, no more
        keep, (x1, u1) = parabolic._loop(chain, "survive")(xs, us, eps)
    rx, ru, ok = blowup_batch(chain, xs, us)
    assert keep.tobytes() == (ok & _sector_mask(rx, ru, eps)).tobytes()
    assert _bits(x1, u1) == _bits(rx, ru)
