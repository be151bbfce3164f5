from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn.errors import (
    DegenerateDirection,
    NoSurvivor,
    InvalidParameter,
    NotTangentToIdentity,
)
from holodyn.parabolic import (
    AllDirections,
    HomogeneousQuadratic,
    SectorPoint,
    _ring_winds_once,
    _sector_mask,
    blowup_batch,
    characteristic_directions,
    cubic_perturbation_family,
    expansion_check,
    graph_point,
    in_sector,
    make_nondegenerate,
    normal_form_family,
    normalize,
    parabolic_stability_experiment,
    quadratic_part,
    sector_orbit,
    tangent_shear_chain,
)

from conftest import (
    blowup_step, direction_residual, expansion_pair_margin, identity_chain, quadratic_roots,
)


# -- quadratic parts ----------------------------------------------------------


def test_quadratic_part_of_identity_is_zero():
    q = quadratic_part(identity_chain())
    assert q.is_zero()


def test_quadratic_part_of_normal_form_jet():
    m = normal_form_family(3.0)
    q = quadratic_part(m)
    assert q.p == (1.0, 2.0, 3.0)
    assert q.q == (0.0, -2.0, -1.0)
    assert q.is_divergence_free()


@pytest.mark.parametrize("c", [0.0, 3.0, -2.0, 0.5 + 0.25j])
def test_shear_chain_realizes_normal_form_jet(c):
    # symbolic composition oracle: expand the chain as exact polynomials
    ch = tangent_shear_chain(c)
    assert ch.volume_preserving
    q = quadratic_part(ch)
    want = HomogeneousQuadratic.normal_form(c)
    assert max(abs(a - b) for a, b in zip(q.p, want.p)) < 1e-12
    assert max(abs(a - b) for a, b in zip(q.q, want.q)) < 1e-12


def test_quadratic_part_rejects_non_tangent(henon075):
    with pytest.raises(NotTangentToIdentity):
        quadratic_part(henon075)


def test_divergence_free_flag_validation():
    bad = HomogeneousQuadratic((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert not bad.is_divergence_free()
    with pytest.raises(ValueError):
        normalize(bad, characteristic_directions(bad)[0])
    q = HomogeneousQuadratic((1.0, 2.0, 3.0), (5.0, -2.0, -1.0))
    assert q.is_divergence_free()


# -- characteristic directions --------------------------------------------------


def _chart_u(d) -> complex:
    assert abs(d.direction[0]) > 1e-12
    return complex(d.direction[1] / d.direction[0])


def test_characteristic_directions_c3_oracle():
    p2 = HomogeneousQuadratic.normal_form(3.0)
    dirs = characteristic_directions(p2)
    assert len(dirs) == 3
    got = sorted((_chart_u(d) for d in dirs), key=lambda z: (z.real, z.imag))
    r1, r2 = quadratic_roots(3.0, 3.0, 3.0)
    want = sorted([0j, r1, r2], key=lambda z: (z.real, z.imag))
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-9
    for d in dirs:
        assert direction_residual(d, p2) < 1e-10 * p2.norm()
        assert not d.degenerate
    lam_origin = [d for d in dirs if abs(_chart_u(d)) < 1e-9][0]
    assert abs(lam_origin.lam - 1.0) < 1e-12


def test_characteristic_directions_degenerate_example():
    p2 = HomogeneousQuadratic((1.0, 0.0, 0.0), (0.0, -2.0, 0.0))
    dirs = characteristic_directions(p2)
    by_dir = {tuple(np.round(np.abs(d.direction), 6)): d for d in dirs}
    e1 = by_dir[(1.0, 0.0)]
    assert abs(e1.lam - 1.0) < 1e-12 and not e1.degenerate
    e2 = by_dir[(0.0, 1.0)]
    assert e2.degenerate and abs(e2.lam) < 1e-12


def test_characteristic_directions_merge_multiplicity():
    # p = y^2, q = 0: the chart equation -u * u^2 has a triple root at 0
    p2 = HomogeneousQuadratic((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    dirs = characteristic_directions(p2)
    finite = [d for d in dirs if abs(d.direction[0]) > 1e-12]
    assert len(finite) == 1
    assert finite[0].degenerate
    for d in dirs:
        assert direction_residual(d, p2) < 1e-10 * max(p2.norm(), 1.0)


def test_characteristic_directions_all_marker():
    p2 = HomogeneousQuadratic((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert isinstance(characteristic_directions(p2), AllDirections)


def test_root_count_for_normal_form_family():
    for c in (0.7, 2.0, 1.5 - 0.5j):
        dirs = characteristic_directions(HomogeneousQuadratic.normal_form(c))
        assert len(dirs) == 3


def test_direction_stability_under_coefficient_perturbation():
    base = characteristic_directions(HomogeneousQuadratic.normal_form(3.0))
    pert = HomogeneousQuadratic(
        (1.0 + 1e-6, 2.0 - 1e-6, 3.0 + 1e-6), (1e-6, -2.0 + 1e-6, -1.0 - 1e-6)
    )
    moved = characteristic_directions(pert)
    for d in base:
        dist = min(
            float(np.linalg.norm(d.direction - m.direction)) for m in moved
        )
        assert dist < 1e-4


# -- make_nondegenerate ---------------------------------------------------------


def test_make_nondegenerate_assigns_epsilon():
    p2 = HomogeneousQuadratic((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    out = make_nondegenerate(p2, np.array([1.0, 0.0]), 0.1)
    px, qx = out.eval(1.0, 0.0)
    assert abs(px - 0.1) < 1e-15 and abs(qx) < 1e-15
    # the added term is divergence-free: d/dx(eps x^2) + d/dy(-2 eps xy) = 0
    assert abs((out.q[1] - p2.q[1]) + 2 * (out.p[0] - p2.p[0])) < 1e-15


def test_make_nondegenerate_identity_at_zero_eps():
    p2 = HomogeneousQuadratic((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    out = make_nondegenerate(p2, np.array([1.0, 0.0]), 0.0)
    assert out.p == p2.p and out.q == p2.q


def test_make_nondegenerate_requires_normalized_v():
    p2 = HomogeneousQuadratic((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(InvalidParameter, match="expected v"):
        make_nondegenerate(p2, np.array([0.0, 1.0]), 0.1)


# -- normalize -------------------------------------------------------------------


def _direction_at(p2, target_u):
    dirs = characteristic_directions(p2)
    return min(dirs, key=lambda d: abs(_chart_u(d) - target_u))


def test_normalize_fixed_point_of_normal_form():
    p2 = HomogeneousQuadratic.normal_form(3.0)
    res = normalize(p2, _direction_at(p2, 0.0))
    assert abs(res.c - 3.0) < 1e-12
    assert np.allclose(res.conjugation, np.eye(2))
    assert not res.b_was_zero


def test_normalize_b2_c4_oracle():
    # Eq-(1)-shaped input with b = 2, c = 4 rescales to c' = c / b^2 = 1
    p2 = HomogeneousQuadratic((1.0, 4.0, 4.0), (0.0, -2.0, -2.0))
    res = normalize(p2, _direction_at(p2, 0.0))
    assert abs(res.c - 1.0) < 1e-12
    # conjugation-transport oracle: push P2 through the returned matrix
    check = p2.conjugate_linear(res.conjugation)
    assert np.allclose(check.p, res.quadratic.p)
    assert np.allclose(check.q, res.quadratic.q)


def test_normalize_swapped_direction():
    # swap of the c = 3 normal form: the (0, 1) direction is characteristic
    p2 = HomogeneousQuadratic((-1.0, -2.0, 0.0), (3.0, 2.0, 1.0))
    assert p2.is_divergence_free()
    dirs = characteristic_directions(p2)
    v = [d for d in dirs if abs(d.direction[0]) < 1e-12][0]
    res = normalize(p2, v)
    check = p2.conjugate_linear(res.conjugation)
    assert np.allclose(check.p, res.quadratic.p)
    assert np.allclose(check.q, res.quadratic.q)
    # the conjugation must include the coordinate swap
    assert abs(res.conjugation[0, 0]) < 1e-12
    got = res.quadratic
    want = HomogeneousQuadratic.normal_form(res.c)
    assert max(abs(a - b) for a, b in zip(got.p, want.p)) < 1e-10
    assert max(abs(a - b) for a, b in zip(got.q, want.q)) < 1e-10


def test_normalize_b_zero_branch():
    # b = 0 shape: (x^2 + c y^2, -2xy); the y-rescale is skipped and flagged
    p2 = HomogeneousQuadratic((1.0, 0.0, 4.0), (0.0, -2.0, 0.0))
    res = normalize(p2, _direction_at(p2, 0.0))
    assert res.b_was_zero
    assert abs(res.quadratic.p[1]) < 1e-10


def test_normalize_rejects_degenerate():
    p2 = HomogeneousQuadratic((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    dirs = characteristic_directions(p2)
    deg = [d for d in dirs if d.degenerate][0]
    with pytest.raises(DegenerateDirection):
        normalize(p2, deg)


# -- blow-up ---------------------------------------------------------------------


def test_blowup_hand_arithmetic():
    m = normal_form_family(0.0)
    out = blowup_step(m, SectorPoint(-0.1, 0.0, 0.5))
    assert abs(out.x - (-0.09)) < 1e-15
    assert abs(out.u) < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    x=st.complex_numbers(min_magnitude=1e-6, max_magnitude=0.3, allow_nan=False, allow_infinity=False),
    c=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_u_zero_fiber_invariant_property(x, c):
    m = normal_form_family(c)
    out = blowup_step(m, SectorPoint(x, 0.0, 0.5))
    assert abs(out.u) < 1e-14


def test_u_update_closed_form_oracle():
    # exact identity for the pure quadratic family:
    # u1 - (u - s x) = x^2 s p / (1 + x p) with p = p(1,u), s = 3u + 3u^2 + cu^3
    c = 1.0
    m = normal_form_family(c)
    for x, u in [(-0.008 + 0.001j, 0.003 - 0.002j), (-0.015, 0.004j)]:
        out = blowup_step(m, SectorPoint(x, u, 0.02))
        p = 1 + 2 * u + c * u * u
        s = 3 * u + 3 * u * u + c * u**3
        assert abs((out.u - (u - s * x)) - x * x * s * p / (1 + x * p)) < 1e-16


def test_truncation_orders_on_shear_chain():
    # against the second-order/first-order truncations of the blow-up update
    ch = tangent_shear_chain(0.0)
    xs = -np.logspace(-5, -2, 10)
    dx, du = [], []
    for x in xs:
        out = blowup_step(ch, SectorPoint(complex(x), 0j, 0.02))
        dx.append(abs(out.x - (x + x * x)))
        du.append(abs(out.u - 0.0))
    lx = np.log(np.abs(xs))
    assert np.polyfit(lx, np.log(dx), 1)[0] >= 3 - 0.1
    assert np.polyfit(lx, np.log(du), 1)[0] >= 2 - 0.1


def test_in_sector_examples():
    assert in_sector(SectorPoint(-0.01, 0.0, 0.05))
    assert not in_sector(SectorPoint(-0.01, 0.006, 0.05))  # 2|u| = 0.012 > 0.01
    assert not in_sector(SectorPoint(0.01, 0.0, 0.05))  # arg deviation pi


def test_expansion_pair_skips_vacuous():
    m = normal_form_family(0.0)
    p = SectorPoint(-0.01, 0.002, 0.02)
    assert expansion_pair_margin(m, p, p) is None


@pytest.mark.parametrize("m", [normal_form_family(1.0), cubic_perturbation_family(3.0)(0.0)])
def test_sector_code_on_non_finite_and_zero_coordinates(m):
    # nan, +-inf, +-0 and near-overflow values in x or u put no point in
    # W_eps and certify no ring, and no RuntimeWarning escapes: _sector_mask,
    # blowup_batch and _ring_winds_once each hold their own errstate
    nan, inf = math.nan, math.inf
    vals = np.array([
        nan, inf, -inf, 0.0, -0.0, complex(nan, 1.0), complex(-0.01, inf), complex(-inf, 0.0),
        1e308, complex(-1e308, 1e308), -0.01,
    ])
    xs, us = (a.ravel() for a in np.meshgrid(vals, vals))
    inside = (xs == -0.01) & (us == 0)  # (-0.01, +-0), the only pairs in W_eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_sector_mask(xs, us, 0.02) == inside).all()
        x1, u1, ok = blowup_batch(m, xs, us)
        assert not (ok & _sector_mask(x1, u1, 0.02))[~inside].any()
        for x, u, rho in [(-0.01, 0j, 1e200), (-0.01, 1e-3, 1e300), (-0.01, nan, 1e-6),
                          (-0.01, complex(0.0, inf), 1e-6), (0j, 0j, 1e-6), (-0.0, 0j, 1e-6),
                          (complex(nan, 0.0), 0j, 1e-6), (-inf, 0j, 1e-6)]:
            assert not _ring_winds_once(m, complex(x), complex(u), rho, 10, 0.02)


def test_expansion_no_violations_small_eps():
    for c in (0.0, 1.0, 3.0):
        rep = expansion_check(normal_form_family(c), 0.02, trials=3000, seed=7)
        assert rep.violations == 0
        assert rep.min_margin > 0
        assert rep.regime_ok


def test_expansion_report_flag_consistency_large_eps():
    rep = expansion_check(normal_form_family(3.0), 0.5, trials=3000, seed=7)
    assert rep.regime_ok == (rep.violations == 0)
    assert rep.trials >= 3000


def test_sector_orbit_real_axis_oracle():
    # 1-D real oracle: x_{n+1} = x_n + x_n^2 on the v = 0 fiber
    m = normal_form_family(0.0)
    res = sector_orbit(m, SectorPoint(-0.01, 0.0, 0.02), max_iter=20000, floor=1e-4)
    assert res.kind == "converged"
    x, steps = -0.01, 0
    while abs(x) >= 1e-4:
        x = x + x * x
        steps += 1
    assert res.steps == steps
    assert abs(res.last.x) < 1e-4


def test_sector_orbit_offset_implication():
    m = normal_form_family(0.0)
    res = sector_orbit(m, SectorPoint(-0.01, -0.004, 0.02), max_iter=20000)
    assert res.kind in ("converged", "left")
    if res.kind == "converged":
        assert abs(res.last.x) < 1e-4


def test_sector_orbit_rejects_bad_angle():
    m = normal_form_family(0.0)
    eps = 0.02
    x = 0.01 * cmath.exp(1j * (math.pi - 2 * eps))
    res = sector_orbit(m, SectorPoint(x, 0.0, eps))
    assert res.kind == "left" and res.steps == 0


# -- graph point -----------------------------------------------------------------


def test_graph_point_invariant_fiber_oracle():
    m = normal_form_family(0.0)
    gp = graph_point(m, -0.01, epsilon=0.02, resolution=1e-6)
    assert abs(gp.u) <= gp.certified_radius
    assert gp.certified_radius < 1e-6


def test_graph_point_resolution_consistency():
    m = normal_form_family(0.0)
    g1 = graph_point(m, -0.01, epsilon=0.02, resolution=1e-6)
    g2 = graph_point(m, -0.01, epsilon=0.02, resolution=5e-7)
    assert abs(g2.u - g1.u) < g1.certified_radius


def test_graph_point_forward_check():
    m = normal_form_family(0.0)
    gp = graph_point(m, -0.01, epsilon=0.02, resolution=1e-6)
    pt = SectorPoint(-0.01, gp.u, 0.02)
    mags = []
    for _ in range(200):
        pt = blowup_step(m, pt)
        assert in_sector(pt)
        mags.append(abs(pt.x))
    assert all(b < a for a, b in zip(mags[10:], mags[11:]))


def test_graph_point_no_survivor_for_tilted_direction():
    # q gains 0.2 x^2: the characteristic direction tilts to u ~ 0.067,
    # outside the sector 2|u| < |x| <= eps
    bad = HomogeneousQuadratic((1.0, 2.0, 0.0), (0.2, -2.0, -1.0)).to_map()
    with pytest.raises(NoSurvivor):
        graph_point(bad, -0.01, epsilon=0.02, resolution=1e-6)


def test_graph_point_rejects_x_outside_regime():
    m = normal_form_family(0.0)
    # an infinite epsilon leaves no arg condition on the sector
    for eps in (math.inf, math.nan, 0.0):
        with pytest.raises(InvalidParameter, match="epsilon must be positive and finite"):
            graph_point(m, -0.01, epsilon=eps)
        with pytest.raises(InvalidParameter, match="epsilon must be positive and finite"):
            expansion_check(m, eps, trials=10)
    with pytest.raises(ValueError):
        graph_point(m, 0.01, epsilon=0.02)
    # x = 0 has no blow-up chart; the phase of -(-0 + 0j) is -0, not pi
    for x in (0j, complex(-0.0, 0.0), complex(-0.0, -0.0), complex(math.nan, 0.0)):
        with pytest.raises(InvalidParameter, match="must satisfy 0 < "):
            graph_point(m, x, epsilon=0.02)


def test_parabolic_stability_decreasing():
    fam = cubic_perturbation_family(0.0)
    rows = parabolic_stability_experiment(
        fam, x_mesh=(-0.016,), t_values=(1e-1, 1e-2), epsilon=0.02, resolution=1e-7
    )
    assert rows[0].sup_distance > rows[1].sup_distance > 0
    assert not rows[0].resolution_limited
    # below the certificate scale the distance is only a measurement floor
    tiny = parabolic_stability_experiment(
        fam, x_mesh=(-0.016,), t_values=(1e-9,), epsilon=0.02, resolution=1e-7
    )
    assert tiny[0].resolution_limited
