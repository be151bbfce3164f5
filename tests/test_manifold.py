from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from holodyn.core import (
    AutoChain,
    Linear,
    diag_linear_chain,
    find_fixed_point,
    henon_chain,
)
from holodyn.errors import DeltaTooLarge, Inconclusive, NotASaddle, Overflow
from holodyn.manifold import (
    density_sweep,
    graph_residual,
    is_in_stable,
    local_stable_graph,
    local_stable_graph_auto,
    occupied_cells,
    pullback_cloud,
    pullback_clouds,
    sheary_perturbation_family,
    stability_experiment,
)

import mp_oracle
from conftest import (
    U, graph_transform, hausdorff_distance, sample_points, shear_x, shear_y, with_t_offset,
)


@pytest.fixture(scope="module")
def linear_saddle():
    ch = diag_linear_chain(0.5, 2.0)
    fp = find_fixed_point(ch, (0.1, 0.1))
    return ch, fp


def test_linear_saddle_graph_is_zero(linear_saddle):
    ch, fp = linear_saddle
    g = local_stable_graph(ch, fp, 0.5)
    assert float(np.max(np.abs(g.t_values))) < 1e-12
    assert graph_residual(ch, g) == 0.0


def test_not_a_saddle_raises(henon075):
    fp = find_fixed_point(henon075, (0.4, 0.4))
    with pytest.raises(NotASaddle):
        local_stable_graph(henon075, fp, 0.1)


def test_henon_graph_tangent_to_eigenvector(henon075, henon_graph):
    # in eigencoordinates the stable eigenvector is the s-axis: the linear
    # Taylor coefficient of gamma must vanish
    assert abs(henon_graph.fit_coeffs[1]) < 1e-6
    assert graph_residual(henon075, henon_graph) < 1e-8


def test_graph_mesh_refinement_consistency(henon075, henon_saddle, henon_graph):
    fine = local_stable_graph(henon075, henon_saddle, 0.1, mesh=(20, 32), tol=1e-10)
    # shared samples: the coarse radii/angles embed in the doubled mesh
    coarse = {
        (round(s.real, 14), round(s.imag, 14)): t
        for s, t in zip(henon_graph.s_grid.tolist(), henon_graph.t_values.tolist())
    }
    shared = 0
    for s, t in zip(fine.s_grid.tolist(), fine.t_values.tolist()):
        key = (round(s.real, 14), round(s.imag, 14))
        if key in coarse:
            shared += 1
            assert abs(coarse[key] - t) < 1e-8
    assert shared > len(coarse) // 2


def test_graph_series_terms_decrease(henon075, henon_saddle, henon_graph):
    # the terms |gamma_n| delta^n the graph keeps fall from n = 2 on, here
    # and over the longer series of a far smaller tol
    deep = local_stable_graph(henon075, henon_saddle, 0.1, tol=1e-36)
    for graph in (henon_graph, deep):
        coeffs = graph.fit_coeffs
        assert type(graph.iterations) is int and len(coeffs) == graph.iterations + 1
        terms = np.abs(coeffs[2:]) * graph.delta ** np.arange(2, len(coeffs))
        assert np.all(terms[1:] < terms[:-1])
    assert henon_graph.iterations <= 12
    assert deep.iterations >= 30


def _odd_henon(d: int) -> AutoChain:
    """(x, y) -> (x^d + 3x - y, x), with a saddle at the origin whose graph has
    gamma_2 .. gamma_(d-1) zero: a cut at order d - 1 or below misses gamma_d."""
    return AutoChain((Linear(0.0, -1.0, 1.0, 0.0), shear_x((0.0, 3.0) + (0.0,) * (d - 2) + (1.0,))))


# Henon c = 0.75, complex c, the saddle script's family member at t = 0.1,
# (x, y) -> (x^2 + 0.3 x^3 + 0.75 - y, x), and _odd_henon of degrees 3, 4, 9
# and 17, the last two on discs where gamma_9 delta^9 = 8.8e-8 and
# gamma_17 delta^17 = 2.0e-9: (chain, Newton seed, delta)
_MAPS = {
    "henon": (henon_chain(0.75), (1.4, 1.4), 0.1),
    "complex_c": (henon_chain(0.75 + 0.2j), (1.5 - 0.2j, 1.5 - 0.2j), 0.1),
    "family_t01": (henon_chain(0.75).then(shear_y((0.0, 0.0, 0.1))), (1.7, 2.0), 0.1),
    "cubic_shear": (
        AutoChain((Linear(0.0, -1.0, 1.0, 0.0), shear_x((0.75, 0.0, 1.0, 0.3)))),
        (0.9, 0.9),
        0.1,
    ),
    "odd_cubic": (_odd_henon(3), (0.01, 0.01), 0.1),
    "odd_quartic": (_odd_henon(4), (0.01, 0.01), 0.1),
    "odd_nonic": (_odd_henon(9), (0.01, 0.01), 0.5),
    "odd_17": (_odd_henon(17), (0.01, 0.01), 0.9),
}


@pytest.mark.parametrize("name", sorted(_MAPS))
def test_graph_agrees_with_the_graph_transform(name):
    chain, seed, delta = _MAPS[name]
    fp = find_fixed_point(chain, seed)
    graph = local_stable_graph(chain, fp, delta, mesh=(24, 96), tol=1e-9)
    oracle = graph_transform(chain, fp, delta, (24, 96), tol=1e-9)
    assert float(np.max(np.abs(graph.t_values - oracle))) <= 1e-9


@pytest.mark.parametrize("name", sorted(_MAPS))
def test_cut_drops_less_than_twice_tol(name):
    # the terms a cut drops, summed from the graph at tol 1e-40, are each
    # below tol and fall by more than half from one nonzero term to the next
    chain, seed, delta = _MAPS[name]
    fp = find_fixed_point(chain, seed)
    deep = local_stable_graph(chain, fp, delta, tol=1e-40)
    terms = np.abs(deep.fit_coeffs) * delta ** np.arange(deep.iterations + 1)
    for tol in (1e-9, 1e-20, 1e-30):
        n = local_stable_graph(chain, fp, delta, tol=tol).iterations
        assert float(np.sum(terms[n + 1 :])) <= 2 * tol


def test_cut_at_the_last_order_keeps_a_term_past_it():
    # over the 0.5-disc the quartic's terms 58 and 61 are 7.3e-35 and
    # 1.6e-36: at tol 1e-40 no cut at or below the last order, 60, is good
    chain, seed, _ = _MAPS["odd_quartic"]
    with pytest.raises(DeltaTooLarge):
        local_stable_graph(chain, find_fixed_point(chain, seed), 0.5, tol=1e-40)


def _worst_invariance_defect(chain, graph) -> float:
    """max |t1 - gamma(s1)| over the mesh points z, with (s1, t1) the
    eigencoordinates of f(z), all in 50 digits from the doubles."""
    with mp.workdps(mp_oracle.DPS):
        vs, vu = (
            [mp_oracle.mpc(c) for c in v] for v in (graph.stable_direction, graph.unstable_direction)
        )
        bx, by = (mp_oracle.mpc(c) for c in graph.base_point)
        coeffs = [mp_oracle.mpc(c) for c in graph.fit_coeffs]
        det = vs[0] * vu[1] - vu[0] * vs[1]
        worst = 0.0
        for z in sample_points(graph):
            x, y = mp_oracle.forward(chain, z)
            s1 = (vu[1] * (x - bx) - vu[0] * (y - by)) / det
            t1 = (vs[0] * (y - by) - vs[1] * (x - bx)) / det
            gamma = mp.mpc(0)
            for c in reversed(coeffs):
                gamma = gamma * s1 + c
            worst = max(worst, float(abs(t1 - gamma)))
    return worst


@pytest.mark.parametrize("name", sorted(_MAPS))
def test_graph_is_invariant_in_50_digits(name):
    """f takes each mesh point z = p + s v_s + gamma(s) v_u to (s1, t1) with
    |t1 - gamma(s1)| within a derived bound, with f and the eigencoordinates
    taken in 50 digits from the doubles z, p, v_s, v_u and gamma's coefficients.

    The bound.  Write the true graph in this frame as gamma*.  The series is
    gamma* cut after order n, so |gamma - gamma*| <= T on the delta-disc,
    with T the omitted tail sum_(k > n) |gamma_k| delta^k.  A point off the
    true graph by e in t leaves f off it by at most |lambda_u| e to first
    order, and gamma(s1) differs from gamma*(s1) by at most T again, since
    |s1| < delta: so (1 + |lambda_u|) T.  Rounding adds two errors of the
    same kind: the double z lies within 16 u (|p| + 2 delta) of the exact
    point per coordinate, and the double p within |E| |E^-1| r / g of the
    true saddle, with r the Newton residual |f(p) - p|, E the frame
    (v_s v_u) and g = min(1 - |lambda_s|, |lambda_u| - 1) the smallest
    distance of an eigenvalue to 1; each moves t by |E^-1| times itself.
    These are first-order bounds, so the test allows a factor 2.  The
    coefficients' own rounding must fit in the same allowance: the graph at
    tol 1e-40 checks that, since its tail is negligible.  T is summed over
    its coefficients; its terms beyond are below 1e-40 and fall by more than
    half from one nonzero term to the next, so they add less than 2e-40.
    """
    chain, seed, delta = _MAPS[name]
    fp = find_fixed_point(chain, seed)
    graph = local_stable_graph(chain, fp, delta, tol=1e-9)
    deep = local_stable_graph(chain, fp, delta, tol=1e-40)
    n = graph.iterations
    kept = np.arange(n + 1, deep.iterations + 1)
    tail = float(np.sum(np.abs(deep.fit_coeffs[n + 1 :]) * delta**kept)) + 2e-40
    e = np.array([graph.stable_direction, graph.unstable_direction]).T
    norm_e, norm_inv = (float(np.max(np.sum(np.abs(m), axis=1))) for m in (e, np.linalg.inv(e)))
    lam_s, lam_u = (abs(v) for v in fp.eigenvalues)
    p = max(abs(v) for v in fp.location)
    saddle_off = norm_e * norm_inv * fp.residual / min(1 - lam_s, lam_u - 1)
    rounding = norm_inv * (16 * U * (p + 2 * delta) + saddle_off)
    for g, t in ((graph, tail), (deep, 2e-40)):
        assert _worst_invariance_defect(chain, g) <= 2 * (1 + lam_u) * (t + rounding)


def test_delta_too_large_raises_and_auto_shrink_recovers(henon075, henon_saddle):
    with pytest.raises(DeltaTooLarge):
        local_stable_graph(henon075, henon_saddle, 3.0, mesh=(8, 12))
    g = local_stable_graph_auto(henon075, henon_saddle, 3.0, mesh=(8, 12))
    assert g.delta < 3.0


def test_residual_detects_offset_graph(henon075, henon_graph):
    bad = with_t_offset(henon_graph, 1e-3)
    assert graph_residual(henon075, bad) >= 1e-4


def test_pullback_depth_zero_is_identity(henon075, henon_graph):
    cloud = pullback_cloud(henon075, henon_graph, 0)
    pts = sample_points(henon_graph)
    assert np.allclose(cloud.points, pts)
    assert cloud.dropped == 0


def test_pullback_linear_saddle_oracle(linear_saddle):
    ch, fp = linear_saddle
    g = local_stable_graph(ch, fp, 0.5)
    cloud = pullback_cloud(ch, g, 1)
    # inverse of diag(0.5, 2) doubles the stable coordinate: (s, 0) -> (2s, 0)
    want_x = 2.0 * sample_points(g)[:, 0]
    assert np.allclose(cloud.points[:, 0], want_x)
    assert np.allclose(cloud.points[:, 1], 0.0)


def test_pullback_points_lie_in_stable_set(henon075, henon_saddle, henon_graph):
    # cap 1e3: points that transit larger magnitudes lose the manifold to
    # round-off (error ~ mag^2 * eps amplified along the unstable direction),
    # so this round trip pulls back through the scalar evaluate, whose cap
    # drops them
    inv = henon075.inverted()
    kept, dropped = [], 0
    for p in sample_points(henon_graph):
        z = (p[0], p[1])
        try:
            for _ in range(8):
                z = inv.evaluate(z, cap=1e3)
        except Overflow:
            dropped += 1
        else:
            kept.append(z)
    assert len(kept) > 50
    assert dropped > 0
    for z in kept[:: max(1, len(kept) // 15)]:
        assert is_in_stable(henon075, henon_saddle, henon_graph, z, max_iter=40)


def test_pullback_forward_consistency(henon075, henon_graph):
    depth = 5
    cloud = pullback_cloud(henon075, henon_graph, depth)
    p = cloud.points[7]
    x, y = complex(p[0]), complex(p[1])
    for _ in range(depth):
        x, y = henon075.apply(x, y)
    s, t = henon_graph.to_coords(x, y)
    assert abs(s) <= henon_graph.delta + 1e-9
    assert abs(t - henon_graph.gamma(s)) < 1e-6


def test_is_in_stable_cases(henon075, henon_saddle, henon_graph):
    assert is_in_stable(henon075, henon_saddle, henon_graph, henon_saddle.location)
    vu = henon_saddle.unstable_direction
    z = (
        henon_saddle.location[0] + 0.1 * vu[0],
        henon_saddle.location[1] + 0.1 * vu[1],
    )
    assert not is_in_stable(henon075, henon_saddle, henon_graph, z, max_iter=100)


def test_is_in_stable_inconclusive():
    # neutral rotation-like map: orbit neither escapes nor approaches the graph
    ch = diag_linear_chain(0.5, 2.0)
    fp = find_fixed_point(ch, (0.1, 0.1))
    g = local_stable_graph(ch, fp, 0.5)
    neutral = diag_linear_chain(1.0j, -1.0j)
    with pytest.raises(Inconclusive):
        is_in_stable(neutral, fp, g, (40.0, 40.0), max_iter=30)


def test_occupied_cells_extremes():
    cells = 4
    lo, hi = -1.0, 1.0
    width = (hi - lo) / cells
    centers = lo + (np.arange(cells) + 0.5) * width
    pts = []
    for a in centers:
        for b in centers:
            for c in centers:
                for d in centers:
                    pts.append((a + 1j * b, c + 1j * d))
    full = np.array(pts, dtype=complex)
    assert np.array_equal(occupied_cells(full, (lo, hi), cells), np.arange(cells**4))
    empty = np.empty((0, 2), dtype=complex)
    assert occupied_cells(empty, (lo, hi), cells).size == 0


def test_density_monotone_in_depth(henon075, henon_saddle, henon_graph):
    reports = density_sweep(henon075, henon_graph, range(1, 6), (-2.0, 2.0), 10)
    fracs = [r.fraction for r in reports]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert any(b > a for a, b in zip(fracs, fracs[1:]))


def test_each_pullback_cloud_keeps_its_own_mask(henon075, henon_graph):
    # pullback_clouds must not hand every cloud the one mask it goes on updating
    clouds = list(pullback_clouds(henon075, henon_graph, 8))
    alone = [pullback_cloud(henon075, henon_graph, n) for n in range(9)]
    assert [c.dropped for c in clouds] == [c.dropped for c in alone]
    assert all(np.array_equal(c.kept, a.kept) for c, a in zip(clouds, alone))
    assert clouds[0].dropped == 0 < clouds[-1].dropped


def _t_family(chain):
    return sheary_perturbation_family(chain, lambda t: (0.0, 0.0, t))


def test_graph_dist_is_the_t_gap_plus_fp_offset(henon075, henon_saddle):
    ts = [1e-2, 1e-3, 0.0]
    fam = _t_family(henon075)
    rows = stability_experiment(henon075, henon_saddle, fam, ts, delta=0.1, pullback_depth=0)
    base = local_stable_graph(henon075, henon_saddle, 0.1)
    bx, by = henon_saddle.location
    for t, row in zip(ts, rows):
        fp_t = find_fixed_point(fam(t), henon_saddle.location)
        g_t = local_stable_graph(fam(t), fp_t, 0.1)
        x, y = fp_t.location
        assert row.fp_offset == math.hypot(abs(x - bx), abs(y - by))
        assert row.graph_dist == float(np.max(np.abs(base.t_values - g_t.t_values))) + row.fp_offset


def test_centered_sheary_example(henon075, henon_saddle):
    # q(x) = t (x - 1.5)^2 fixes the saddle exactly but bends the graph
    fam = sheary_perturbation_family(henon075, lambda t: (2.25 * t, -3.0 * t, t))
    (row,) = stability_experiment(henon075, henon_saddle, fam, [1e-3], delta=0.1, pullback_depth=0)
    assert row.fp_offset == 0.0
    assert 0.0 < row.graph_dist < 0.05


@pytest.mark.parametrize("seed", range(6))
def test_matched_sup_is_at_least_the_hausdorff_distance(seed):
    # the pair (i, i) is one of the pairs each min of the Hausdorff distance
    # runs over, and its squared sum is the same number there
    rng = np.random.default_rng(seed)
    kept = rng.random(50) < 0.6
    a, b = (rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2)) for _ in range(2))
    d = a[kept] - b[kept]
    matched = float(np.sqrt(np.max(np.abs(d[:, 0]) ** 2 + np.abs(d[:, 1]) ** 2)))
    assert matched >= hausdorff_distance(a[kept], b[kept])


def test_cloud_dist_bounds_the_hausdorff_distance_of_the_shared_samples(henon075, henon_saddle):
    ts = [1e-2, 1e-3, 1e-4]
    fam = _t_family(henon075)
    rows = stability_experiment(henon075, henon_saddle, fam, ts, delta=0.1, pullback_depth=6)
    base = pullback_cloud(henon075, local_stable_graph(henon075, henon_saddle, 0.1), 6)
    for t, row in zip(ts, rows):
        fp_t = find_fixed_point(fam(t), henon_saddle.location)
        cloud = pullback_cloud(fam(t), local_stable_graph(fam(t), fp_t, 0.1), 6)
        both = base.kept & cloud.kept
        assert row.one_sided == np.count_nonzero(base.kept ^ cloud.kept)
        shared = hausdorff_distance(base.points[both[base.kept]], cloud.points[both[cloud.kept]])
        assert row.cloud_dist >= shared
        if row.one_sided == 0:  # on these rows the partners are the nearest points
            assert row.cloud_dist == hausdorff_distance(base.points, cloud.points)


def test_one_sided_counts_samples_only_one_cloud_keeps():
    # at c = 0.8 the depth-8 clouds reach the cap: two samples survive on one side only
    chain = henon_chain(0.8)
    fp = find_fixed_point(chain, (1.4, 1.4))
    (row,) = stability_experiment(chain, fp, _t_family(chain), [1e-2], delta=0.1, pullback_depth=8)
    assert row.one_sided == 2


def test_stability_experiment_decreasing(henon075, henon_saddle):
    fam = sheary_perturbation_family(henon075, lambda t: (0.0, 0.0, t))
    rows = stability_experiment(
        henon075, henon_saddle, fam, [1e-2, 1e-3, 0.0], delta=0.1, pullback_depth=2,
    )
    assert rows[0].fp_offset > rows[1].fp_offset > 0
    assert rows[0].graph_dist > rows[1].graph_dist > 0
    assert rows[0].cloud_dist > rows[1].cloud_dist > 0
    zero = rows[2]
    assert zero.fp_offset == 0.0
    assert zero.graph_dist == 0.0
    assert zero.cloud_dist == 0.0


def test_hausdorff_distance_brute_force_oracle():
    a = np.array([(0.0, 0.0), (1.0, 0.0)], dtype=complex)
    b = np.array([(0.0, 0.0), (1.0, 3.0)], dtype=complex)
    # by enumeration: directed(a->b) = 1 (from (1,0) to (0,0)); directed(b->a) = 3
    assert hausdorff_distance(a, b) == pytest.approx(3.0)
    assert hausdorff_distance(a, a) == 0.0
