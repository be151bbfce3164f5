"""Incremental pullback and integer cell ids against the code they replaced.

pullback_clouds continues depth n from the state depth n-1 reached, which is
the same operations in the same order as pulling the graph back n times from
scratch, so every cloud must be byte-identical to the per-depth loop frozen
below.  occupied_cells bins in numpy; its flat ids must name the same cells
as the frozen per-point set of 4-tuples.  The guard tests count inverse
passes (AutoChain.evaluate_batch calls), so a caller that goes back to
recomputing each depth from the graph fails them.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn.cli import main
from holodyn.core import DEFAULT_CAP, AutoChain, find_fixed_point
from holodyn.errors import InvalidParameter
from holodyn.manifold import density_sweep, local_stable_graph, occupied_cells, pullback_clouds
from holodyn.rng import make_generator

import mp_oracle
from conftest import forward_bound, round_trip_bound

HENON = str(Path(__file__).resolve().parents[1] / "maps" / "henon075.json")


def pullback_cloud_ref(chain, graph, depth):
    """The per-depth loop: depth inverse passes from the graph samples."""
    xs, ys = graph.to_ambient(graph.s_grid, graph.t_values)
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    ok = np.ones(xs.shape, dtype=bool)
    inv = chain.inverted()
    for _ in range(depth):
        xs, ys, step_ok = inv.evaluate_batch(xs, ys)
        ok &= step_ok
    return np.stack([xs[ok], ys[ok]], axis=1), int(np.count_nonzero(~ok))


def occupied_cells_ref(points, lo, hi, cells_per_axis):
    """The per-point set of 4-tuples, with one (lo, hi) for every axis."""
    if len(points) == 0:
        return set()
    comps = [points[:, 0].real, points[:, 0].imag, points[:, 1].real, points[:, 1].imag]
    idx = []
    inside = np.ones(len(points), dtype=bool)
    for comp in comps:
        k = np.floor((comp - lo) / (hi - lo) * cells_per_axis).astype(int)
        on_hi = comp == hi
        k[on_hi] = cells_per_axis - 1
        inside &= (comp >= lo) & (comp <= hi)
        idx.append(k)
    cells = set()
    stacked = np.stack(idx, axis=1)
    for row in stacked[inside]:
        cells.add(tuple(int(v) for v in row))
    return cells


def ref_ids(cells, cells_per_axis):
    """Flat ids of the reference tuples.  The reference gave index
    cells_per_axis to a point just below hi whose scaled offset rounds up to
    cells_per_axis, a cell outside the grid; clipping puts it in the last
    cell, as for a point on hi, which is what occupied_cells does."""
    if not cells:
        return np.empty(0, dtype=np.intp)
    k = np.array(sorted(cells)).T
    return np.unique(np.ravel_multi_index(k, (cells_per_axis,) * 4, mode="clip"))


@pytest.mark.parametrize("bound", [1e3, DEFAULT_CAP])
def test_pullback_clouds_match_per_depth_loop(henon075, henon_graph, bound):
    # Samples pass 1e3 at depth 6 and DEFAULT_CAP from depth 8 on.  The first
    # depth where a sample passes 1e3 keeps every sample; the first where one
    # passes DEFAULT_CAP drops it, and the drops carry on to depth 10.
    clouds = list(pullback_clouds(henon075, henon_graph, 10))
    assert len(clouds) == 11
    for depth, cloud in enumerate(clouds):
        points, dropped = pullback_cloud_ref(henon075, henon_graph, depth)
        assert cloud.points.shape == points.shape
        assert cloud.points.tobytes() == points.tobytes()
        assert cloud.dropped == dropped
    first = next(c for c in clouds if c.dropped or np.abs(c.points).max() > bound)
    if bound < DEFAULT_CAP:
        assert first.dropped == 0 and np.abs(first.points).max() > bound
    else:
        assert first.dropped > 0 and np.abs(first.points).max() <= bound
    assert clouds[0].dropped == 0 and clouds[-1].dropped > 0


def test_pullback_error_is_within_its_rounding_bound(henon075):
    """40 seeded samples of the saddle script's graph, pulled back to depth 8.
    Each depth-n point differs from the 50-digit inverse taken n times by at
    most twice forward_bound of the inverted steps repeated n times, and f^n
    brings it back to its graph point within twice round_trip_bound.  Both
    bounds grow with the intermediates the orbit reaches: over these samples
    the peak is 14, 4e4 and 1.2e11 at depths 4, 6 and 8, and the round trip
    errs by up to 2.4e-14, 1.7e-8 and 1.8e2."""
    fp = find_fixed_point(henon075, (1.4, 1.4))
    graph = local_stable_graph(henon075, fp, 0.1, mesh=(12, 24), tol=1e-9)
    pick = make_generator(8).choice(len(graph.s_grid), 40, replace=False)
    graph = dataclasses.replace(graph, s_grid=graph.s_grid[pick], t_values=graph.t_values[pick])
    starts = list(zip(*graph.to_ambient(graph.s_grid, graph.t_values)))
    want = list(starts)
    x, y = (np.array(v, dtype=complex) for v in zip(*starts))
    ok = np.ones(len(starts), dtype=bool)
    inv = henon075.inverted()
    clouds = pullback_clouds(henon075, graph, 8)
    next(clouds)
    for n, cloud in enumerate(clouds, start=1):
        x, y, step_ok = inv.evaluate_batch(x, y)  # the pass pullback_clouds makes
        ok &= step_ok
        assert cloud.points.tobytes() == np.stack([x[ok], y[ok]], axis=1).tobytes()
        bx, by = x, y
        for _ in range(n):
            bx, by = henon075.apply(bx, by)
        undo = [s.apply for s in henon075.steps * n]
        for k in np.flatnonzero(ok):
            want[k] = mp_oracle.inverse(henon075, want[k])
            err = max(abs(x[k] - want[k][0]), abs(y[k] - want[k][1]))
            assert err <= 2 * forward_bound(inv.steps * n, starts[k])
            back = max(abs(bx[k] - starts[k][0]), abs(by[k] - starts[k][1]))
            assert back <= 2 * round_trip_bound(inv.steps * n, starts[k], undo)
    assert 0 < np.count_nonzero(~ok) < len(ok)  # depth 8 drops some samples, not all


def test_pullback_clouds_reject_negative_depth(henon075, henon_graph):
    with pytest.raises(InvalidParameter):
        next(pullback_clouds(henon075, henon_graph, -1))


def _component(lo, hi):
    edges = st.sampled_from([lo, hi, float(np.nextafter(hi, lo)), float(np.nextafter(lo, hi))])
    inside = st.floats(lo, hi)
    outside = st.floats(-1e6, 1e6)
    return st.one_of(edges, inside, outside)


@st.composite
def binning_cases(draw):
    lo = draw(st.floats(-4.0, 4.0))
    hi = lo + draw(st.floats(0.25, 8.0))
    cells = draw(st.integers(1, 12))
    comp = _component(lo, hi)
    n = draw(st.integers(0, 40))
    rows = [[complex(draw(comp), draw(comp)), complex(draw(comp), draw(comp))] for _ in range(n)]
    return np.array(rows, dtype=complex).reshape(-1, 2), lo, hi, cells


@settings(max_examples=200, deadline=None)
@given(binning_cases())
def test_cell_ids_match_tuple_set(case):
    points, lo, hi, cells = case
    ids = occupied_cells(points, (lo, hi), cells)
    assert ids.dtype.kind == "i"
    assert np.array_equal(ids, ref_ids(occupied_cells_ref(points, lo, hi, cells), cells))


def test_point_just_below_hi_is_in_last_cell():
    # (c - lo) rounds up to hi - lo, so the scaled offset is exactly 10
    c = float(np.nextafter(2.0, -2.0))
    ids = occupied_cells(np.array([[complex(c, c), complex(c, c)]]), (-2.0, 2.0), 10)
    assert ids.tolist() == [9999]


def test_non_finite_and_huge_points_are_outside():
    pts = np.array([[complex(np.nan, 0), 0j], [complex(np.inf, 0), 0j], [1e300 + 0j, 0j]])
    assert occupied_cells(pts, (-2.0, 2.0), 10).size == 0


@pytest.mark.parametrize(
    "box, cells", [((1.0, 1.0), 10), ((2.0, -2.0), 10), ((-2.0, 2.0), 0)]
)
def test_binning_rejects_empty_grids(box, cells):
    with pytest.raises(InvalidParameter):
        occupied_cells(np.zeros((1, 2), dtype=complex), box, cells)


@pytest.mark.parametrize("depths", [[], [3, 2], [1, 1], [-1, 2]])
def test_density_sweep_rejects_bad_depths(henon075, henon_graph, depths):
    with pytest.raises(InvalidParameter):
        density_sweep(henon075, henon_graph, depths, (-2.0, 2.0), 10)


# -- inverse passes ------------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    count = [0]
    evaluate_batch = AutoChain.evaluate_batch

    def counted(self, *args, **kwargs):
        count[0] += 1
        return evaluate_batch(self, *args, **kwargs)

    monkeypatch.setattr(AutoChain, "evaluate_batch", counted)
    return count


def test_density_sweep_takes_one_pass_per_depth(henon075, henon_graph, passes):
    density_sweep(henon075, henon_graph, range(1, 9), (-2.0, 2.0), 10)
    assert passes[0] == 8


def test_cumulative_pullback_takes_one_pass_per_depth(passes, tmp_path):
    argv = ["pullback", "--map", HENON, "--seed-point", "1.4,1.4", "--depth", "12", "--cumulative"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert passes[0] == 12


def test_density_takes_one_pass_per_depth(passes, tmp_path):
    argv = ["density", "--map", HENON, "--seed-point", "1.4,1.4", "--depth", "12"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert passes[0] == 12
