"""Live-set iteration against the full-array loops it replaced.

The reference functions below are the loops that swept every point each step
and masked the dead ones out with np.where.  Compaction changes no arithmetic,
so every output must be identical, not merely close.  The blow-up step and
the sector test they call are frozen copies too, so the oracle does not
share code with what it checks.
"""
from __future__ import annotations

import math
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn import core, parabolic, rng
from holodyn.basin import (
    HYSTERESIS,
    _angle_2pi,
    VERDICT_CONVERGED,
    VERDICT_ESCAPED,
    bounded_set_probe,
    dichotomy_probe,
    interior_probe,
    orbit,
    orbit_verdicts,
    planar_homeo,
    psi,
)
from holodyn.core import (
    DEFAULT_CAP,
    AutoChain,
    EndoChain,
    Linear,
    QuadraticJet,
    diag_linear_chain,
    henon_chain,
    hypot_below,
    hypot_max,
    iterate_live,
)
from holodyn.errors import InvalidParameter
from holodyn.nonauto import (
    PlanarDemo,
    constant_sequence,
    grid_centres,
    demonstrator_witnesses,
    list_sequence,
    nonauto_attracting_probe,
    pointwise_vs_uniform_report,
)
from holodyn.parabolic import (
    _clusters,
    _sector_mask,
    _survivors,
    blowup_batch,
    graph_point,
    normal_form_family,
    tangent_shear_chain,
)
from holodyn.rng import ball4_points, make_generator

from conftest import shear_x

# -- reference loops ------------------------------------------------------------

# The references sweep the whole array, escaped points included, so their
# arithmetic overflows as the library's does; like core.iterate_live they run
# under one errstate per call.
quiet = np.errstate(over="ignore", invalid="ignore")


def _escaped_ref(nx, ny):
    with np.errstate(invalid="ignore", over="ignore"):
        big = np.maximum(np.abs(nx), np.abs(ny)) > DEFAULT_CAP
        return ~(np.isfinite(nx) & np.isfinite(ny)) | big


def blowup_batch_ref(map_like, xs, us):
    ys = us * xs
    fx, fy = map_like.apply(xs, ys)
    ok = np.abs(fx) > 1e-300
    u1 = np.where(ok, fy / np.where(ok, fx, 1.0), 0j)
    return fx, u1, ok


def sector_mask_ref(xs, us, eps):
    with np.errstate(invalid="ignore"):
        return (
            (np.abs(xs) < eps)
            & (np.abs(np.angle(-xs)) < eps)
            & (2 * np.abs(us) < np.abs(xs))
            & (np.abs(xs) > 0)
        )


@quiet
def survivors_ref(map_like, x, us, eps, horizon):
    xs = np.full(us.shape, x, dtype=complex)
    uu = us.astype(complex)
    alive = sector_mask_ref(xs, uu, eps)
    for _ in range(horizon):
        if not alive.any():
            break
        x1, u1, ok = blowup_batch_ref(map_like, xs, uu)
        alive &= ok
        xs = np.where(alive, x1, xs)
        uu = np.where(alive, u1, uu)
        alive &= sector_mask_ref(xs, uu, eps)
    return alive


@quiet
def orbit_verdicts_ref(chain, xs, ys, max_iter, target=None, conv_tol=1e-3):
    x = np.array(xs, dtype=complex, copy=True)
    y = np.array(ys, dtype=complex, copy=True)
    n = x.shape[0]
    codes = np.zeros(n, dtype=np.int8)
    steps = np.full(n, -1, dtype=np.int64)
    run = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for k in range(1, max_iter + 1):
        if not active.any():
            break
        nx, ny = chain.apply(x, y)
        esc = active & _escaped_ref(nx, ny)
        codes[esc] = VERDICT_ESCAPED
        steps[esc] = k
        active &= ~esc
        x = np.where(active, nx, x)
        y = np.where(active, ny, y)
        if target is not None:
            d = np.hypot(np.abs(x - target[0]), np.abs(y - target[1]))
            near = active & (d < conv_tol)
            run = np.where(near, run + 1, 0)
            conv = active & (run >= HYSTERESIS)
            codes[conv] = VERDICT_CONVERGED
            steps[conv] = k
            active &= ~conv
    return codes, steps


@quiet
def dichotomy_ref(chain, fp, r, m_max, samples=512, seed=11):
    px, py = fp.location
    cand_x, cand_y = [], []
    if fp.unstable_direction is not None:
        vu = fp.unstable_direction
        for rho in np.linspace(0.05 * r, r, 30):
            for ph in np.exp(2j * np.pi * np.arange(12) / 12):
                cand_x.append(px + rho * ph * vu[0])
                cand_y.append(py + rho * ph * vu[1])
    bx, by = ball4_points(seed, samples, r, center=(px, py))
    xs = np.concatenate([np.asarray(cand_x, dtype=complex), bx])
    ys = np.concatenate([np.asarray(cand_y, dtype=complex), by])
    x, y = xs.copy(), ys.copy()
    exit_run = np.zeros(xs.shape[0], dtype=np.int64)
    alive = np.ones(xs.shape[0], dtype=bool)
    for _ in range(m_max):
        if not alive.any():
            break
        nx, ny = chain.apply(x, y)
        esc = alive & _escaped_ref(nx, ny)
        exit_run[esc] = m_max
        alive &= ~esc
        x = np.where(alive, nx, x)
        y = np.where(alive, ny, y)
        outside = np.hypot(np.abs(x - px), np.abs(y - py)) >= r
        exit_run[alive & outside] += 1
        alive &= outside
    witnesses = {}
    cutoff = None
    for m in range(1, m_max + 1):
        ok = exit_run >= m
        if not ok.any():
            cutoff = m
            break
        i = int(np.argmax(ok))
        witnesses[m] = (complex(xs[i]), complex(ys[i]))
    largest = int(exit_run.max()) if exit_run.size else 0
    return min(largest, m_max), cutoff, witnesses


@quiet
def nonauto_probe_ref(seq, box, grid, n_max, conv_tol=1e-3):
    na, nb = grid
    if na == 0 or nb == 0:
        return np.zeros((nb, na), dtype=bool)
    xs, ys = grid_centres(box, grid)
    alive = np.ones(xs.shape[0], dtype=bool)
    run = (np.hypot(np.abs(xs), np.abs(ys)) < conv_tol).astype(np.int64)  # the start counts
    for j in range(1, n_max + 1):
        nx, ny = seq(j).apply(xs, ys)
        alive &= ~_escaped_ref(nx, ny)
        xs = np.where(alive, nx, xs)
        ys = np.where(alive, ny, ys)
        near = alive & (np.hypot(np.abs(xs), np.abs(ys)) < conv_tol)
        run = np.where(near, run + 1, 0)
    return (alive & (run >= min(HYSTERESIS + 1, n_max + 1))).reshape(nb, na)


def planar_homeo_ref(z):
    """basin.planar_homeo as written with np.mod for the angle in [0, 2 pi)."""
    zz = np.asarray(z, dtype=complex)
    r = np.abs(zz)
    out = np.empty_like(zz)
    outer = r >= 1.0
    theta = np.mod(np.angle(zz[outer]), 2.0 * np.pi)
    out[outer] = (r[outer] + 1.0) / 2.0 * np.exp(1j * psi(theta))
    zi = zz[~outer]
    near_one = np.abs(zi - 1.0) < 1e-14
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.abs(zi - 1.0) ** 2 / (2.0 - 2.0 * zi.real)
    c = 1.0 - s
    w = c + s * np.exp(1j * psi(np.mod(np.angle(zi - c), 2.0 * np.pi)))
    w[near_one] = 1.0
    out[~outer] = w
    return out


def pointwise_ref(seq, box, n_max, grid, conv_tol=1e-3, witnesses=()):
    """The report's (n, sup, fraction) rows with every distance from np.hypot."""
    xs, ys = grid_centres(box, grid)
    if witnesses:
        xs = np.concatenate([xs, np.asarray([w[0] for w in witnesses], dtype=complex)])
        ys = np.concatenate([ys, np.asarray([w[1] for w in witnesses], dtype=complex)])
    dist = np.hypot(np.abs(xs), np.abs(ys))
    rows = [(0, float(dist.max()), float(np.mean(dist < conv_tol)))]
    for j in range(1, n_max + 1):
        nx, ny = seq(j).apply(xs, ys)
        bad = _escaped_ref(nx, ny)
        xs = np.where(bad, xs, nx)
        ys = np.where(bad, ys, ny)
        dist = np.hypot(np.abs(xs), np.abs(ys))
        rows.append((j, float(dist.max()), float(np.mean(dist < conv_tol))))
    return rows


def pointwise_full_array_ref(seq, box, n_max, grid, conv_tol=1e-3, witnesses=()):
    """The report's rows from the loop over the whole grid that preceded the
    blocks: hypot_max and hypot_below on every point at every step."""
    xs, ys = grid_centres(box, grid)
    if witnesses:
        xs = np.concatenate([xs, np.asarray([w[0] for w in witnesses], dtype=complex)])
        ys = np.concatenate([ys, np.asarray([w[1] for w in witnesses], dtype=complex)])

    def row(n, xs, ys):
        ax, ay = np.abs(xs), np.abs(ys)
        return (n, float(hypot_max(ax, ay)), float(np.mean(hypot_below(ax, ay, conv_tol))))

    rows = [row(0, xs, ys)]
    for j in range(1, n_max + 1):
        nx, ny = seq(j).apply(xs, ys)
        bad = _escaped_ref(nx, ny)
        xs = np.where(bad, xs, nx)
        ys = np.where(bad, ys, ny)
        rows.append(row(j, xs, ys))
    return rows


def ball4_points_ref(seed, n, radius, center=(0j, 0j)):
    """rng.ball4_points as one draw of all normals, then all radii."""
    g = make_generator(seed)
    v = g.standard_normal((n, 4))
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0] = 1.0
    r = radius * g.random(n) ** 0.25
    v = v * (r / norms)[:, None]
    xs = v[:, 0] + 1j * v[:, 1] + center[0]
    ys = v[:, 2] + 1j * v[:, 3] + center[1]
    return xs, ys


def clusters_ref(points, link):
    """Stack-based components and their pairwise gaps, one point at a time."""
    used = [False] * len(points)
    groups = []
    for i in range(len(points)):
        if used[i]:
            continue
        stack, comp = [i], []
        used[i] = True
        while stack:
            k = stack.pop()
            comp.append(k)
            for j in np.flatnonzero(np.abs(points - points[k]) <= link):
                if not used[j]:
                    used[j] = True
                    stack.append(int(j))
        groups.append(comp)
    gaps = [
        float(np.min(np.abs(points[a][:, None] - points[b][None, :])))
        for i, a in enumerate(groups)
        for b in groups[i + 1 :]
    ]
    return len(groups), min(gaps) if gaps else math.inf


# -- inputs -----------------------------------------------------------------------

_seeds = st.integers(0, 2**32 - 1)

# x + 128 x^2 vanishes exactly at x = -2^-7, so blowup_batch reports ok=False
# for every u there: all cells die at the first step
_JET_ZERO = EndoChain((QuadraticJet((128.0, 0.0, 0.0), (0.0, -2.0, -1.0)),))
# with an xy term the image x is 0 at u = 0 and a nonzero x1 with |x1| <= 1e-300
# at u = -1e-303, which would pass the sector test if ok were ignored
_JET_ZERO_AT_U0 = EndoChain((QuadraticJet((128.0, 64.0, 0.0), (0.0, -2.0, -1.0)),))
_X_ZERO = -(2.0**-7)

_PARABOLIC_MAPS = [
    normal_form_family(0.0),
    normal_form_family(1.0),
    normal_form_family(3.0 + 0.5j),
    tangent_shear_chain(3.0),
    _JET_ZERO,
    _JET_ZERO_AT_U0,
]


def _sector_inputs(seed, n, x, spread):
    """u in the disc 2|u| <= spread |x|, led by u = 0 and u = -1e-303."""
    g = np.random.default_rng(seed)
    rho = 0.5 * spread * abs(x) * np.sqrt(g.random(n))
    us = rho * np.exp(2j * np.pi * g.random(n))
    us[:2] = (0.0, -1e-303)[:n]
    return us


# _escaped_near skips the escape test where max(|nx - c0|, |ny - c1|) <= CAP/2,
# and only when max(|c0|, |c1|) and the bound are <= CAP/4: centres just below
# and just above CAP/4 run the shortcut and the full tests, and scales of
# 3e11 and 6e11 put image moduli between CAP/2 and CAP
_QUARTER_CAP = DEFAULT_CAP / 4
_BELOW_QUARTER = math.nextafter(_QUARTER_CAP, 0.0)
_ABOVE_QUARTER = math.nextafter(_QUARTER_CAP, math.inf)
_TARGETS = [
    None,
    (0j, 0j),
    (0.1 + 0j, -0.2j),
    (0.3j, complex(_BELOW_QUARTER, 0.0)),
    (complex(0.0, -_BELOW_QUARTER), 0.1 + 0j),
    (complex(_ABOVE_QUARTER, 0.0), 0.2j),
    (0.1 + 0j, complex(0.0, -_ABOVE_QUARTER)),
]
_HUGE_TOLS = [_BELOW_QUARTER, _QUARTER_CAP, _ABOVE_QUARTER, DEFAULT_CAP / 2, DEFAULT_CAP, math.inf]


# the swap map (x, y) -> (a y, b x) with ab < 1 converges to 0 while its
# distance to 0 alternates, so runs in a conv_tol ball start and reset
def _swap(a, b):
    return AutoChain((Linear(0.0, a, b, 0.0),))


_ORBIT_CHAINS = [
    henon_chain(0.75),
    henon_chain(-0.3 + 0.2j),
    diag_linear_chain(0.5, 0.9j),
    _swap(0.5, 1.9),
    AutoChain((shear_x((0.0, 0.0, 1.0)),)),
]


def _orbit_inputs(seed, n, scale, huge):
    g = np.random.default_rng(seed)
    xs = scale * (g.standard_normal(n) + 1j * g.standard_normal(n))
    ys = scale * (g.standard_normal(n) + 1j * g.standard_normal(n))
    if huge and n:
        xs[::3] = 1e200  # squares to inf: a non-finite image
    return xs, ys


# -- the kernel itself ------------------------------------------------------------


def test_iterate_live_scatters_through_original_indices():
    seen = []

    def advance(k, idx, v):
        seen.append(idx.copy())
        return v > k, (v,)

    idx, (v,) = iterate_live(advance, (np.array([3, 1, 5, 0, 4]),), 10)
    assert [s.tolist() for s in seen] == [[0, 1, 2, 3, 4], [0, 2, 4], [0, 2, 4], [2, 4], [2]]
    assert idx.tolist() == [] and v.size == 0


def test_iterate_live_zero_steps_and_empty_input():
    def advance(k, idx, v):  # pragma: no cover - must not run
        raise AssertionError("advance called")

    idx, (v,) = iterate_live(advance, (np.arange(3.0),), 0)
    assert idx.tolist() == [0, 1, 2] and v.tolist() == [0.0, 1.0, 2.0]
    idx, (v,) = iterate_live(advance, (np.empty(0),), 5)
    assert idx.size == 0


# -- blocks -----------------------------------------------------------------------

# With blocks of 7 points every input below spans several blocks.  A point's
# orbit does not depend on the other points, so each result must equal the
# one-block run of the same input.


def _in_blocks(fn, *args, **kw):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", 7)
        return fn(*args, **kw)


def test_iterate_live_concatenates_the_live_sets_of_its_blocks():
    seen = []

    def advance(k, idx, v):
        seen.append(idx.copy())
        return v > k, (v,)

    v0 = np.array([3, 1, 5, 0, 4, 9, 2, 0, 0, 1, 0, 0, 0, 1, 6, 8, 0])
    want = iterate_live(advance, (v0,), 4)
    seen.clear()
    idx, (v,) = _in_blocks(iterate_live, advance, (v0,), 4)
    assert idx.tolist() == want[0].tolist() == [2, 5, 14, 15]
    assert v.tolist() == want[1][0].tolist() == [5, 9, 6, 8]
    # each call sees one block; the second block (7..13) empties at step 1
    assert all(s.min() // 7 == s.max() // 7 for s in seen)
    assert [s.tolist() for s in seen if s.min() // 7 == 1] == [list(range(7, 14))]


@pytest.mark.parametrize("n", [0, 6, 7, 8, 45])
@pytest.mark.parametrize("target", [None, (0j, 0j)])
def test_orbit_verdicts_unchanged_by_blocks(n, target):
    xs, ys = _orbit_inputs(3, n, 0.5, False)
    xs[7:14] = 1e200  # the second block escapes at step 1
    for chain in _ORBIT_CHAINS:
        codes, steps = _in_blocks(orbit_verdicts, chain, xs, ys, 80, target=target)
        want = orbit_verdicts(chain, xs, ys, 80, target=target)
        assert np.array_equal(codes, want[0]) and np.array_equal(steps, want[1])
        assert (steps[7:14] == 1).all()


@pytest.mark.parametrize("loc, unstable", [((0j, 0j), False), ((0.5 + 0.1j, 0.5 - 0.2j), True)])
@pytest.mark.parametrize("samples", [0, 40])
def test_dichotomy_unchanged_by_blocks(loc, unstable, samples):
    # at loc 0, diag_linear_chain(0.5, 0.9j) brings every point into the ball at step 1
    vu = np.array([0.6, 0.8j]) if unstable else None
    fp = SimpleNamespace(location=loc, unstable_direction=vu)
    for chain in _ORBIT_CHAINS:
        got = _in_blocks(dichotomy_probe, chain, fp, 0.5, 30, samples=samples)
        want = dichotomy_probe(chain, fp, 0.5, 30, samples=samples)
        assert (got.largest_witnessed_m, got.cutoff_m0, got.witnesses) == (
            want.largest_witnessed_m, want.cutoff_m0, want.witnesses,
        )


@pytest.mark.parametrize("grid", [(7, 6), (5, 9), (0, 3)])
def test_nonauto_probe_unchanged_by_blocks(grid):
    cases = [(seq, ((-1.0, 1.0), (-0.5, 0.5)), 40) for seq in _SEQUENCES]
    # on the 7 x 6 grid each row is a block, and rows 1-5 pass DEFAULT_CAP at step 1
    cases.append((constant_sequence(diag_linear_chain(1e7, 1e7)), ((-1.0, 1.0), (0.0, 1e6)), 5))
    for seq, box, n_max in cases:
        got = _in_blocks(nonauto_attracting_probe, seq, box, grid, n_max, conv_tol=0.05)
        assert np.array_equal(got, nonauto_attracting_probe(seq, box, grid, n_max, conv_tol=0.05))


@pytest.mark.parametrize("n", [0, 50])
@pytest.mark.parametrize(
    "map_like, x", [(m, -0.01) for m in _PARABOLIC_MAPS[:4]] + [(_JET_ZERO, _X_ZERO)]
)
def test_survivors_unchanged_by_blocks(map_like, x, n):
    # every image x of _JET_ZERO vanishes, so each block empties at step 1
    us = _sector_inputs(4, n, x, 1.5)
    got = _in_blocks(_survivors, map_like, x, us, 0.02, 60)
    assert np.array_equal(got, _survivors(map_like, x, us, 0.02, 60))


def test_pooled_probes_unchanged_by_blocks_and_threads():
    # in blocks of 7 every thread has work
    chain, fp = diag_linear_chain(0.5, 0.9j), SimpleNamespace(location=(0j, 0j))
    box = ((-2.0, 2.0), (-2.0, 2.0))
    rep = interior_probe(chain, fp, 0.5, 100, max_iter=60)
    occupied = bounded_set_probe(henon_chain(0.75), box, (9, 8), 60)
    assert 0 < rep.converged < 100 and 0 < occupied.sum() < occupied.size
    for threads in (1, 2, 3):
        got = _in_blocks(interior_probe, chain, fp, 0.5, 100, max_iter=60, threads=threads)
        assert vars(got) == vars(rep)
        got = _in_blocks(bounded_set_probe, henon_chain(0.75), box, (9, 8), 60, threads=threads)
        assert np.array_equal(got, occupied)


def test_overflow_on_a_worker_block_is_an_escape_without_warnings():
    # numpy's errstate is per thread, so each pool thread must enter its own
    chain = henon_chain(0.75)
    barrier, started = threading.Barrier(2, timeout=10), set()

    def apply(x, y):  # each thread's first block waits for the other's: both run one
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            barrier.wait()
        return chain.apply(x, y)

    xs = np.full(30, 1e200 + 0j)  # squares to inf, and inf - inf is nan
    xs[1::2] = 0.1
    ys = np.zeros(30, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes, steps = _in_blocks(orbit_verdicts, SimpleNamespace(apply=apply), xs, ys, 60, threads=2)
    assert len(started) == 2
    assert (codes[::2] == VERDICT_ESCAPED).all() and (steps[::2] == 1).all()
    want = orbit_verdicts(chain, xs, ys, 60)
    assert np.array_equal(codes, want[0]) and np.array_equal(steps, want[1])


# -- rng.ball4_points in blocks ------------------------------------------------

_CENTRES = st.sampled_from([0j, -0.0 + 0j, complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 + 1.5j, -2.5 - 0j])
_RADII = st.sampled_from([0.0, 5e-324, 1e-300, 1e300, math.inf]) | st.floats(1e-3, 10.0)


@settings(max_examples=80, deadline=None)
@given(seed=_seeds, n=st.integers(0, 45), radius=_RADII, cx=_CENTRES, cy=_CENTRES)
def test_ball4_points_in_blocks_match_one_draw(seed, n, radius, cx, cy):
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(rng, "_BLOCK", 7)
        got = ball4_points(seed, n, radius, center=(cx, cy))
        want = ball4_points_ref(seed, n, radius, center=(cx, cy))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("extra", [-1, 0, 1, core._BLOCK + 1])
def test_ball4_points_across_block_edges_match_one_draw(extra):
    n = core._BLOCK + extra
    got = ball4_points(7, n, 0.5, center=(1.5 - 0j, complex(-0.0, 2.0)))
    want = ball4_points_ref(7, n, 0.5, center=(1.5 - 0j, complex(-0.0, 2.0)))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_ball4_points_working_memory_does_not_grow_with_the_sample_count():
    def working_bytes(blocks):
        tracemalloc.start()
        try:
            xs, ys = ball4_points(3, blocks * core._BLOCK, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - xs.nbytes - ys.nbytes

    assert working_bytes(8) <= 1.2 * working_bytes(2)


# -- the pool of core.iterate_live --------------------------------------------------


def _pooled(on_block, n, threads, block=7):
    """One step of iterate_live over range(n) in blocks of `block` that keeps
    every point and calls on_block(lo) once per block; returns the final idx."""

    def advance(k, idx, v):
        on_block(int(idx[0]))
        return np.ones(idx.size, dtype=bool), (v,)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        idx, (v,) = iterate_live(advance, (np.arange(n),), 1, threads)
    assert np.array_equal(idx, v)
    return idx.tolist()


def test_map_chunks_gives_the_blocks_in_order():
    for threads in (1, 2, 3):
        seen = []

        def on_block(lo):
            time.sleep(0.01 if lo == 0 else 0.0)  # later blocks end first
            seen.append(threading.current_thread())

        assert _pooled(on_block, 45, threads) == list(range(45))
        assert len(seen) == 7 and len(set(seen)) <= threads


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_chunks_starts_threads_minus_one_workers(threads):
    before = threading.active_count()
    barrier = threading.Barrier(threads, timeout=10)  # the first blocks need `threads` threads at once
    seen = []

    def on_block(lo):
        if lo < 7 * threads:
            barrier.wait()
        seen.append((threading.current_thread(), threading.active_count()))

    assert _pooled(on_block, 45, threads) == list(range(45))
    assert len({t for t, _ in seen}) == threads and threading.current_thread() in {t for t, _ in seen}
    assert max(count for _, count in seen) == before + threads - 1
    assert threading.active_count() == before
    # one block is not shared: the caller runs it and starts no worker
    counts = []
    assert _pooled(lambda lo: counts.append(threading.active_count()), 5, 3) == list(range(5))
    assert counts == [before]


@pytest.mark.parametrize("failing", ["caller", "worker", "both"])
def test_map_chunks_reraises_a_block_error(failing):
    before = threading.active_count()
    caller = threading.current_thread()
    barrier = threading.Barrier(2, timeout=10)  # blocks 0 and 1 run on different threads

    def on_block(lo):
        if lo < 14:
            barrier.wait()
        on_caller = threading.current_thread() is caller
        if failing == "both" or on_caller == (failing == "caller"):
            raise ValueError(f"block {lo}")

    with pytest.raises(ValueError, match="block 0" if failing == "both" else "block (0|7)$"):
        _pooled(on_block, 45, 2)
    assert threading.active_count() == before


def test_map_chunks_runs_each_block_once_under_thread_switches():
    ran = []  # list.append is atomic: a block taken twice or never shows here
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (3, 5):  # more threads than the host's cores
            ran.clear()
            assert _pooled(ran.append, 2000, threads, block=1) == list(range(2000))
            assert sorted(ran) == list(range(2000))
    finally:
        sys.setswitchinterval(old)


def test_map_chunks_takes_no_block_after_an_error():
    ran = []

    def on_block(lo):
        ran.append(lo)
        if lo == 14:
            raise ValueError(f"block {lo}")

    with pytest.raises(ValueError, match="block 14"):
        _pooled(on_block, 45, 1)
    assert ran == [0, 7, 14]


def test_orbit_verdicts_working_memory_does_not_grow_with_the_sample_count():
    chain = diag_linear_chain(0.5, 0.5)

    def working_bytes(blocks):
        g = np.random.default_rng(5)
        n = blocks * core._BLOCK
        xs = g.random(n) - 0.5 + 0j
        ys = g.random(n) - 0.5 + 0j
        tracemalloc.start()
        try:
            codes, steps = orbit_verdicts(chain, xs, ys, 100, target=(0j, 0j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (codes == VERDICT_CONVERGED).all()  # no live set is left to concatenate
        return peak - codes.nbytes - steps.nbytes

    assert working_bytes(8) <= 1.2 * working_bytes(2)


# -- parabolic._survivors ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(0, len(_PARABOLIC_MAPS) - 1),
    r=st.floats(0.004, 0.019),
    phi=st.floats(-0.01, 0.01),
    seed=_seeds,
    n=st.integers(0, 300),
    spread=st.floats(0.5, 3.0),
    eps=st.floats(0.01, 0.03),
    horizon=st.integers(0, 200),
)
def test_survivors_match_full_array_loop(m, r, phi, seed, n, spread, eps, horizon):
    map_like = _PARABOLIC_MAPS[m]
    x = _X_ZERO if map_like in (_JET_ZERO, _JET_ZERO_AT_U0) else -r * np.exp(1j * phi)
    us = _sector_inputs(seed, n, x, spread)
    got = _survivors(map_like, x, us, eps, horizon)
    assert got.dtype == bool and np.array_equal(got, survivors_ref(map_like, x, us, eps, horizon))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(0, len(_PARABOLIC_MAPS) - 1),
    r=st.floats(0.004, 0.019),
    phi=st.floats(-0.01, 0.01),
    seed=_seeds,
    n=st.integers(0, 300),
    spread=st.floats(0.5, 3.0),
    eps=st.floats(0.01, 0.03),
)
def test_blowup_step_and_sector_test_match_their_reference_bytes(m, r, phi, seed, n, spread, eps):
    map_like = _PARABOLIC_MAPS[m]
    x = _X_ZERO if map_like in (_JET_ZERO, _JET_ZERO_AT_U0) else -r * np.exp(1j * phi)
    xs = np.full(n, x, dtype=complex)
    us = _sector_inputs(seed, n, x, spread)
    for _ in range(3):  # later steps start from images outside the sector too
        got, want = blowup_batch(map_like, xs, us), blowup_batch_ref(map_like, xs, us)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        mask = _sector_mask(*got[:2], eps)
        assert mask.tobytes() == sector_mask_ref(*want[:2], eps).tobytes()
        xs, us = got[:2]
    odd = np.array([0j, -0.0 - 0.0j, complex(math.inf, 0), complex(math.nan, 1), -0.01 + 0j])
    assert _sector_mask(odd, odd[::-1], eps).tobytes() == sector_mask_ref(odd, odd[::-1], eps).tobytes()


@pytest.mark.parametrize(
    "map_like, x, n, horizon",
    [
        (_JET_ZERO, _X_ZERO, 200, 5),  # every image x is exactly 0
        (_JET_ZERO_AT_U0, _X_ZERO, 200, 5),  # only the first two cells get ok=False
        (normal_form_family(0.0), -0.01, 200, 0),  # horizon 0
        (normal_form_family(0.0), -0.01, 200, 50),
        (normal_form_family(0.0), -0.03, 200, 50),  # x outside W_eps: no live cell
        (normal_form_family(0.0), -0.01, 0, 50),  # empty input
    ],
)
def test_survivors_edge_cases(map_like, x, n, horizon):
    us = _sector_inputs(5, n, x, 1.5)
    got = _survivors(map_like, x, us, 0.02, horizon)
    assert np.array_equal(got, survivors_ref(map_like, x, us, 0.02, horizon))
    if abs(x) >= 0.02:
        assert not got.any()


def test_survivors_first_step_kills_cells_with_vanishing_image():
    us = _sector_inputs(9, 50, _X_ZERO, 1.0)
    assert not _survivors(_JET_ZERO, _X_ZERO, us, 0.02, 3).any()
    got = _survivors(_JET_ZERO_AT_U0, _X_ZERO, us, 0.02, 1)
    assert np.array_equal(got, survivors_ref(_JET_ZERO_AT_U0, _X_ZERO, us, 0.02, 1))
    x1, u1, ok = blowup_batch(_JET_ZERO_AT_U0, np.full(2, _X_ZERO, dtype=complex), us[:2])
    ref = blowup_batch_ref(_JET_ZERO_AT_U0, np.full(2, _X_ZERO, dtype=complex), us[:2])
    assert [a.tobytes() for a in (x1, u1, ok)] == [a.tobytes() for a in ref]
    assert x1[0] == 0 and 0 < abs(x1[1]) <= 1e-300 and not ok.any()
    assert _sector_mask(x1, u1, 0.02)[1]  # only ok=False removes this cell
    assert not got[:2].any()


# -- basin.orbit_verdicts ---------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    c=st.integers(0, len(_ORBIT_CHAINS) - 1),
    seed=_seeds,
    n=st.integers(0, 200),
    scale=st.sampled_from([0.05, 0.5, 2.0, 3e11, 6e11]),
    huge=st.booleans(),
    max_iter=st.integers(0, 150),
    target=st.sampled_from(_TARGETS),
    centred=st.booleans(),
    conv_tol=st.floats(1e-3, 1.0) | st.sampled_from(_HUGE_TOLS),
)
def test_orbit_verdicts_match_full_array_loop(
    c, seed, n, scale, huge, max_iter, target, centred, conv_tol
):
    chain = _ORBIT_CHAINS[c]
    xs, ys = _orbit_inputs(seed, n, scale, huge)
    if centred and target is not None:  # start about the target, not about 0
        xs, ys = xs + target[0], ys + target[1]
    args = (chain, xs, ys, max_iter)
    kw = {"target": target, "conv_tol": conv_tol}
    codes, steps = orbit_verdicts(*args, **kw)
    ref_codes, ref_steps = orbit_verdicts_ref(*args, **kw)
    assert codes.dtype == ref_codes.dtype and steps.dtype == ref_steps.dtype
    assert np.array_equal(codes, ref_codes) and np.array_equal(steps, ref_steps)


def test_orbit_verdicts_escape_through_cap_and_non_finite_images():
    xs = np.array([0.1, 3.0, 1e200, 0.2 + 0.1j])
    ys = np.array([0.0, 0.0, 0.0, 0.1])
    chain = henon_chain(0.75)
    got = orbit_verdicts(chain, xs, ys, 60)
    ref = orbit_verdicts_ref(chain, xs, ys, 60)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert got[0][2] == VERDICT_ESCAPED and got[1][2] == 1  # 1e400 is inf
    # the orbit of 3 passes DEFAULT_CAP with a finite image
    rec = orbit(chain, (3.0, 0.0), 60)
    x, y = chain.apply(*rec.states[-1])
    assert rec.verdict == "escaped" and DEFAULT_CAP < max(abs(x), abs(y)) < math.inf
    assert got[0][1] == VERDICT_ESCAPED and got[1][1] == rec.step
    assert orbit_verdicts(chain, xs, ys, 0)[1].tolist() == [-1] * 4


def test_orbit_verdicts_escape_without_overflow_warnings():
    # an orbit that overflows on its way out is an escape verdict, not a fault
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, ys = [0.1, 3, 1e200, 0.2 + 0.1j], [0, 0, 0, 0.1]
        codes, steps = orbit_verdicts(henon_chain(0.75), xs, ys, 60)
    assert codes[1] == codes[2] == VERDICT_ESCAPED and steps[2] == 1


def test_orbit_verdicts_escape_on_the_step_a_run_completes_is_an_escape():
    # 1.5e6 * 2^k passes DEFAULT_CAP first at k = HYSTERESIS, where an
    # infinite conv_tol completes the run: the escape wins, as it did when
    # escaped points could not be near
    chain, xs, ys = diag_linear_chain(2.0, 0.5), np.array([1.5e6 + 0j, 1.0]), np.array([0j, 0j])
    for tol in (math.inf, DEFAULT_CAP * 2.0):
        codes, steps = orbit_verdicts(chain, xs, ys, 60, target=(0j, 0j), conv_tol=tol)
        ref = orbit_verdicts_ref(chain, xs, ys, 60, target=(0j, 0j), conv_tol=tol)
        assert np.array_equal(codes, ref[0]) and np.array_equal(steps, ref[1])
        assert codes.tolist() == [VERDICT_ESCAPED, VERDICT_CONVERGED]
        assert steps.tolist() == [HYSTERESIS, HYSTERESIS]


def test_orbit_verdicts_hysteresis_resets_when_leaving_the_ball():
    chain, tol = _swap(0.5, 1.9), 0.5
    xs, ys = np.array([1.0 + 0j]), np.array([0j])
    codes, steps = orbit_verdicts(chain, xs, ys, 200, target=(0j, 0j), conv_tol=tol)
    ref = orbit_verdicts_ref(chain, xs, ys, 200, target=(0j, 0j), conv_tol=tol)
    assert np.array_equal(codes, ref[0]) and np.array_equal(steps, ref[1])
    rec = orbit(chain, (1.0, 0.0), 200, target=(0j, 0j), conv_tol=tol)
    first_in = next(k for k, (x, y) in enumerate(rec.states) if math.hypot(abs(x), abs(y)) < tol)
    assert codes[0] == VERDICT_CONVERGED and steps[0] == rec.step
    assert steps[0] > first_in + HYSTERESIS  # the run restarted at least once


# -- basin.dichotomy_probe --------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    c=st.integers(0, len(_ORBIT_CHAINS) - 1),
    loc=st.sampled_from([(0j, 0j), (0.5 + 0.1j, 0.5 - 0.2j), (1.5, 1.5), *_TARGETS[3:]]),
    unstable=st.booleans(),
    r=st.floats(0.05, 2.0) | st.sampled_from([1e11, *_HUGE_TOLS[:-1], 3e11, 6e11]),
    m_max=st.integers(0, 60),
    samples=st.integers(0, 128),
    seed=_seeds,
)
def test_dichotomy_matches_full_array_loop(c, loc, unstable, r, m_max, samples, seed):
    chain = _ORBIT_CHAINS[c]
    vu = np.array([0.6, 0.8j]) if unstable else None
    fp = SimpleNamespace(location=loc, unstable_direction=vu)
    rep = dichotomy_probe(chain, fp, r, m_max, samples=samples, seed=seed)
    largest, cutoff, witnesses = dichotomy_ref(chain, fp, r, m_max, samples, seed)
    assert (rep.largest_witnessed_m, rep.cutoff_m0, rep.witnesses) == (largest, cutoff, witnesses)


def test_dichotomy_empty_input_and_zero_steps():
    fp = SimpleNamespace(location=(0j, 0j), unstable_direction=None)
    chain = henon_chain(0.75)
    for samples, m_max in ((0, 10), (16, 0)):
        rep = dichotomy_probe(chain, fp, 1.0, m_max, samples=samples)
        ref = dichotomy_ref(chain, fp, 1.0, m_max, samples)
        assert (rep.largest_witnessed_m, rep.cutoff_m0, rep.witnesses) == ref


# -- nonauto.nonauto_attracting_probe ---------------------------------------------


def _alternating(coeffs):
    fwd = AutoChain((shear_x(coeffs),))
    back = fwd.inverted()
    return lambda j: fwd if j % 2 == 1 else back


_SEQUENCES = [
    constant_sequence(diag_linear_chain(0.5, 0.5)),
    constant_sequence(_swap(0.5, 1.9)),
    constant_sequence(henon_chain(0.75)),
    constant_sequence(PlanarDemo()),
    _alternating((0.0, 1.0)),
    lambda j: diag_linear_chain(0.9 if j % 3 else 3.0, 0.8),
]


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(0, len(_SEQUENCES) - 1),
    half=st.floats(0.1, 3.0),
    grid=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    n_max=st.integers(0, 80),
    conv_tol=st.floats(1e-3, 1.0),
)
def test_nonauto_probe_matches_full_array_loop(s, half, grid, n_max, conv_tol):
    box = ((-half, half), (-half, 0.5 * half))
    args = (_SEQUENCES[s], box, grid, n_max)
    got = nonauto_attracting_probe(*args, conv_tol=conv_tol)
    ref = nonauto_probe_ref(*args, conv_tol=conv_tol)
    assert got.dtype == bool and got.shape == ref.shape and np.array_equal(got, ref)


def test_nonauto_probe_requests_every_member_after_all_cells_died():
    seq = list_sequence([diag_linear_chain(1e7, 1e7)] * 3)
    # every centre has |x| >= 0.25, so all cells pass DEFAULT_CAP at step 2,
    # yet the list has no 5th map
    with pytest.raises(InvalidParameter, match="sequence has 3 map"):
        nonauto_probe_ref(seq, ((-1, 1), (-1, 1)), (4, 4), 5)
    with pytest.raises(InvalidParameter, match="sequence has 3 map"):
        nonauto_attracting_probe(seq, ((-1, 1), (-1, 1)), (4, 4), 5)


# -- survivor clusters, diameter and gap -------------------------------------------


def _cluster_points(seed, n, blobs, lattice):
    """Points in a few blobs; on the lattice, neighbours lie exactly 1 apart."""
    g = np.random.default_rng(seed)
    if lattice:
        return g.integers(0, 3 * blobs, n) + 1j * g.integers(0, 3, n)
    centres = 10 * (g.random(blobs) + 1j * g.random(blobs))
    return centres[g.integers(0, blobs, n)] + g.random(n) + 1j * g.random(n)


@settings(max_examples=60, deadline=None)
@given(
    seed=_seeds,
    n=st.integers(1, 120),
    blobs=st.integers(1, 5),
    link=st.floats(0.01, 2.0),
    lattice=st.booleans(),
    block=st.sampled_from([1, 7, 1 << 18]),
)
def test_clusters_match_point_by_point_search(seed, n, blobs, link, lattice, block):
    pts = _cluster_points(seed, n, blobs, lattice)
    if lattice:
        link = 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_PAIR_BLOCK", block)
        assert _clusters(pts, link) == clusters_ref(pts, link)
        dense = float(np.max(np.abs(pts[:, None] - pts[None, :])))
        blocked = max(float(d.max()) for _, d in core._distance_blocks(pts, pts))
        assert blocked == dense


def test_graph_point_unchanged_by_block_size():
    m = normal_form_family(1.0)
    ref = graph_point(m, -0.01, resolution=1e-5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_PAIR_BLOCK", 3)
        got = graph_point(m, -0.01, resolution=1e-5)
    assert (got.u, got.certified_radius, got.levels, got.final_horizon) == (
        ref.u, ref.certified_radius, ref.levels, ref.final_horizon,
    )


# -- nonauto.pointwise_vs_uniform_report and basin.planar_homeo ---------------------

# signed zeros; angle +-pi outside the disc and, about the inner circle's
# centre, for real points inside it; the unit circle; and 1 itself
_PLANAR_SPECIALS = np.array(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
     complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-2.5, 0.0), complex(-2.5, -0.0),
     complex(-0.5, 0.0), complex(-0.5, -0.0), complex(0.5, -0.0), complex(1e-300, -0.0),
     1j, -1j, complex(0.6, 0.8), complex(0.6, -0.8), complex(1.0, 0.0), complex(1.0, -0.0),
     complex(1.0, 1e-15), complex(math.nextafter(1.0, 0.0), 0.0), complex(1.0 + 2**-52, -0.0)]
)


def _planar_inputs(seed, n):
    g = np.random.default_rng(seed)
    circle = np.exp(1j * g.uniform(-np.pi, np.pi, n))  # |z| within an ulp of 1
    disc = 2.0 * np.sqrt(g.random(n)) * np.exp(1j * g.uniform(-np.pi, np.pi, n))
    return np.concatenate([_PLANAR_SPECIALS, circle, disc, g.choice(_PLANAR_SPECIALS, n)])


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, n=st.integers(0, 200))
def test_planar_homeo_matches_its_np_mod_form(seed, n):
    z = _planar_inputs(seed, n)
    assert _angle_2pi(z).tobytes() == np.mod(np.angle(z), 2.0 * np.pi).tobytes()
    assert planar_homeo(z).tobytes() == planar_homeo_ref(z).tobytes()
    # an array with every point outside the disc skips the branch masks;
    # the scaled points are the demonstrator's, which leave the disc
    outer = np.abs(z) >= 1.0
    g = np.random.default_rng(seed)
    far = (1.0 + 3.0 * g.random(n)) * np.exp(1j * g.uniform(-np.pi, np.pi, n))
    for part in (z[outer], z[~outer], far, z[:0]):
        assert planar_homeo(part).tobytes() == planar_homeo_ref(part).tobytes()
    for w in z[:: max(1, z.size // 16)]:
        got = planar_homeo(complex(w))
        assert isinstance(got, complex)
        assert np.array([got]).tobytes() == planar_homeo_ref(w).reshape(1).tobytes()


def test_cos_and_sin_of_psi_are_the_parts_of_its_complex_exp():
    # planar_homeo's outer branch writes np.cos and np.sin of psi where the
    # map's formula has np.exp(1j psi): equal bytes on a libm whose complex
    # exp at a zero real part is its cos and sin, and a host where they
    # differ fails here
    g = np.random.default_rng(7)
    z = np.concatenate([_planar_inputs(7, 2000), 4.0 * np.exp(1j * g.uniform(-np.pi, np.pi, 20000))])
    theta = np.concatenate([
        _angle_2pi(z), g.uniform(0.0, 2.0 * np.pi, 200_000),
        [0.0, 1e-300, np.pi, math.nextafter(2.0 * np.pi, 0.0), 2.0 * np.pi],
    ])
    t = psi(theta)
    e = np.exp(1j * t)
    assert np.cos(t).tobytes() == e.real.tobytes()
    assert np.sin(t).tobytes() == e.imag.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(0, len(_SEQUENCES) - 1),
    half=st.floats(0.1, 3.0),
    grid=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    n_max=st.integers(0, 40),
    conv_tol=st.sampled_from([1e-3, 0.05, 0.5, 2.0]),
    seed=_seeds,
    k=st.integers(0, 12),
)
def test_pointwise_report_matches_hypot_rows(s, half, grid, n_max, conv_tol, seed, k):
    box = ((-half, half), (-half, 0.5 * half))
    g = np.random.default_rng(seed)
    shifted = g.choice(_PLANAR_SPECIALS, k) - 1.0  # the demonstrator's origin frame
    witnesses = [(complex(x), complex(y)) for x, y in zip(shifted, g.choice([0j, -0.0 - 0.0j], k))]
    args = (_SEQUENCES[s], box, n_max, grid)
    if grid[0] * grid[1] + k == 0:
        with pytest.raises(InvalidParameter):
            pointwise_vs_uniform_report(*args, conv_tol=conv_tol, witnesses=witnesses)
        return
    rep = pointwise_vs_uniform_report(*args, conv_tol=conv_tol, witnesses=witnesses)
    rows = [(r.n, r.sup_distance, r.converged_fraction) for r in rep.rows]
    want = pointwise_ref(*args, conv_tol=conv_tol, witnesses=witnesses)
    assert np.array(rows).tobytes() == np.array(want).tobytes()


def test_pointwise_report_of_the_demonstrator_matches_hypot_rows():
    args = (constant_sequence(PlanarDemo()), ((-1.5, 1.5), (-1.5, 1.5)), 12, (21, 21))
    witnesses = demonstrator_witnesses(12)
    rep = pointwise_vs_uniform_report(*args, witnesses=witnesses)
    rows = [(r.n, r.sup_distance, r.converged_fraction) for r in rep.rows]
    assert np.array(rows).tobytes() == np.array(pointwise_ref(*args, witnesses=witnesses)).tobytes()
    assert min(r.sup_distance for r in rep.rows[1:]) > 1.0


@pytest.mark.parametrize("n_max", [0, 1, 12])
@pytest.mark.parametrize("grid", [(7, 6), (5, 9)])
def test_pointwise_report_unchanged_by_blocks(n_max, grid):
    # PlanarDemo moves points on the unit circle, which the sup follows; rows
    # 1-5 of the 1e7 contraction's 7 x 6 grid escape at step 1 and freeze
    cases = [(seq, ((-1.0, 1.0), (-0.5, 0.5))) for seq in _SEQUENCES]
    cases.append((constant_sequence(diag_linear_chain(1e7, 1e7)), ((-1.0, 1.0), (0.0, 1e6))))
    witnesses = demonstrator_witnesses(3)
    for seq, box in cases:
        rep = _in_blocks(pointwise_vs_uniform_report, seq, box, n_max, grid, conv_tol=0.05, witnesses=witnesses)
        rows = [(r.n, r.sup_distance, r.converged_fraction) for r in rep.rows]
        want = pointwise_full_array_ref(seq, box, n_max, grid, conv_tol=0.05, witnesses=witnesses)
        assert np.array(rows).tobytes() == np.array(want).tobytes()
        assert all(type(v) is float for r in rep.rows for v in (r.sup_distance, r.converged_fraction))
