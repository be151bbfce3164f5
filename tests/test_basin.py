from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn.basin import (
    _first_reaching,
    bounded_set_probe,
    grid_centres,
    dichotomy_probe,
    interior_probe,
    nonuniformity_witness,
    orbit,
    planar_homeo,
    psi,
    psi_iterate,
    sample_unit_disc_away_from_poles,
    sphere_map,
    sphere_map_iterate,
    sphere_residuals_batch,
)
from holodyn.core import diag_linear_chain, find_fixed_point
from holodyn.errors import InvalidParameter, NotFound, PoleHit

from conftest import identity_chain


# -- orbits ---------------------------------------------------------------------


def test_orbit_converges_at_fixed_point(henon075, henon_saddle):
    rec = orbit(henon075, henon_saddle.location, 100, target=henon_saddle.location)
    assert rec.verdict == "converged"
    assert rec.step == 20  # hysteresis window


def test_orbit_escapes(henon075):
    rec = orbit(henon075, (10.0, 10.0), 100, target=(1.5, 1.5))
    assert rec.verdict == "escaped"
    assert rec.states[0] == (10.0, 10.0)


def test_orbit_attracting_linear():
    ch = diag_linear_chain(0.5, 0.5)
    rec = orbit(ch, (1.7, -0.9j), 200, target=(0.0, 0.0))
    assert rec.verdict == "converged"


# -- dichotomy ------------------------------------------------------------------


def test_dichotomy_attracting_control_has_small_cutoff():
    ch = diag_linear_chain(0.5, 0.5)
    fp = find_fixed_point(ch, (0.1, 0.1))
    rep = dichotomy_probe(ch, fp, 1.0, 50, samples=256, seed=11)
    assert rep.cutoff_m0 is not None and rep.cutoff_m0 <= 20
    assert rep.largest_witnessed_m < 20


def test_dichotomy_henon_saddle_witnesses_every_m(henon075, henon_saddle):
    rep = dichotomy_probe(henon075, henon_saddle, 0.5, 50, samples=256, seed=11)
    assert rep.largest_witnessed_m == 50
    assert rep.cutoff_m0 is None
    assert set(rep.witnesses) == set(range(1, 51))
    # witnesses live in the closed ball
    for m, w in rep.witnesses.items():
        d = math.hypot(abs(w[0] - henon_saddle.location[0]), abs(w[1] - henon_saddle.location[1]))
        assert d <= 0.5 + 1e-12


def test_dichotomy_witness_reverified_by_iteration(henon075, henon_saddle):
    from holodyn.errors import Overflow

    rep = dichotomy_probe(henon075, henon_saddle, 0.5, 30, samples=256, seed=11)
    z = rep.witnesses[30]
    p = henon_saddle.location
    for _ in range(30):
        try:
            z = henon075.evaluate(z)
        except Overflow:
            break  # escape: certainly outside the ball from here on
        assert math.hypot(abs(z[0] - p[0]), abs(z[1] - p[1])) >= 0.5


def _witness_table_per_m(runs, m_max):
    """The table one sweep per m: (first index reaching m for each witnessed
    m, cutoff_m0), the way dichotomy_probe built it before the one pass."""
    first, cutoff = [], None
    for m in range(1, m_max + 1):
        ok = runs >= m
        if not ok.any():
            cutoff = m
            break
        first.append(int(np.argmax(ok)))
    return first, cutoff


def _witness_table_one_pass(runs, m_max):
    first = _first_reaching(runs, m_max).tolist()
    return first, len(first) + 1 if len(first) < m_max else None


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(st.integers(0, 40), max_size=60).map(lambda v: np.asarray(v, dtype=np.int64)),
    m_max=st.integers(0, 40),
)
def test_witness_table_one_pass_matches_per_m_sweeps(runs, m_max):
    runs = np.minimum(runs, m_max)  # the probe caps every run at m_max
    assert _witness_table_one_pass(runs, m_max) == _witness_table_per_m(runs, m_max)


@pytest.mark.parametrize(
    "runs, m_max, cutoff",
    [
        ([], 5, 1),  # no samples: m = 1 is already unwitnessed
        ([3, 0, 2], 0, None),  # no m asked for
        ([0, 2, 1, 7, 7], 7, None),  # every m witnessed
        ([0, 0], 3, 1),
    ],
)
def test_witness_table_edge_cases(runs, m_max, cutoff):
    runs = np.asarray(runs, dtype=np.int64)
    table = _witness_table_one_pass(runs, m_max)
    assert table == _witness_table_per_m(runs, m_max)
    assert table[1] == cutoff


def test_dichotomy_without_samples_or_steps():
    ch = diag_linear_chain(0.5, 0.5)
    fp = find_fixed_point(ch, (0.1, 0.1))  # attracting: no unstable-direction seeds
    rep = dichotomy_probe(ch, fp, 1.0, 5, samples=0)
    assert (rep.largest_witnessed_m, rep.cutoff_m0, rep.witnesses) == (0, 1, {})
    rep = dichotomy_probe(ch, fp, 1.0, 0, samples=16)
    assert (rep.largest_witnessed_m, rep.cutoff_m0, rep.witnesses) == (0, None, {})


# -- interior -------------------------------------------------------------------


def test_interior_probe_henon_thin(henon075, henon_saddle):
    rep = interior_probe(henon075, henon_saddle, 2.0, 20000, max_iter=300, seed=23)
    assert rep.fraction <= 0.001


def test_interior_probe_attracting_control_full():
    ch = diag_linear_chain(0.5, 0.5)
    fp = find_fixed_point(ch, (0.1, 0.1))
    rep = interior_probe(ch, fp, 2.0, 5000, max_iter=300, seed=23)
    assert rep.fraction >= 0.999


def test_interior_probe_empty_sample(henon075, henon_saddle):
    with pytest.raises(InvalidParameter, match="at least one sample"):
        interior_probe(henon075, henon_saddle, 2.0, 0)


def test_interior_probe_tol_tightening_weakly_decreases(henon075, henon_saddle):
    loose = interior_probe(henon075, henon_saddle, 2.0, 4000, max_iter=200, conv_tol=1e-2, seed=23)
    tight = interior_probe(henon075, henon_saddle, 2.0, 4000, max_iter=200, conv_tol=1e-3, seed=23)
    assert tight.fraction <= loose.fraction


def test_interior_probe_thread_invariance(henon075, henon_saddle):
    a = interior_probe(henon075, henon_saddle, 2.0, 3000, max_iter=100, seed=23, threads=1)
    b = interior_probe(henon075, henon_saddle, 2.0, 3000, max_iter=100, seed=23, threads=4)
    assert a.converged == b.converged and a.fraction == b.fraction


# -- bounded set ----------------------------------------------------------------


def test_bounded_set_linear_saddle_exact_oracle():
    ch = diag_linear_chain(0.5, 2.0)
    marked = bounded_set_probe(ch, ((-2, 2), (-2, 2)), (11, 11), max_iter=200)
    bb = -2 + (np.arange(11) + 0.5) * (4 / 11)
    # exact linear dynamics: center (a, b) is bounded iff |b| 2^n never tops
    # the cap within the budget, i.e. iff b == 0 for this grid
    want = np.abs(bb[:, None]) * 2.0**200 <= 1e12
    want = np.repeat(want, 11, axis=1)
    assert np.array_equal(marked, want)
    assert marked.sum() == 11


def test_bounded_set_identity_all_marked():
    marked = bounded_set_probe(identity_chain(), ((-2, 2), (-2, 2)), (5, 5), max_iter=50)
    assert marked.all()


@pytest.mark.parametrize("grid", [(0, 0), (0, 4), (4, 0)])
@pytest.mark.parametrize("threads", [1, 2])
def test_bounded_set_zero_cell_grid_is_empty(grid, threads):
    marked = bounded_set_probe(identity_chain(), ((-2, 2), (-2, 2)), grid, threads=threads)
    assert marked.dtype == bool and marked.shape == (grid[1], grid[0])


@pytest.mark.parametrize("grid", [(-1, 4), (4, -1), (-2, -2)])
def test_negative_grid_counts_are_invalid(grid):
    with pytest.raises(InvalidParameter):
        grid_centres(((-2, 2), (-2, 2)), grid)
    with pytest.raises(InvalidParameter):
        bounded_set_probe(identity_chain(), ((-2, 2), (-2, 2)), grid)


def test_bounded_set_henon_contains_fixed_cells(henon075):
    # grid chosen so both fixed points land exactly on cell centers
    marked = bounded_set_probe(henon075, ((-2, 2), (-2, 2)), (20, 20), max_iter=200)
    assert marked[12, 12]  # (0.5, 0.5)
    assert marked[17, 17]  # (1.5, 1.5)
    assert marked.sum() > 0


# -- sphere map -----------------------------------------------------------------


def test_sphere_map_closed_form_arithmetic():
    assert sphere_map(3, 0.5) == pytest.approx(0.2, abs=1e-15)
    assert sphere_map(7, 0.0) == 0.0
    assert sphere_map_iterate(5, 0.0) == 0.0


def test_sphere_map_pole():
    with pytest.raises(PoleHit):
        sphere_map_iterate(3, -1.0 / 3.0)
    with pytest.raises(PoleHit):
        sphere_map(4, -0.25)


def test_sphere_residual_batch_tight():
    zs = sample_unit_disc_away_from_poles(42, 300, 5000)
    res = sphere_residuals_batch(zs, 5000)
    assert float(res.max()) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    z=st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
    m=st.integers(min_value=1, max_value=200),
)
def test_sphere_residual_property(z, m):
    if min(abs(z + 1.0 / k) for k in range(1, m + 1)) < 1e-3:
        return
    assert abs(sphere_map(m, z) - sphere_map_iterate(m, z)) < 1e-12


# -- planar homeomorphism --------------------------------------------------------


def test_psi_special_values():
    assert psi(2 * math.pi) == pytest.approx(2 * math.pi, abs=1e-14)
    assert psi(0.0) == 0.0
    # arithmetic oracle: pi (4pi - pi) / (2pi) = 3pi/2
    assert psi(math.pi) == pytest.approx(3 * math.pi / 2, abs=1e-14)


def test_psi_iterates_to_two_pi():
    t, n = 0.1, 0
    while abs(t - 2 * math.pi) > 1e-6:
        t = float(psi(t))
        n += 1
        assert n < 100
    assert abs(psi_iterate(0.1, n) - 2 * math.pi) <= 1e-6


def test_planar_homeo_fixes_one_and_circle_radii():
    assert planar_homeo(1.0 + 0j) == 1.0
    # outer radius contracts toward 1
    z = 3.0 * np.exp(0.7j)
    w = planar_homeo(complex(z))
    assert abs(abs(w) - 2.0) < 1e-12


def test_planar_homeo_continuous_across_unit_circle():
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 40)
    zin = 0.999 * np.exp(1j * thetas)
    zout = 1.001 * np.exp(1j * thetas)
    gaps = np.abs(planar_homeo(zin) - planar_homeo(zout))
    assert float(gaps.max()) < 0.02


def test_planar_homeo_pointwise_convergence():
    rng = np.random.default_rng(9)
    zs = 3.0 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    for z0 in zs:
        z = complex(z0)
        ok = False
        run = 0
        for _ in range(10000):
            z = planar_homeo(z)
            run = run + 1 if abs(z - 1.0) < 1e-3 else 0
            if run >= 20:
                ok = True
                break
        assert ok


def test_nonuniformity_witnesses_all_m():
    for m in range(1, 31):
        theta, z = nonuniformity_witness(m)
        w = z
        for _ in range(m):
            w = planar_homeo(w)
        assert abs(w - 1.0) > 1.0
        if m >= 6:
            assert abs(z - 1.0) < 0.1


def test_nonuniformity_witness_angle_scaling():
    # psi'(0) = 2: the witness angle roughly halves per extra step
    t20, _ = nonuniformity_witness(20)
    t21, _ = nonuniformity_witness(21)
    assert 0.4 < t21 / t20 < 0.6


def test_nonuniformity_not_found_beyond_precision():
    with pytest.raises(NotFound):
        nonuniformity_witness(2000)
