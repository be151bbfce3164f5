from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn import core, parabolic
from holodyn.basin import orbit_verdicts
from holodyn.core import (
    DEFAULT_CAP,
    AutoChain,
    Classification,
    EndoChain,
    Linear,
    Overflow,
    QuadraticJet,
    Shear,
    Translation,
    _escaped,
    _escaped_near,
    diag_linear_chain,
    find_fixed_point,
    henon_chain,
    hypot_below,
    hypot_max,
    load_map,
    map_from_dict,
    map_to_dict,
)
from holodyn.errors import InvalidParameter, NoConvergence, SingularDifferential
from holodyn.parabolic import tangent_shear_chain
from holodyn.poly import normalize_coeffs, polyval

import mp_oracle
from conftest import (
    ETA,
    U,
    bidisc_points,
    coeff_terms,
    finite_difference_jacobian,
    forward_bound,
    identity_chain,
    jac_norm,
    literal_formulas,
    polyder,
    polyval_ref,
    quadratic_roots,
    round_trip_bound,
    shear_x,
    shear_y,
    step_orbit,
    step_rounding,
    total_degree,
)

MAPS = Path(__file__).resolve().parents[1] / "maps"


def test_identity_chain_evaluates_to_input():
    ch = identity_chain()
    assert ch.evaluate((1.0, 2.0j)) == (1.0, 2.0j)


def test_henon_fixed_point_from_quadratic_oracle(henon075):
    # fixed points solve x^2 - 2x + c = 0
    r1, r2 = quadratic_roots(1.0, -2.0, 0.75)
    x = max(r1.real, r2.real)
    fx, fy = henon075.evaluate((x, x))
    assert abs(fx - x) < 1e-14 and abs(fy - x) < 1e-14


def test_single_shear_step():
    ch = AutoChain((shear_x((0.0, 0.0, 1.0)),))
    assert ch.evaluate((0.0, 2.0)) == (4.0, 2.0)


def test_henon_inverse_algebraic_oracle(henon075):
    # the inverse of (x, y) -> (x^2 + c - y, x) is (x, y) -> (y, y^2 + c - x)
    for z in [(0.0, 0.0), (1.0, -2.0), (0.3 + 0.1j, 0.7 - 0.4j)]:
        got = henon075.inverted().evaluate(z)
        want = (z[1], z[1] * z[1] + 0.75 - z[0])
        assert abs(got[0] - want[0]) < 1e-13
        assert abs(got[1] - want[1]) < 1e-13


def test_diag_linear_inverse():
    ch = diag_linear_chain(2.0, 0.5)
    assert ch.inverted().evaluate((2.0, 1.0)) == (1.0, 2.0)


def test_identity_differential():
    assert np.allclose(identity_chain().differential((0.3, 0.4)), np.eye(2))


def test_henon_differential_hand_oracle(henon075):
    # d f = [[2x, -1], [1, 0]] by hand differentiation of (x^2 + c - y, x)
    for z in [(1.5, 1.5), (0.2 - 0.3j, 1.0j)]:
        j = henon075.differential(z)
        want = np.array([[2 * z[0], -1.0], [1.0, 0.0]], dtype=complex)
        assert np.allclose(j, want, atol=1e-14)


_coeff = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


def _tilted(coeffs, v):
    """The shear along v with w = (v_1, -v_0), so that w.v = 0 exactly."""
    return Shear(tuple(coeffs), v, (v[1], -v[0]))


def _steps_strategy():
    coeffs = st.lists(_coeff, min_size=1, max_size=4)
    tilted = st.tuples(coeffs, st.tuples(_coeff, _coeff).filter(any)).map(lambda t: _tilted(*t))

    def make_linear(a, b, c):
        a = a if abs(a) > 0.3 else a + 1.0
        return Linear(a, b, c, (1.0 + b * c) / a)

    linear = st.tuples(_coeff, _coeff, _coeff).map(lambda t: make_linear(*t))
    translation = st.tuples(_coeff, _coeff).map(lambda t: Translation(*t))
    shears = (coeffs.map(shear_x), coeffs.map(shear_y), tilted)
    return st.lists(st.one_of(*shears, linear, translation), max_size=4)


# -- rounding-error bounds (derived in conftest.py) ----------------------------


def _inverse_bound(steps, w):
    """F_n for the inverted chain (each step's inverted() in reverse order) at w."""
    bound = 0.0
    for s in reversed(steps):
        prev = s.inverted().apply(*w)
        bound = jac_norm(s, *prev, inverse=True) * bound + step_rounding(s, *w, inverse=True)
        w = prev
    return bound


def _differential_bound(steps, z):
    """Entrywise bound on |differential(z) - exact Jacobian| (2x2 array)."""
    err, j, forward = np.zeros((2, 2)), np.eye(2, dtype=complex), 0.0
    for s, p in zip(steps, step_orbit(steps, z)):
        m = np.array(literal_formulas(s)[1](*p), dtype=complex).reshape(2, 2)
        entry, rounding = np.zeros((2, 2)), 8 * U * np.abs(m)
        if isinstance(s, Shear):
            # m = I + p'(l) v w^T with l = w.z: p'(l) is rounded, and read at
            # the computed l, off by |w| F and (off the axes) its own rounding.
            # Off the axes the push dz + v p'(l) (w.dz) rounds four products
            # and two sums, charged 16 u against |I| + |v| |p'(l)| |w|^T
            (w0, w1), der = s.w, polyder(s.coeffs)
            l = w0 * p[0] + w1 * p[1]
            axes = (s.v, s.w) in core._AXES.values()
            l_err = (abs(w0) + abs(w1)) * forward
            l_err += 0.0 if axes else 8 * (U * (abs(w0 * p[0]) + abs(w1 * p[1])) + ETA)
            outer = np.outer(np.abs(s.v), np.abs(s.w))
            dp_err = 8 * len(der) * (U * coeff_terms(der, l) + ETA)
            entry = outer * (dp_err + coeff_terms(polyder(der), l) * l_err)
            if not axes:
                rounding = 16 * U * (np.eye(2) + outer * abs(polyval_ref(der, l)))
        err = np.abs(m) @ err + (entry + rounding) @ np.abs(j) + 8 * ETA
        j = m @ j
        forward = jac_norm(s, *p) * forward + step_rounding(s, *p)
    return err


@settings(max_examples=60, deadline=None)
@given(steps=_steps_strategy(), zs=st.lists(st.tuples(_coeff, _coeff), min_size=1, max_size=4))
def test_differentials_match_the_high_precision_jacobian(steps, zs):
    ch = AutoChain(steps)
    xs, ys = (np.array(v, dtype=complex) for v in zip(*zs))
    *batch, fx, fy = ch.differential_batch(xs, ys)
    assert np.array([fx, fy]).tobytes() == np.array(ch.apply(xs, ys)).tobytes()
    for k, z in enumerate(zs):
        err = _differential_bound(ch.steps, z)
        ref = mp_oracle.differential(ch, z)
        from_batch = np.array([v[k] for v in batch]).reshape(2, 2)
        for j in (ch.differential(z), from_batch):
            for r in range(2):
                for c in range(2):
                    assert abs(j[r, c] - ref[r][c]) <= 2 * err[r, c]


def _dist(got, want):
    return max(abs(g - w) for g, w in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(
    steps=_steps_strategy(),
    x=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    y=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_inverse_round_trip_property(steps, x, y):
    ch = AutoChain(steps)
    w = ch.evaluate((x, y), cap=1e15)
    assert _dist(w, mp_oracle.forward(ch, (x, y))) <= 2 * forward_bound(ch.steps, (x, y))
    # the inverted chain runs each step's inverse formula with rounded coefficients
    inv = ch.inverted()
    back = inv.evaluate(w, cap=1e15)
    assert _dist(back, mp_oracle.inverse(ch, w)) <= 2 * _inverse_bound(ch.steps, w)
    inverted = [s.apply for s in inv.steps]
    assert _dist(back, (x, y)) <= 2 * round_trip_bound(ch.steps, (x, y), inverted)


def test_round_trip_thousand_points(henon075):
    xs, ys = bidisc_points(3, 1000, 2.0)
    fx, fy, ok = henon075.evaluate_batch(xs, ys)
    bx, by, ok2 = henon075.inverted().evaluate_batch(fx, fy)
    good = ok & ok2
    assert good.all()
    scale = 1.0 + np.hypot(np.abs(xs), np.abs(ys))
    err = np.hypot(np.abs(bx - xs), np.abs(by - ys))
    assert np.max(err / scale) < 1e-9


@settings(max_examples=40, deadline=None)
@given(steps=_steps_strategy(), x=_coeff, y=_coeff)
def test_volume_preserving_determinant_property(steps, x, y):
    ch = AutoChain(steps)
    if not ch.volume_preserving:
        return
    j = ch.differential((x, y))
    err = _differential_bound(ch.steps, (x, y))
    ref = mp_oracle.differential(ch, (x, y))
    for r in range(2):
        for c in range(2):
            assert abs(j[r, c] - ref[r][c]) <= 2 * err[r, c]
    # each step's determinant is constant: 1 for shears, within _DET_ONE_TOL
    # of 1 for the linear steps of a volume-preserving chain
    with mp.workdps(mp_oracle.DPS):
        det_exact = ref[0][0] * ref[1][1] - ref[0][1] * ref[1][0]
    assert abs(det_exact - 1) <= 1e-12 * len(ch.steps)
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    aj = np.abs(j)
    det_err = (
        aj[1, 1] * err[0, 0] + aj[0, 0] * err[1, 1] + aj[1, 0] * err[0, 1] + aj[0, 1] * err[1, 0]
        + 8 * (U * (aj[0, 0] * aj[1, 1] + aj[0, 1] * aj[1, 0]) + ETA)
    )
    assert abs(det - det_exact) <= 2 * det_err


def test_volume_preserving_det_at_hundred_points(henon075):
    xs, ys = bidisc_points(5, 100, 2.0)
    for x, y in zip(xs, ys):
        j = henon075.differential((x, y))
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        assert abs(det - 1.0) < 1e-9


def test_differential_matches_finite_differences(henon075):
    xs, ys = bidisc_points(7, 20, 1.5)
    for x, y in zip(xs, ys):
        j = henon075.differential((x, y))
        fd = finite_difference_jacobian(henon075, (x, y))
        scale = 1.0 + float(np.max(np.abs(j)))
        assert float(np.max(np.abs(j - fd))) / scale < 1e-5


def test_find_fixed_point_saddle_oracle(henon075):
    fp = find_fixed_point(henon075, (1.4, 1.4))
    assert abs(fp.location[0] - 1.5) < 1e-9
    assert abs(fp.location[1] - 1.5) < 1e-9
    # eigenvalues solve l^2 - 3l + 1 = 0
    lo, hi = sorted(quadratic_roots(1.0, -3.0, 1.0), key=abs)
    assert abs(fp.eigenvalues[0] - lo) < 1e-9
    assert abs(fp.eigenvalues[1] - hi) < 1e-9
    assert fp.classification is Classification.SADDLE
    assert fp.stable_dim == 1
    # volume preserving: saddle eigenvalue product equals det = 1
    assert abs(fp.eigenvalues[0] * fp.eigenvalues[1] - 1.0) < 1e-8


def test_find_fixed_point_neutral_oracle(henon075):
    fp = find_fixed_point(henon075, (0.4, 0.4))
    assert abs(fp.location[0] - 0.5) < 1e-9
    r1, r2 = quadratic_roots(1.0, -1.0, 1.0)
    assert abs(abs(fp.eigenvalues[0]) - 1.0) < 1e-9
    assert {round(abs(fp.eigenvalues[0] - r), 6) for r in (r1, r2)} & {0.0}
    assert fp.classification is Classification.NEUTRAL_OTHER


def test_find_fixed_point_identity_degenerate():
    # every point fixed: residual 0 at the seed, flagged tangent-to-identity
    fp = find_fixed_point(identity_chain(), (0.3, -0.2))
    assert fp.classification is Classification.TANGENT_TO_IDENTITY
    assert fp.location == (0.3, -0.2)


def test_find_fixed_point_translation_singular():
    ch = AutoChain((Translation(1.0, 0.0),))
    with pytest.raises(SingularDifferential):
        find_fixed_point(ch, (0.0, 0.0))


def test_find_fixed_point_no_convergence(monkeypatch):
    # three Newton steps from (1e6, 1e6) leave the residual far above tol
    monkeypatch.setattr(core, "_NEWTON_MAX_ITER", 3)
    with pytest.raises(NoConvergence):
        find_fixed_point(henon_chain(0.75), (1e6, 1e6))


def test_overflow_signals_escape(henon075):
    with pytest.raises(Overflow):
        z = (1e7, 0.0)
        for _ in range(10):
            z = henon075.evaluate(z)


def test_attracting_and_repelling_classification():
    fp = find_fixed_point(diag_linear_chain(0.5, 0.5), (0.2, 0.2))
    assert fp.classification is Classification.ATTRACTING
    assert fp.stable_dim == 2
    fp2 = find_fixed_point(diag_linear_chain(2.0, 3.0), (0.2, 0.2))
    assert fp2.classification is Classification.REPELLING
    assert fp2.stable_dim == 0


def test_json_round_trip(henon075):
    d = map_to_dict(henon075)
    ch2 = map_from_dict(d)
    assert map_to_dict(ch2) == d
    for z in [(0.1, 0.2), (1.0 + 1.0j, -0.5)]:
        assert henon075.evaluate(z) == ch2.evaluate(z)


def test_quadratic_jet_maps_load_as_endomorphisms():
    d = {"steps": [{"kind": "quadratic_jet", "p": [1, 2, 0], "q": [0, -2, -1]}]}
    m = map_from_dict(d)
    assert not isinstance(m, AutoChain)
    x, y = m.apply(0.1, 0.2)
    assert abs(x - (0.1 + 0.01 + 2 * 0.02)) < 1e-15
    assert abs(y - (0.2 - 2 * 0.02 - 0.04)) < 1e-15


def test_autochain_rejects_jets_and_bad_flags():
    with pytest.raises(ValueError):
        AutoChain((QuadraticJet((1, 0, 0), (0, 0, 0)),))
    steps = [{"kind": "linear", "matrix": [[2, 0], [0, 1]]}]
    with pytest.raises(InvalidParameter):
        map_from_dict({"volume_preserving": True, "steps": steps})
    # a file may leave the flag out or set it false; the written map carries
    # the value derived from the steps
    for d in ({"volume_preserving": False, "steps": steps}, {"steps": steps}):
        assert map_to_dict(map_from_dict(d))["volume_preserving"] is False
    assert AutoChain((Linear(2.0, 0.0, 0.0, 0.5),)).volume_preserving
    assert not AutoChain((Linear(2.0, 0.0, 0.0, 1.0),)).volume_preserving
    with pytest.raises(ValueError):
        Linear(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "path", sorted(p for p in MAPS.glob("*.json") if not p.name.startswith("seq_"))
)
def test_shipped_map_files_round_trip(path):
    # pins the volume_preserving derived from the steps against each file
    assert map_to_dict(load_map(str(path))) == json.loads(path.read_text())


def test_to_polynomial_exact_for_henon(henon075):
    fx, fy = henon075.to_polynomial()
    assert fx.coefficient(2, 0) == 1.0
    assert fx.coefficient(0, 1) == -1.0
    assert fx.coefficient(0, 0) == 0.75
    assert fy.coefficient(1, 0) == 1.0
    assert total_degree(fy) == 1


# -- steps against their literal formulas ------------------------------------------
#
# The steps leave out multiplications by an exact 0, 1 or -1 and leading zero
# Horner coefficients.  conftest.literal_formulas gives the literal formulas
# they replaced, kept as the oracle: for finite inputs the values must be equal
# (== ignores only the sign of a zero), and for non-finite inputs the escape
# verdict must be the same.


_special = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0j, complex(-0.0, -0.0), complex(1.0, -0.0), complex(-1.0, 0.0)]
)
_cx = st.one_of(_special, _coeff)


def _linear_or_none(a, b, c, d):
    try:
        return Linear(a, b, c, d)
    except ValueError:  # singular
        return None


_leading_zero_shear = st.tuples(st.integers(2, 3), _cx).map(lambda t: (0.0,) * t[0] + (t[1],))
_shear_coeffs = st.one_of(st.lists(_cx, min_size=1, max_size=5).map(tuple), _leading_zero_shear)
_oracle_steps = st.one_of(
    _shear_coeffs.map(shear_x),
    _shear_coeffs.map(shear_y),
    st.tuples(_shear_coeffs, st.tuples(_cx, _cx).filter(any)).map(lambda t: _tilted(*t)),
    st.tuples(_cx, _cx, _cx, _cx).map(lambda t: _linear_or_none(*t)).filter(bool),
    st.sampled_from(
        [Linear(0.0, -1.0, 1.0, 0.0), Linear(0.0, 1.0, 1.0, 0.0), Linear(1.0, -1.0, 1.0, 0.0)]
    ),
    st.tuples(_cx, _cx).map(lambda t: Translation(*t)),
    st.tuples(st.tuples(_cx, _cx, _cx), st.tuples(_cx, _cx, _cx)).map(lambda t: QuadraticJet(*t)),
)
_finite_z = st.one_of(
    _special, st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
)
_inf, _nan = math.inf, math.nan
_non_finite_z = st.one_of(
    _finite_z,
    st.sampled_from(
        [complex(_inf, 0.0), complex(-_inf, 1.0), complex(0.0, _inf), complex(_nan, 0.0),
         complex(1.0, _nan), complex(_inf, _nan), complex(_inf, -_inf), complex(1e300, 1e300),
         complex(1.7e308, 1.7e308)]  # finite, but its modulus overflows
    ),
)


def _same_values(got, want):
    for g, w in zip(got, want):
        g, w = np.broadcast_arrays(np.asarray(g, dtype=complex), np.asarray(w, dtype=complex))
        assert np.array_equal(g, w), (g, w)


@settings(max_examples=300, deadline=None)
@given(
    step=_oracle_steps,
    xs=st.lists(_finite_z, min_size=1, max_size=8),
    ys=st.lists(_finite_z, min_size=1, max_size=8),
)
def test_steps_equal_their_literal_formulas_on_finite_inputs(step, xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n], dtype=complex), np.array(ys[:n], dtype=complex)
    ref_apply, _ = literal_formulas(step)
    _same_values(step.apply(x, y), ref_apply(x, y))
    x0, y0 = complex(xs[0]), complex(ys[0])
    _same_values(step.apply(x0, y0), ref_apply(x0, y0))
    if isinstance(step, Shear):
        _same_values((polyval(step.coeffs, x),), (polyval_ref(step.coeffs, x),))


@settings(max_examples=300, deadline=None)
@given(
    step=_oracle_steps,
    xs=st.lists(_non_finite_z, min_size=1, max_size=8),
    ys=st.lists(_non_finite_z, min_size=1, max_size=8),
)
def test_steps_keep_the_escape_verdict_on_non_finite_inputs(step, xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n], dtype=complex), np.array(ys[:n], dtype=complex)
    ref_apply, _ = literal_formulas(step)
    with np.errstate(all="ignore"):
        gx, gy = np.broadcast_arrays(*step.apply(x, y))
        wx, wy = np.broadcast_arrays(*ref_apply(x, y))
        assert np.array_equal(_escaped(gx, gy), _escaped(wx, wy))


# images on the cap (|6e11 + 8e11 i| = 1e12 exactly), one ulp above it, and
# finite ones whose modulus overflows to inf
_images = st.one_of(
    _non_finite_z,
    st.sampled_from(
        [complex(1e12, 0.0), complex(math.nextafter(1e12, _inf), 0.0), complex(6e11, 8e11),
         complex(-1.7e308, 1.7e308), complex(1e308, -1e308), complex(-_inf, 0.0)]
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(_images, min_size=1, max_size=8),
    ys=st.lists(_images, min_size=1, max_size=8),
)
def test_escape_test_matches_the_finiteness_formula(xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n], dtype=complex), np.array(ys[:n], dtype=complex)
    with np.errstate(all="ignore"):
        big = np.maximum(np.abs(x), np.abs(y)) > DEFAULT_CAP
        want = ~(np.isfinite(x) & np.isfinite(y)) | big
    assert np.array_equal(_escaped(x, y), want)


# _escaped_near skips the escape test where the image lies within DEFAULT_CAP / 2
# of a centre of modulus <= DEFAULT_CAP / 4.  The centres sit on both sides of
# DEFAULT_CAP / 4 and far beyond it, and the images about them at fractions of
# DEFAULT_CAP on both sides of 1/2 and of the distances where a coordinate
# passes the cap (|c| + f DEFAULT_CAP = DEFAULT_CAP), in the directions of the
# centres and across them; the bounds sit on both sides of DEFAULT_CAP / 4.
_QUARTER = DEFAULT_CAP / 4
_NEAR_CENTRES = [
    0j, 0.3 - 0.1j, complex(math.nextafter(_QUARTER, 0.0), 0.0),
    complex(0.0, -math.nextafter(_QUARTER, 0.0)), complex(math.nextafter(_QUARTER, _inf), 0.0),
    complex(0.0, 9e11), complex(-2e12, 0.0),
]
_FRACTIONS = [0.0, 0.25, 0.49, 0.5, 0.51, 0.74, 0.751, 0.76, 0.99, 1.0, 1.01, 1.3, 2.0]
_DIRECTIONS = [1, -1, 1j, -1j, (1 + 1j) / math.sqrt(2)]
_NON_FINITE = [_nan, complex(_inf, 0.0), complex(0.0, -_inf), complex(_nan, 1.0), complex(1e308, -1e308)]


def test_escape_and_distance_from_one_modulus_pass():
    # one image set per largest fraction, so the shortcut's max sees each band
    # alone, and one with non-finite images
    sets = [np.multiply.outer(np.array(_FRACTIONS[: k + 1]) * DEFAULT_CAP, _DIRECTIONS).ravel()
            for k in range(len(_FRACTIONS))]
    sets.append(np.concatenate([sets[-1], _NON_FINITE]))
    grids = [tuple(a.ravel() for a in np.meshgrid(d, d)) for d in sets]
    bounds = (1e-3, 0.5, math.nextafter(_QUARTER, 0.0), _QUARTER,
              math.nextafter(_QUARTER, _inf), DEFAULT_CAP / 2, DEFAULT_CAP, _inf)
    for (dx, dy), c0, c1 in itertools.product(grids, _NEAR_CENTRES, _NEAR_CENTRES):
        with np.errstate(all="ignore"):
            x, y = c0 + dx, c1 + dy
            want_esc = _escaped(x, y)
            dist = np.hypot(np.abs(x - c0), np.abs(y - c1))
            for bound in bounds:
                esc, near = _escaped_near(x, y, (c0, c1), bound)
                assert esc.dtype == bool and np.array_equal(esc, want_esc), (c0, c1, bound)
                assert near.dtype == bool and np.array_equal(near, dist < bound), (c0, c1, bound)


# -- exact distance tests -----------------------------------------------------------
#
# hypot_below and hypot_max must give np.hypot's answers bit for bit.  The
# inputs crowd the places where max(p, q) alone stops deciding: both band edges
# of hypot_below (bound / 1.5 and bound), the circle hypot == bound, points
# whose hypot beats that of the point with the largest max(p, q), and 0,
# subnormals, overflow, inf and nan.

_HYPOT_SPECIALS = np.array(
    [0.0, 5e-324, 1.5e-323, 1e-310, 2.2250738585072014e-308, 1e308, 1.7e308, _inf, _nan]
)


def _hypot_groups(seed, n, bound):
    g = np.random.default_rng(seed)
    scale = bound if 0 < bound < _inf else float(g.choice([1e-3, 1.0, 1e300]))

    def near(v):  # relative offsets from 1e-16 to 1e-3, either side
        return v * (1 + g.choice([1e-16, 1e-15, 1e-12, 1e-3], n) * g.uniform(-1, 1, n))

    groups = []
    for edge in (scale / 1.5, scale):
        m = near(np.full(n, edge))
        other = m * g.choice([0.0, 1.0, g.random()], n)
        groups.append((m, other) if g.random() < 0.5 else (other, m))
    theta = g.uniform(0.0, np.pi / 2, n)
    r = scale * (1 + 1e-15 * g.uniform(-1, 1, n))
    groups.append((r * np.cos(theta), r * np.sin(theta)))
    m = near(np.full(n, scale / math.sqrt(2)))  # hypot(m, m) against hypot(scale, 0)
    groups.append((np.append(m, scale), np.append(m, 0.0)))
    groups.append((g.choice(_HYPOT_SPECIALS, n), g.choice(_HYPOT_SPECIALS, n)))
    ulps = 5e-324 * g.integers(0, 8, (2, n))  # the smallest subnormals
    groups.append((ulps[0], ulps[1]))
    groups.append(tuple(np.concatenate(c) for c in zip(*groups)))
    return groups


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    bound=st.sampled_from([1e-3, 0.5, math.inf, 0.0, 5e-324, math.nan]),
)
def test_hypot_helpers_equal_libm_hypot(seed, n, bound):
    for p, q in _hypot_groups(seed, n, bound):
        with np.errstate(over="ignore"):  # hypot(1.7e308, 1.7e308) overflows in both
            want = np.hypot(p, q)
            below, top = hypot_below(p, q, bound), hypot_max(p, q)
        assert below.dtype == bool and np.array_equal(below, want < bound)
        assert np.float64(top).tobytes() == want.max().tobytes()


# steps that are exact no-ops, so apply returns its input arrays
_NO_OPS = (Linear(1.0, 0.0, 0.0, 1.0), shear_x((0.0, 0.0)), Linear(0.0, 1.0, 1.0, 0.0))


def test_callers_keep_their_input_arrays_when_a_step_returns_them():
    xs, ys = bidisc_points(13, 200, 1.5)
    x0, y0 = xs.copy(), ys.copy()
    chain = AutoChain((*_NO_OPS, *henon_chain(0.75).steps, *_NO_OPS))
    assert chain.steps[0].apply(xs, ys)[0] is xs
    fx, fy, _ = chain.evaluate_batch(xs, ys)
    chain.inverted().evaluate_batch(fx, fy)
    orbit_verdicts(chain, xs, ys, 40, target=(0.5 + 0j, 0.5 + 0j))
    orbit_verdicts(AutoChain(_NO_OPS), xs, ys, 40, target=(0j, 0j))
    assert np.array_equal(xs, x0) and np.array_equal(ys, y0)

    nf = parabolic.normal_form_family(1.0)
    padded = EndoChain((*_NO_OPS[:1], *nf.steps, *_NO_OPS[:1]))
    us = 0.004 * np.exp(2j * np.pi * np.arange(64) / 64)
    u0 = us.copy()
    alive = parabolic._survivors(padded, -0.01, us, 0.02, 40)
    assert np.array_equal(alive, parabolic._survivors(nf, -0.01, us, 0.02, 40))
    assert np.array_equal(us, u0)
    got = parabolic.graph_point(padded, -0.01, resolution=1e-5)
    want = parabolic.graph_point(nf, -0.01, resolution=1e-5)
    assert (got.u, got.certified_radius, got.levels, got.final_horizon) == (
        want.u, want.certified_radius, want.levels, want.final_horizon,
    )


# -- shears along any direction ----------------------------------------------------
#
# Shear(coeffs, v, w) replaced the axis shears ShearX and ShearY.  Their _lines,
# frozen below, are the reference: along the axes Shear must emit the same
# source and bind the same coefficients in the same order, so every chain
# built from axis shears compiles to the code it compiled to before.


def _shear_x_lines(coeffs, bind, tangent):
    lines = [*core._horner_lines(coeffs, "y", bind, tangent), "x = x + p"]
    return lines + ["dx = dx + dp * dy", "del p, dp"] if tangent else lines + ["del p"]


def _shear_y_lines(coeffs, bind, tangent):
    lines = [*core._horner_lines(coeffs, "x", bind, tangent), "y = y + p"]
    return lines + ["dy = dy + dp * dx", "del p, dp"] if tangent else lines + ["del p"]


def _emitted(lines_of):
    """The value and tangent lines of lines_of(bind, tangent), each with the
    bytes of the coefficients bound, in binding order."""
    out = []
    for tangent in (False, True):
        bound = []

        def bind(c):
            bound.append(np.complex128(c).tobytes())
            return f"k{len(bound)}"

        out.append((lines_of(bind, tangent), bound))
    return out


_axis_coeffs = st.one_of(
    _shear_coeffs,
    st.tuples(st.lists(_cx, min_size=1, max_size=4), st.integers(1, 2)).map(
        lambda t: (*t[0], *(0.0,) * t[1])  # zero top coefficients, normalised away
    ),
)


@settings(max_examples=300, deadline=None)
@given(coeffs=_axis_coeffs)
def test_axis_shears_emit_the_frozen_axis_shear_lines(coeffs):
    norm = normalize_coeffs(coeffs)
    for make, ref in ((shear_x, _shear_x_lines), (shear_y, _shear_y_lines)):
        got = _emitted(make(coeffs)._lines)
        assert got == _emitted(lambda bind, tangent: ref(norm, bind, tangent))


_m = st.one_of(
    _special, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
)


@settings(max_examples=200, deadline=None)
@given(m=_m, t=_cx, z=st.tuples(_finite_z, _finite_z))
def test_tilted_shear_is_its_three_step_form(m, t, z):
    # z -> z + t (m x - y)^2 (1, m) in one step, and as the linear map taking
    # m x - y to x, the shear y += t x^2 and that linear map's inverse (whose
    # coefficients 0, 1, -1, m are exact, as det = 1): the same exact map
    one = AutoChain((Shear((0.0, 0.0, t), (1.0, m), (m, -1.0)),))
    a = Linear(m, -1.0, 1.0, 0.0)
    three = AutoChain((a, shear_y((0.0, 0.0, t)), a.inverted()))
    exact = mp_oracle.forward(one, z)
    assert _dist(exact, mp_oracle.forward(three, z)) <= 1e-40 * (1 + abs(exact[0]) + abs(exact[1]))
    got, want = one.apply(*z), three.apply(*z)
    assert _dist(got, exact) <= 2 * forward_bound(one.steps, z)
    assert _dist(want, exact) <= 2 * forward_bound(three.steps, z)
    assert _dist(got, want) <= 2 * (forward_bound(one.steps, z) + forward_bound(three.steps, z))


@settings(max_examples=200, deadline=None)
@given(m=_m, coeffs=_shear_coeffs, z=st.tuples(_finite_z, _finite_z))
def test_tilted_shear_inverts_and_preserves_volume(m, coeffs, z):
    s = Shear(coeffs, (1.0, m), (m, -1.0))
    assert AutoChain((s,)).volume_preserving
    inv = s.inverted()
    assert (inv.v, inv.w) == (s.v, s.w) and inv.coeffs == tuple(-c for c in s.coeffs)
    back = inv.apply(*s.apply(*z))
    assert _dist(back, z) <= 2 * round_trip_bound([s], z, [inv.apply])
    with mp.workdps(mp_oracle.DPS):
        (j11, j12), (j21, j22) = mp_oracle.differential(AutoChain((s,)), z)
        assert abs(j11 * j22 - j12 * j21 - 1) <= mp.mpf(10) ** -40 * (1 + abs(j12 * j21))


@settings(max_examples=200, deadline=None)
@given(coeffs=_shear_coeffs, v=st.tuples(_cx, _cx).filter(any))
def test_tilted_shear_map_round_trips_bit_for_bit(coeffs, v):
    s = _tilted(coeffs, v)
    d = map_to_dict(AutoChain((s,)))
    if (s.v, s.w) in core._AXES.values():
        assert d["steps"][0]["kind"] in core._AXES
        return
    assert d["steps"][0]["kind"] == "shear"
    (back,) = map_from_dict(d).steps

    def as_bytes(step):
        return np.array([*step.coeffs, *step.v, *step.w], dtype=complex).tobytes()

    assert as_bytes(back) == as_bytes(s)
    assert map_to_dict(map_from_dict(json.loads(json.dumps(d)))) == d


@settings(max_examples=200, deadline=None)
@given(m=st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_the_form_m_x_minus_y_annihilates_one_m_for_every_m(m):
    s = Shear((0.0, 1.0), (1.0, m), (m, -1.0))
    assert s.v == (1.0, m) and s.w == (m, -1.0)


@pytest.mark.parametrize(
    "v, w",
    [
        ((0.0, 0.0), (1.0, 0.0)),  # no direction
        ((1.0, 0.0), (0.0, -0.0)),  # no form
        ((1.0, 0.0), (1.0, 1.0)),  # w.v = 1
        # w.v rounds to 0 in doubles, but 3 * 0.1 is not fl(3 * 0.1)
        ((3.0, 1.0), (0.1, -0.30000000000000004)),
        ((1.0, 1j), (1j, -1.0 + 1e-16j)),
        ((math.inf, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, math.nan)),
        ((1.0, 0.0, 0.0), (0.0, 1.0)),
    ],
)
def test_shear_needs_nonzero_v_and_w_with_w_v_exactly_zero(v, w):
    with pytest.raises(InvalidParameter):
        Shear((0.0, 1.0), v, w)
    d = {"kind": "shear", "coeffs": [0, 1], "v": [[c.real, c.imag] for c in map(complex, v)],
         "w": [[c.real, c.imag] for c in map(complex, w)]}
    with pytest.raises(InvalidParameter):
        core.step_from_dict(d)


def test_the_shipped_tangent_chain_is_tangent_shear_chain_at_zero():
    chain = load_map(str(MAPS / "tangent_c0_chain.json"))
    want = tangent_shear_chain(0.0)
    assert len(chain.steps) == len(want.steps) == 2
    for got, step in zip(chain.steps, want.steps):
        assert np.array([*got.coeffs, *got.v, *got.w]).tobytes() == (
            np.array([*step.coeffs, *step.v, *step.w]).tobytes()
        )
