from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn import parabolic
from holodyn.basin import orbit_verdicts
from holodyn.core import (
    AutoChain,
    Classification,
    EndoChain,
    Linear,
    Overflow,
    QuadraticJet,
    ShearX,
    ShearY,
    Translation,
    _escaped,
    diag_linear_chain,
    find_fixed_point,
    henon_chain,
    identity_chain,
    map_from_dict,
    map_to_dict,
)
from holodyn.errors import NoConvergence, SingularDifferential
from holodyn.poly import polyder, polyval
from holodyn.rng import bidisc_points

import mp_oracle
from conftest import finite_difference_jacobian, quadratic_roots


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
    ch = AutoChain.of(ShearX((0.0, 0.0, 1.0)))
    assert ch.evaluate((0.0, 2.0)) == (4.0, 2.0)


def test_henon_inverse_algebraic_oracle(henon075):
    # the inverse of (x, y) -> (x^2 + c - y, x) is (x, y) -> (y, y^2 + c - x)
    for z in [(0.0, 0.0), (1.0, -2.0), (0.3 + 0.1j, 0.7 - 0.4j)]:
        got = henon075.inverse_evaluate(z)
        want = (z[1], z[1] * z[1] + 0.75 - z[0])
        assert abs(got[0] - want[0]) < 1e-13
        assert abs(got[1] - want[1]) < 1e-13


def test_diag_linear_inverse():
    ch = diag_linear_chain(2.0, 0.5)
    assert ch.inverse_evaluate((2.0, 1.0)) == (1.0, 2.0)


def test_identity_differential():
    assert np.allclose(identity_chain().differential((0.3, 0.4)), np.eye(2))


def test_henon_differential_hand_oracle(henon075):
    # d f = [[2x, -1], [1, 0]] by hand differentiation of (x^2 + c - y, x)
    for z in [(1.5, 1.5), (0.2 - 0.3j, 1.0j)]:
        j = henon075.differential(z)
        want = np.array([[2 * z[0], -1.0], [1.0, 0.0]], dtype=complex)
        assert np.allclose(j, want, atol=1e-14)


_coeff = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


def _steps_strategy():
    shear_x = st.lists(_coeff, min_size=1, max_size=4).map(lambda c: ShearX(tuple(c)))
    shear_y = st.lists(_coeff, min_size=1, max_size=4).map(lambda c: ShearY(tuple(c)))

    def make_linear(a, b, c):
        a = a if abs(a) > 0.3 else a + 1.0
        return Linear(a, b, c, (1.0 + b * c) / a)

    linear = st.tuples(_coeff, _coeff, _coeff).map(lambda t: make_linear(*t))
    translation = st.tuples(_coeff, _coeff).map(lambda t: Translation(*t))
    return st.lists(st.one_of(shear_x, shear_y, linear, translation), max_size=4)


# -- rounding-error bounds along the orbit the chain reaches -------------------
#
# A step evaluates its formula in complex doubles.  With u = 2^-53 a complex
# product rounds within 2 sqrt(2) u and a sum within sqrt(2) u of its exact
# value, relative to the operands' moduli, so the computed image of a step
# differs from the exact image of the same computed input by at most K u S:
# S sums |term| over the terms the formula adds (for ShearX, x + c_0 + c_1 y
# + ... + c_d y^d gives S = |x| + sum |c_i| |y|^i, Horner's rule included)
# and K = 8 (d + 2) counts d + 1 multiply-adds at under 4.3 u each, with
# twice that to spare.  Linear rows a x + b y take K = 8; the inverse
# (d x - b y) / det takes K = 16 times 1 + (|ad| + |bc|) / |det| for the
# rounded determinant, which also covers inverted() rounding d / det once.
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
# on the computed orbit rather than the exact one.  These are first-order
# bounds, so the tests allow a factor 2; every intermediate the chain
# reaches enters S, so a cubic shear that takes |x| = 2 to |y| ~ 10 before
# the inverse subtracts it again is charged for that size, which a bound
# relative to |z| is not.

U = 2.0**-53
ETA = 2.0**-1074


def _terms(coeffs, w):
    return sum(abs(c) * abs(w) ** i for i, c in enumerate(coeffs))


def _rounding(step, x, y, inverse=False):
    """K u S for one step (inverse: its inverse formula) at the input (x, y)."""
    if isinstance(step, (ShearX, ShearY)):
        keep, w = (x, y) if isinstance(step, ShearX) else (y, x)
        k = 8 * (len(step.coeffs) + 1)
        return k * (U * (abs(keep) + _terms(step.coeffs, w)) + ETA)
    if isinstance(step, Translation):
        return 4 * (U * max(abs(x) + abs(step.bx), abs(y) + abs(step.by)) + ETA)
    a, b, c, d = (abs(v) for v in (step.a, step.b, step.c, step.d))
    if not inverse:
        return 8 * (U * max(a * abs(x) + b * abs(y), c * abs(x) + d * abs(y)) + ETA)
    det = abs(step.det())
    rows = max(d * abs(x) + b * abs(y), c * abs(x) + a * abs(y))
    return 16 * (U * rows / det * (1 + (a * d + b * c) / det) + ETA)


def _jac_norm(step, x, y, inverse=False):
    """|J| of the step at its input (x, y), or with inverse |J^-1|: the norm of
    the inverse step's Jacobian at the image of (x, y)."""
    a, b, c, d = step.jacobian(x, y)
    if inverse:
        a, b, c, d = (v / (a * d - b * c) for v in (d, b, c, a))
    return max(abs(a) + abs(b), abs(c) + abs(d))


def _orbit(steps, z):
    points = [z]
    for s in steps:
        points.append(s.apply(*points[-1]))
    return points


def _forward_bound(steps, z):
    bound = 0.0
    for s, p in zip(steps, _orbit(steps, z)):
        bound = _jac_norm(s, *p) * bound + _rounding(s, *p)
    return bound


def _inverse_bound(steps, w):
    bound = 0.0
    for s in reversed(steps):
        prev = s.apply_inv(*w)
        bound = _jac_norm(s, *prev, inverse=True) * bound + _rounding(s, *w, inverse=True)
        w = prev
    return bound


def _round_trip_bound(steps, z, inverse_steps):
    """E_0 for the forward steps, then inverse_steps: the functions that undo
    them, last step first."""
    points = _orbit(steps, z)
    bound, w = 0.0, points[-1]
    for s, p, back in zip(reversed(steps), reversed(points[:-1]), inverse_steps):
        e = _rounding(s, *p)
        bound = _jac_norm(s, *p, inverse=True) * (bound + e) + _rounding(s, *w, inverse=True)
        w = back(*w)
    return bound


def _differential_bound(steps, z):
    """Entrywise bound on |differential(z) - exact Jacobian| (2x2 array)."""
    err, j, forward = np.zeros((2, 2)), np.eye(2, dtype=complex), 0.0
    for s, p in zip(steps, _orbit(steps, z)):
        m = np.array(s.jacobian(*p), dtype=complex).reshape(2, 2)
        entry = np.zeros((2, 2))
        if isinstance(s, (ShearX, ShearY)):
            w = p[1] if isinstance(s, ShearX) else p[0]
            der = polyder(s.coeffs)
            off = (0, 1) if isinstance(s, ShearX) else (1, 0)
            rounding = 8 * len(der) * (U * _terms(der, w) + ETA)
            entry[off] = rounding + _terms(polyder(der), w) * forward
        err = np.abs(m) @ err + (entry + 8 * U * np.abs(m)) @ np.abs(j) + 8 * ETA
        j = m @ j
        forward = _jac_norm(s, *p) * forward + _rounding(s, *p)
    return err


def _dist(got, want):
    return max(abs(g - w) for g, w in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(
    steps=_steps_strategy(),
    x=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    y=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_inverse_round_trip_property(steps, x, y):
    ch = AutoChain.of(*steps)
    w = ch.evaluate((x, y), cap=1e15)
    assert _dist(w, mp_oracle.forward(ch, (x, y))) <= 2 * _forward_bound(ch.steps, (x, y))
    back = ch.inverse_evaluate(w, cap=1e15)
    assert _dist(back, mp_oracle.inverse(ch, w)) <= 2 * _inverse_bound(ch.steps, w)
    applied_inv = [s.apply_inv for s in reversed(ch.steps)]
    assert _dist(back, (x, y)) <= 2 * _round_trip_bound(ch.steps, (x, y), applied_inv)
    # the inverted chain runs each step's inverse formula with rounded coefficients
    inv = ch.inverted()
    back = inv.evaluate(w, cap=1e15)
    inverted = [s.apply for s in inv.steps]
    assert _dist(back, (x, y)) <= 2 * _round_trip_bound(ch.steps, (x, y), inverted)


def test_round_trip_thousand_points(henon075):
    xs, ys = bidisc_points(3, 1000, 2.0)
    fx, fy, ok = henon075.evaluate_batch(xs, ys)
    bx, by, ok2 = henon075.inverse_batch(fx, fy)
    good = ok & ok2
    assert good.all()
    scale = 1.0 + np.hypot(np.abs(xs), np.abs(ys))
    err = np.hypot(np.abs(bx - xs), np.abs(by - ys))
    assert np.max(err / scale) < 1e-9


@settings(max_examples=40, deadline=None)
@given(steps=_steps_strategy(), x=_coeff, y=_coeff)
def test_volume_preserving_determinant_property(steps, x, y):
    ch = AutoChain.of(*steps)
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
    ch = AutoChain.of(Translation(1.0, 0.0))
    with pytest.raises(SingularDifferential):
        find_fixed_point(ch, (0.0, 0.0))


def test_find_fixed_point_no_convergence():
    ch = henon_chain(0.75)
    with pytest.raises(NoConvergence):
        find_fixed_point(ch, (1e6, 1e6), max_iter=3)


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
    with pytest.raises(ValueError):
        AutoChain((Linear(2.0, 0.0, 0.0, 1.0),), volume_preserving=True)
    with pytest.raises(ValueError):
        Linear(1.0, 1.0, 1.0, 1.0)


def test_to_polynomial_exact_for_henon(henon075):
    fx, fy = henon075.to_polynomial()
    assert fx.coefficient(2, 0) == 1.0
    assert fx.coefficient(0, 1) == -1.0
    assert fx.coefficient(0, 0) == 0.75
    assert fy.coefficient(1, 0) == 1.0
    assert fy.total_degree() == 1


# -- steps against their literal formulas ------------------------------------------
#
# The steps leave out multiplications by an exact 0, 1 or -1 and leading zero
# Horner coefficients.  The functions below are the literal formulas they
# replaced, kept as the oracle: for finite inputs the values must be equal
# (== ignores only the sign of a zero), and for non-finite inputs the escape
# verdict must be the same.


def polyval_ref(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _shear_x_ref(s):
    return (
        lambda x, y: (x + polyval_ref(s.coeffs, y), y),
        lambda x, y: (x - polyval_ref(s.coeffs, y), y),
        lambda x, y: (1.0, polyval_ref(polyder(s.coeffs), y), 0.0, 1.0),
    )


def _shear_y_ref(s):
    return (
        lambda x, y: (x, y + polyval_ref(s.coeffs, x)),
        lambda x, y: (x, y - polyval_ref(s.coeffs, x)),
        lambda x, y: (1.0, 0.0, polyval_ref(polyder(s.coeffs), x), 1.0),
    )


def _linear_ref(s):
    def apply_inv(x, y):
        det = s.det()
        return (s.d * x - s.b * y) / det, (-s.c * x + s.a * y) / det

    return (
        lambda x, y: (s.a * x + s.b * y, s.c * x + s.d * y),
        apply_inv,
        lambda x, y: (s.a, s.b, s.c, s.d),
    )


def _jet_ref(s):
    pa, pxy, pc = s.p
    qa, qxy, qc = s.q
    return (
        lambda x, y: (
            x + pa * x * x + pxy * x * y + pc * y * y,
            y + qa * x * x + qxy * x * y + qc * y * y,
        ),
        None,
        lambda x, y: (
            1.0 + 2 * pa * x + pxy * y,
            pxy * x + 2 * pc * y,
            2 * qa * x + qxy * y,
            1.0 + qxy * x + 2 * qc * y,
        ),
    )


_REFS = {ShearX: _shear_x_ref, ShearY: _shear_y_ref, Linear: _linear_ref, QuadraticJet: _jet_ref}


def _ref(step):
    return _REFS[type(step)](step)


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
    _shear_coeffs.map(ShearX),
    _shear_coeffs.map(ShearY),
    st.tuples(_cx, _cx, _cx, _cx).map(lambda t: _linear_or_none(*t)).filter(bool),
    st.sampled_from(
        [Linear(0.0, -1.0, 1.0, 0.0), Linear(0.0, 1.0, 1.0, 0.0), Linear(1.0, -1.0, 1.0, 0.0)]
    ),
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
         complex(1.0, _nan), complex(_inf, _nan), complex(_inf, -_inf), complex(1e300, 1e300)]
    ),
)


def _same_values(got, want):
    for g, w in zip(got, want):
        g, w = np.broadcast_arrays(np.asarray(g, dtype=complex), np.asarray(w, dtype=complex))
        assert np.array_equal(g, w), (g, w)


def _methods(step):
    yield "apply", step.apply
    if not isinstance(step, QuadraticJet):
        yield "apply_inv", step.apply_inv


@settings(max_examples=300, deadline=None)
@given(
    step=_oracle_steps,
    xs=st.lists(_finite_z, min_size=1, max_size=8),
    ys=st.lists(_finite_z, min_size=1, max_size=8),
)
def test_steps_equal_their_literal_formulas_on_finite_inputs(step, xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n], dtype=complex), np.array(ys[:n], dtype=complex)
    ref_apply, ref_inv, ref_jac = _ref(step)
    refs = {"apply": ref_apply, "apply_inv": ref_inv}
    for name, method in _methods(step):
        _same_values(method(x, y), refs[name](x, y))
        x0, y0 = complex(xs[0]), complex(ys[0])
        _same_values(method(x0, y0), refs[name](x0, y0))
    _same_values(step.jacobian(x, y), ref_jac(x, y))
    if isinstance(step, (ShearX, ShearY)):
        _same_values((polyval(step.coeffs, x),), (polyval_ref(step.coeffs, x),))


@settings(max_examples=300, deadline=None)
@given(
    step=_oracle_steps,
    xs=st.lists(_non_finite_z, min_size=1, max_size=8),
    ys=st.lists(_non_finite_z, min_size=1, max_size=8),
    cap=st.sampled_from([1e12, math.inf]),
)
def test_steps_keep_the_escape_verdict_on_non_finite_inputs(step, xs, ys, cap):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n], dtype=complex), np.array(ys[:n], dtype=complex)
    ref_apply, ref_inv, _ = _ref(step)
    refs = {"apply": ref_apply, "apply_inv": ref_inv}
    with np.errstate(all="ignore"):
        for name, method in _methods(step):
            gx, gy = np.broadcast_arrays(*method(x, y))
            wx, wy = np.broadcast_arrays(*refs[name](x, y))
            assert np.array_equal(_escaped(gx, gy, cap), _escaped(wx, wy, cap)), name


# steps that are exact no-ops, so apply returns its input arrays
_NO_OPS = (Linear(1.0, 0.0, 0.0, 1.0), ShearX((0.0, 0.0)), Linear(0.0, 1.0, 1.0, 0.0))


def test_callers_keep_their_input_arrays_when_a_step_returns_them():
    xs, ys = bidisc_points(13, 200, 1.5)
    x0, y0 = xs.copy(), ys.copy()
    chain = AutoChain.of(*_NO_OPS, *henon_chain(0.75).steps, *_NO_OPS)
    assert chain.steps[0].apply(xs, ys)[0] is xs
    fx, fy, _ = chain.evaluate_batch(xs, ys)
    chain.inverse_batch(fx, fy)
    orbit_verdicts(chain, xs, ys, 40, target=(0.5 + 0j, 0.5 + 0j))
    orbit_verdicts(AutoChain.of(*_NO_OPS), xs, ys, 40, target=(0j, 0j))
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
