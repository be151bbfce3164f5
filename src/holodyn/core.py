"""Exact polynomial automorphisms of C^2 and their fixed points.

An automorphism is stored as a finite composition of elementary steps --
coordinate shears, invertible linear maps and translations -- each of which
has an exact closed-form inverse and an exact Jacobian.  Evaluation,
inversion and differentiation of the chain therefore never resort to
root-finding or finite differences.  Arbitrary polynomial self-maps (no
inverse) are supported through :class:`EndoChain` for local computations
that only need forward evaluation.

All step methods accept either python complex scalars or numpy arrays, so
grid sweeps can run vectorised over sample batches.  Steps leave out
multiplications by an exact 0, 1 or -1 and leading zero Horner
coefficients, and keep every other operation of the literal formula in
its order: for finite inputs the results are the formula's except possibly
the sign of an exactly-zero component, a non-finite image still counts as
an escape, and a step may return an input array as one of its outputs.

Each step also has a private scalar _push(x, y, dx, dy): the image of
(x, y), equal bit for bit to apply's, together with the tangent (dx, dy)
pushed forward by the step's Jacobian.  Orbits that need a derivative
(the shooting in parabolic.graph_point) carry it through the steps this
way; linear steps skip the same exact 0 and +-1 arithmetic in the tangent
as in the value, so padding a chain with identity steps changes neither.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import (
    InvalidParameter,
    MapFormatError,
    NoConvergence,
    Overflow,
    SingularDifferential,
)
from .poly import Poly2, normalize_coeffs, poly_of_poly, polyder, polyval, polyval_dual

Point = tuple[complex, complex]

DEFAULT_CAP = 1e12
NEUTRAL_TOL = 1e-9
IDENTITY_TOL = 1e-9
_DET_ONE_TOL = 1e-12


def _sum_terms(acc, *terms):
    """acc + c * f (* g) over terms (c, f) or (c, f, g), left to right.

    A term whose c is exactly 0 is left out, and one whose c is exactly 1
    or -1 is added or subtracted without multiplying by c; acc None stands
    for an exact 0 that the first kept term replaces.  c stays the left
    operand: complex products rounded with fused multiply-adds can differ
    in the last bit when the operands swap.
    """
    for term in terms:
        c = term[0]
        if c == 0:
            continue
        v = term[1] if c == 1 or c == -1 else c * term[1]
        if len(term) == 3:
            v = v * term[2]
        if c == -1:
            acc = -v if acc is None else acc - v
        else:
            acc = v if acc is None else acc + v
    return acc


def _lincomb(a, f, b, g):
    """a * f + b * g with the skips of _sum_terms(None, (a, f), (b, g)).

    The two-term rows of linear steps run once per step of every scalar
    orbit, where the generic term loop costs twice as much.
    """
    if a == 0:
        acc = None
    else:
        acc = f if a == 1 else -f if a == -1 else a * f
    if b == 0:
        return acc
    if b == 1:
        return g if acc is None else acc + g
    if b == -1:
        return -g if acc is None else acc - g
    return b * g if acc is None else acc + b * g


def _check_finite(z: Point) -> None:
    for part in (z[0].real, z[0].imag, z[1].real, z[1].imag):
        if not math.isfinite(part):
            raise InvalidParameter(f"point has non-finite coordinate: {z!r}")


@dataclass(frozen=True)
class ShearX:
    """(x, y) -> (x + p(y), y) with p stored degree-ascending."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", normalize_coeffs(self.coeffs))

    def apply(self, x, y):
        return x + polyval(self.coeffs, y), y

    def apply_inv(self, x, y):
        return x - polyval(self.coeffs, y), y

    def jacobian(self, x, y):
        return 1.0, polyval(polyder(self.coeffs), y), 0.0, 1.0

    def _push(self, x, y, dx, dy):
        p, dp = polyval_dual(self.coeffs, y)
        return x + p, y, dx + dp * dy, dy

    def inverted(self) -> "ShearX":
        return ShearX(tuple(-c for c in self.coeffs))

    def det(self) -> complex:
        return 1.0 + 0j


@dataclass(frozen=True)
class ShearY:
    """(x, y) -> (x, y + q(x)) with q stored degree-ascending."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", normalize_coeffs(self.coeffs))

    def apply(self, x, y):
        return x, y + polyval(self.coeffs, x)

    def apply_inv(self, x, y):
        return x, y - polyval(self.coeffs, x)

    def jacobian(self, x, y):
        return 1.0, 0.0, polyval(polyder(self.coeffs), x), 1.0

    def _push(self, x, y, dx, dy):
        q, dq = polyval_dual(self.coeffs, x)
        return x, y + q, dx, dy + dq * dx

    def inverted(self) -> "ShearY":
        return ShearY(tuple(-c for c in self.coeffs))

    def det(self) -> complex:
        return 1.0 + 0j


@dataclass(frozen=True)
class Linear:
    """z -> M z for an invertible 2x2 complex matrix (a b; c d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.det()
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), 1.0)
        if abs(det) <= 1e-15 * scale * scale:
            raise InvalidParameter(f"linear step is singular (det = {det!r})")

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def apply(self, x, y):
        return _lincomb(self.a, x, self.b, y), _lincomb(self.c, x, self.d, y)

    def apply_inv(self, x, y):
        det = self.det()
        u = _lincomb(self.d, x, -self.b, y)
        v = _lincomb(-self.c, x, self.a, y)
        if det == 1:
            return u, v
        return u / det, v / det

    def jacobian(self, x, y):
        return self.a, self.b, self.c, self.d

    def _push(self, x, y, dx, dy):
        a, b, c, d = self.a, self.b, self.c, self.d
        return (
            _lincomb(a, x, b, y), _lincomb(c, x, d, y),
            _lincomb(a, dx, b, dy), _lincomb(c, dx, d, dy),
        )

    def inverted(self) -> "Linear":
        det = self.det()
        return Linear(self.d / det, -self.b / det, -self.c / det, self.a / det)


@dataclass(frozen=True)
class Translation:
    bx: complex
    by: complex

    def apply(self, x, y):
        return x + self.bx, y + self.by

    def apply_inv(self, x, y):
        return x - self.bx, y - self.by

    def jacobian(self, x, y):
        return 1.0, 0.0, 0.0, 1.0

    def _push(self, x, y, dx, dy):
        return x + self.bx, y + self.by, dx, dy

    def inverted(self) -> "Translation":
        return Translation(-self.bx, -self.by)

    def det(self) -> complex:
        return 1.0 + 0j


@dataclass(frozen=True)
class QuadraticJet:
    """z -> z + P2(z) for homogeneous quadratic P2; forward-only payload.

    p = (a, b2, c) means a*x^2 + b2*x*y + c*y^2, likewise q.
    """

    p: tuple[complex, complex, complex]
    q: tuple[complex, complex, complex]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))

    def apply(self, x, y):
        pa, pxy, pc = self.p
        qa, qxy, qc = self.q
        return (
            _sum_terms(x, (pa, x, x), (pxy, x, y), (pc, y, y)),
            _sum_terms(y, (qa, x, x), (qxy, x, y), (qc, y, y)),
        )

    def jacobian(self, x, y):
        pa, pxy, pc = self.p
        qa, qxy, qc = self.q
        return (
            1.0 + 2 * pa * x + pxy * y,
            pxy * x + 2 * pc * y,
            2 * qa * x + qxy * y,
            1.0 + qxy * x + 2 * qc * y,
        )

    def _push(self, x, y, dx, dy):
        a, b, c, d = self.jacobian(x, y)
        return (*self.apply(x, y), a * dx + b * dy, c * dx + d * dy)


_INVERTIBLE_KINDS = (ShearX, ShearY, Linear, Translation)
Step = ShearX | ShearY | Linear | Translation | QuadraticJet


class _ChainOps:
    """Evaluation/differential machinery shared by Auto- and EndoChain."""

    steps: tuple[Step, ...]

    def apply(self, x, y):
        """Raw sequential application, no magnitude cap; scalar or array."""
        for step in self.steps:
            x, y = step.apply(x, y)
        return x, y

    def differential(self, z: Point) -> np.ndarray:
        """Exact chain-rule product of per-step Jacobians at z."""
        x, y = complex(z[0]), complex(z[1])
        j = np.eye(2, dtype=complex)
        for step in self.steps:
            a, b, c, d = step.jacobian(x, y)
            j = np.array([[a, b], [c, d]], dtype=complex) @ j
            x, y = step.apply(x, y)
        return j

    def differential_batch(self, xs, ys):
        """Per-point Jacobians as four arrays (j11, j12, j21, j22)."""
        shape = np.broadcast(xs, ys).shape
        j11 = np.ones(shape, dtype=complex)
        j12 = np.zeros(shape, dtype=complex)
        j21 = np.zeros(shape, dtype=complex)
        j22 = np.ones(shape, dtype=complex)
        x, y = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
        for step in self.steps:
            a, b, c, d = step.jacobian(x, y)
            j11, j12, j21, j22 = (
                a * j11 + b * j21,
                a * j12 + b * j22,
                c * j11 + d * j21,
                c * j12 + d * j22,
            )
            x, y = step.apply(x, y)
        return j11, j12, j21, j22

    def to_polynomial(self) -> tuple[Poly2, Poly2]:
        """The chain as an exact pair of bivariate polynomials."""
        fx, fy = Poly2.x(), Poly2.y()
        for step in self.steps:
            if isinstance(step, ShearX):
                fx = fx + poly_of_poly(step.coeffs, fy)
            elif isinstance(step, ShearY):
                fy = fy + poly_of_poly(step.coeffs, fx)
            elif isinstance(step, Linear):
                fx, fy = (
                    fx.scale(step.a) + fy.scale(step.b),
                    fx.scale(step.c) + fy.scale(step.d),
                )
            elif isinstance(step, Translation):
                fx = fx + Poly2.const(step.bx)
                fy = fy + Poly2.const(step.by)
            elif isinstance(step, QuadraticJet):
                pa, pxy, pc = step.p
                qa, qxy, qc = step.q
                xx, xy, yy = fx * fx, fx * fy, fy * fy
                fx, fy = (
                    fx + xx.scale(pa) + xy.scale(pxy) + yy.scale(pc),
                    fy + xx.scale(qa) + xy.scale(qxy) + yy.scale(qc),
                )
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown step {step!r}")
        return fx, fy

    def is_tangent_to_identity(self) -> bool:
        """f(0) = 0 and df(0) = I, each entry within IDENTITY_TOL."""
        x0, y0 = self.apply(0j, 0j)
        if max(abs(x0), abs(y0)) > IDENTITY_TOL:
            return False
        j = self.differential((0j, 0j))
        return float(np.max(np.abs(j - np.eye(2)))) <= IDENTITY_TOL


@dataclass(frozen=True, eq=False)
class EndoChain(_ChainOps):
    """Polynomial self-map of C^2; forward evaluation only, no inverse."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True, eq=False)
class AutoChain(_ChainOps):
    """Automorphism of C^2 as a composition of invertible elementary steps.

    Steps apply in list order: the chain is steps[-1] o ... o steps[0].
    When volume_preserving is set, every linear step must have determinant
    1 within representation accuracy (shears and translations always have
    Jacobian determinant 1).
    """

    steps: tuple[Step, ...]
    volume_preserving: bool = False

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, _INVERTIBLE_KINDS):
                raise InvalidParameter(
                    f"AutoChain accepts only invertible steps, got {type(step).__name__}"
                )
        if self.volume_preserving:
            for step in self.steps:
                if isinstance(step, Linear) and abs(step.det() - 1.0) > _DET_ONE_TOL:
                    raise InvalidParameter(
                        f"volume-preserving chain has linear step with det {step.det()!r}"
                    )

    @classmethod
    def of(cls, *steps: Step) -> "AutoChain":
        """Build a chain, inferring the volume-preserving flag from the steps."""
        vp = all(
            not isinstance(s, Linear) or abs(s.det() - 1.0) <= _DET_ONE_TOL for s in steps
        )
        return cls(tuple(steps), volume_preserving=vp)

    def then(self, *steps: Step) -> "AutoChain":
        """The chain followed by further steps (composition on the left)."""
        return AutoChain.of(*(self.steps + tuple(steps)))

    def inverted(self) -> "AutoChain":
        inv = tuple(s.inverted() for s in reversed(self.steps))
        return AutoChain(inv, volume_preserving=self.volume_preserving)

    def determinant(self) -> complex:
        det = 1.0 + 0j
        for step in self.steps:
            det *= step.det()
        return det

    # -- capped evaluation -------------------------------------------------

    def evaluate(self, z: Point, cap: float = DEFAULT_CAP) -> Point:
        _check_finite(z)
        x, y = complex(z[0]), complex(z[1])
        for i, step in enumerate(self.steps):
            x, y = step.apply(x, y)
            m = max(abs(x), abs(y))
            if not math.isfinite(m) or m > cap:
                raise Overflow(m, i)
        return x, y

    def inverse_evaluate(self, z: Point, cap: float = DEFAULT_CAP) -> Point:
        _check_finite(z)
        x, y = complex(z[0]), complex(z[1])
        for i, step in enumerate(reversed(self.steps)):
            x, y = step.apply_inv(x, y)
            m = max(abs(x), abs(y))
            if not math.isfinite(m) or m > cap:
                raise Overflow(m, i)
        return x, y

    def evaluate_batch(self, xs, ys, cap: float = DEFAULT_CAP):
        """Vectorised evaluation; returns (xs, ys, ok) with escapers frozen at 0."""
        return _batch_apply(self.steps, xs, ys, cap, inverse=False)

    def inverse_batch(self, xs, ys):
        return _batch_apply(tuple(reversed(self.steps)), xs, ys, DEFAULT_CAP, inverse=True)


def _batch_apply(steps, xs, ys, cap, inverse):
    x = np.array(xs, dtype=complex, copy=True)
    y = np.array(ys, dtype=complex, copy=True)
    ok = np.ones(x.shape, dtype=bool)
    for step in steps:
        nx, ny = (step.apply_inv(x, y) if inverse else step.apply(x, y))
        ok &= ~_escaped(nx, ny, cap)
        x = np.where(ok, nx, 0j)
        y = np.where(ok, ny, 0j)
    return x, y, ok


def _escaped(nx, ny, cap):
    """True where an image is non-finite or has a coordinate above cap."""
    with np.errstate(invalid="ignore", over="ignore"):
        return ~(np.isfinite(nx) & np.isfinite(ny)) | (np.maximum(np.abs(nx), np.abs(ny)) > cap)


def iterate_live(advance, arrays, steps: int):
    """Iterate advance(k, idx, *arrays) -> (keep, arrays) for k = 1..steps on
    the live points only, stopping once none is left.

    idx holds the original indices of the points whose state is in arrays
    (np.arange(n) at first); points where keep is false leave both, and
    advance records their verdicts by scattering through idx.  Returns the
    final (idx, arrays).
    """
    idx = np.arange(len(arrays[0]))
    for k in range(1, steps + 1):
        if idx.size == 0:
            break
        keep, arrays = advance(k, idx, *arrays)
        if not keep.all():
            live = np.flatnonzero(keep)
            idx = idx[live]
            arrays = tuple(a[live] for a in arrays)
    return idx, arrays


# -- fixed points ----------------------------------------------------------


class Classification(Enum):
    ATTRACTING = "Attracting"
    REPELLING = "Repelling"
    SADDLE = "Saddle"
    TANGENT_TO_IDENTITY = "TangentToIdentity"
    NEUTRAL_OTHER = "NeutralOther"


def eig2(j: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 complex matrix, sorted by modulus."""
    a, b, c, d = complex(j[0, 0]), complex(j[0, 1]), complex(j[1, 0]), complex(j[1, 1])
    tr = a + d
    disc = cmath.sqrt(tr * tr - 4 * (a * d - b * c))
    l1, l2 = (tr - disc) / 2, (tr + disc) / 2
    if (abs(l1), l1.real, l1.imag) > (abs(l2), l2.real, l2.imag):
        l1, l2 = l2, l1
    return l1, l2


def eigenvector(j: np.ndarray, lam: complex) -> np.ndarray:
    """Unit eigenvector with a deterministic phase convention."""
    a, b, c, d = complex(j[0, 0]), complex(j[0, 1]), complex(j[1, 0]), complex(j[1, 1])
    cand1 = np.array([b, lam - a], dtype=complex)
    cand2 = np.array([lam - d, c], dtype=complex)
    v = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
    if np.linalg.norm(v) == 0:
        v = np.array([1.0, 0.0], dtype=complex)
    k = int(np.argmax(np.abs(v)))
    v = v * (v[k].conjugate() / abs(v[k]))
    return v / np.linalg.norm(v)


def classify_differential(j: np.ndarray) -> tuple[Classification, int, tuple[complex, complex]]:
    """Classification, stable dimension and sorted eigenvalues of df."""
    if float(np.max(np.abs(j - np.eye(2)))) <= IDENTITY_TOL:
        return Classification.TANGENT_TO_IDENTITY, 0, (1.0 + 0j, 1.0 + 0j)
    l1, l2 = eig2(j)
    mods = (abs(l1), abs(l2))
    inside = [m < 1.0 - NEUTRAL_TOL for m in mods]
    outside = [m > 1.0 + NEUTRAL_TOL for m in mods]
    stable_dim = sum(inside)
    if all(inside):
        cls = Classification.ATTRACTING
    elif all(outside):
        cls = Classification.REPELLING
    elif inside[0] and outside[1]:
        cls = Classification.SADDLE
    else:
        cls = Classification.NEUTRAL_OTHER
    return cls, stable_dim, (l1, l2)


@dataclass(frozen=True, eq=False)
class FixedPointInfo:
    location: Point
    differential: np.ndarray
    eigenvalues: tuple[complex, complex]
    classification: Classification
    stable_dim: int
    stable_direction: np.ndarray | None
    unstable_direction: np.ndarray | None
    residual: float
    iterations: int


def _residual(chain: AutoChain, z: Point) -> tuple[Point, float]:
    fz = chain.evaluate(z)
    g = (fz[0] - z[0], fz[1] - z[1])
    return g, math.hypot(abs(g[0]), abs(g[1]))


def find_fixed_point(
    chain: AutoChain,
    seed: Point,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> FixedPointInfo:
    """Newton iteration on f(z) - z with residual-halving damping.

    Raises NoConvergence after max_iter, SingularDifferential when the
    Newton matrix df - I degenerates (conditioning info attached).
    """
    if tol <= 0:
        raise InvalidParameter("tol must be positive")
    _check_finite(seed)
    z = (complex(seed[0]), complex(seed[1]))
    try:
        g, r = _residual(chain, z)
    except Overflow as exc:
        raise NoConvergence(f"seed escapes under f: {exc}") from exc

    iterations = 0
    for iterations in range(max_iter):
        if r < tol:
            break
        j = chain.differential(z) - np.eye(2)
        det = complex(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
        scale = float(np.max(np.abs(j))) + 1.0
        if abs(det) <= 1e-14 * scale * scale:
            raise SingularDifferential(det, scale)
        dx = (j[1, 1] * g[0] - j[0, 1] * g[1]) / det
        dy = (-j[1, 0] * g[0] + j[0, 0] * g[1]) / det
        step = 1.0
        z_new, g_new, r_new = z, g, r
        for _ in range(40):
            cand = (z[0] - step * dx, z[1] - step * dy)
            try:
                g_cand, r_cand = _residual(chain, cand)
            except Overflow:
                step *= 0.5
                continue
            z_new, g_new, r_new = cand, g_cand, r_cand
            if r_cand < r or step < 1e-8:
                break
            step *= 0.5
        z, g, r = z_new, g_new, r_new
    else:
        raise NoConvergence(
            f"Newton did not reach tol {tol:.1e} in {max_iter} iterations", residual=r
        )

    j = chain.differential(z)
    cls, stable_dim, eigs = classify_differential(j)
    vs = vu = None
    if cls is Classification.SADDLE:
        vs = eigenvector(j, eigs[0])
        vu = eigenvector(j, eigs[1])
    return FixedPointInfo(
        location=z,
        differential=j,
        eigenvalues=eigs,
        classification=cls,
        stable_dim=stable_dim,
        stable_direction=vs,
        unstable_direction=vu,
        residual=r,
        iterations=iterations,
    )


# -- common constructions --------------------------------------------------


def identity_chain() -> AutoChain:
    return AutoChain.of()


def henon_chain(c: float | complex) -> AutoChain:
    """The volume-preserving Henon-type map (x, y) -> (x^2 + c - y, x)."""
    rot = Linear(0.0, -1.0, 1.0, 0.0)
    return AutoChain.of(rot, ShearX((complex(c), 0.0, 1.0)))


def diag_linear_chain(a: complex, d: complex) -> AutoChain:
    return AutoChain.of(Linear(a, 0.0, 0.0, d))


def conjugate_by_translation(chain: AutoChain, p: Point) -> AutoChain:
    """T_{-p} o chain o T_{p}: moves a fixed point at p to the origin."""
    steps = (Translation(p[0], p[1]),) + chain.steps + (Translation(-p[0], -p[1]),)
    return AutoChain(steps, volume_preserving=chain.volume_preserving)


# -- map definition files ---------------------------------------------------


def _cx_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise MapFormatError(f"expected number or [re, im] pair, got {v!r}")


def _cx_to_json(c: complex) -> list[float]:
    return [c.real, c.imag]


def step_from_dict(d: dict) -> Step:
    kind = d.get("kind")
    try:
        if kind == "shear_x":
            return ShearX(tuple(_cx_from_json(c) for c in d["coeffs"]))
        if kind == "shear_y":
            return ShearY(tuple(_cx_from_json(c) for c in d["coeffs"]))
        if kind == "linear":
            m = d["matrix"]
            return Linear(
                _cx_from_json(m[0][0]), _cx_from_json(m[0][1]),
                _cx_from_json(m[1][0]), _cx_from_json(m[1][1]),
            )
        if kind == "translate":
            return Translation(_cx_from_json(d["by"][0]), _cx_from_json(d["by"][1]))
        if kind == "quadratic_jet":
            return QuadraticJet(
                tuple(_cx_from_json(c) for c in d["p"]),
                tuple(_cx_from_json(c) for c in d["q"]),
            )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MapFormatError(f"malformed step {d!r}: {exc}") from exc
    raise MapFormatError(f"unknown step kind {kind!r}")


def step_to_dict(step: Step) -> dict:
    if isinstance(step, ShearX):
        return {"kind": "shear_x", "coeffs": [_cx_to_json(c) for c in step.coeffs]}
    if isinstance(step, ShearY):
        return {"kind": "shear_y", "coeffs": [_cx_to_json(c) for c in step.coeffs]}
    if isinstance(step, Linear):
        return {
            "kind": "linear",
            "matrix": [
                [_cx_to_json(step.a), _cx_to_json(step.b)],
                [_cx_to_json(step.c), _cx_to_json(step.d)],
            ],
        }
    if isinstance(step, Translation):
        return {"kind": "translate", "by": [_cx_to_json(step.bx), _cx_to_json(step.by)]}
    if isinstance(step, QuadraticJet):
        return {
            "kind": "quadratic_jet",
            "p": [_cx_to_json(c) for c in step.p],
            "q": [_cx_to_json(c) for c in step.q],
        }
    raise TypeError(f"unknown step {step!r}")


def map_from_dict(d: dict) -> AutoChain | EndoChain:
    """Parse a map definition; quadratic_jet steps force an endomorphism."""
    if not isinstance(d, dict) or "steps" not in d:
        raise MapFormatError("map definition must be an object with a 'steps' list")
    steps = tuple(step_from_dict(s) for s in d["steps"])
    if any(isinstance(s, QuadraticJet) for s in steps):
        return EndoChain(steps)
    vp = d.get("volume_preserving")
    if vp is None:
        return AutoChain.of(*steps)
    return AutoChain(steps, volume_preserving=bool(vp))


def map_to_dict(chain: AutoChain | EndoChain) -> dict:
    d: dict = {}
    if isinstance(chain, AutoChain):
        d["volume_preserving"] = chain.volume_preserving
    d["steps"] = [step_to_dict(s) for s in chain.steps]
    return d


def load_map(path: str) -> AutoChain | EndoChain:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"{path}: invalid JSON: {exc}") from exc
    return map_from_dict(d)
