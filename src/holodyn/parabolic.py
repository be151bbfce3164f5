"""Maps tangent to the identity: normal forms, blow-up and sector dynamics.

For f(z) = z + P2(z) + h.o.t. with homogeneous quadratic P2 = (p, q), a
direction v with P2(v) = lambda * v is characteristic (non-degenerate when
lambda != 0).  Volume preservation forces p_x = -q_y, so after moving a
non-degenerate direction to (1, 0) with lambda = 1 the quadratic part reads

    (x^2 + 2b xy + c y^2,  -2xy - b y^2)

and, when b != 0, rescaling y by 1/b gives the one-parameter normal form

    (x^2 + 2 xy + c y^2,  -2xy - y^2).

The blow-up substitution y = u x separates the radial coordinate x from the
direction u.  In the sector

    W_eps = { (x, u) : max(|x|, |arg(x) - pi|) < eps,  2|u| < |x| }

the x-dynamics creeps to 0 like a parabolic petal while differences in u
expand, which pins down a unique graph point u(x) for each admissible x.
The graph point is located in two stages.  Coarse survival grids keep the
cells of the u-disc whose centre orbit stays in W_eps over growing
horizons, mirroring the nested compact sets of the uniqueness argument.
Then, since u -> u_N(u) is holomorphic and expanding, Newton's method
solves u_N = 0, and the argument principle on a ring about the root
certifies its radius.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    AutoChain, EndoChain, Linear, QuadraticJet, Shear, _compile, _distance_blocks, iterate_live,
)
from .errors import (
    Ambiguous,
    BlowupSingular,
    DegenerateDirection,
    InvalidParameter,
    NoConvergence,
    NoSurvivor,
    NotTangentToIdentity,
)
from .manifold import sheary_perturbation_family
from .poly import Poly2
from .rng import make_generator

TangentMapLike = AutoChain | EndoChain

_JET_TOL = 1e-9
# divergence-freeness holds when both defect terms are below this times |P2| + 1
_DIV_TOL = 1e-12


@dataclass(frozen=True)
class HomogeneousQuadratic:
    """P2 = (p, q); p = (a, b2, c) means a x^2 + b2 xy + c y^2, same for q."""

    p: tuple[complex, complex, complex]
    q: tuple[complex, complex, complex]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))
        if not all(cmath.isfinite(v) for v in self.p + self.q):
            raise InvalidParameter(f"P2 coefficients must be finite, got {self.p}, {self.q}")

    @classmethod
    def normal_form(cls, c: complex) -> "HomogeneousQuadratic":
        """The one-parameter family (x^2 + 2xy + c y^2, -2xy - y^2)."""
        return cls((1.0, 2.0, complex(c)), (0.0, -2.0, -1.0))

    def is_divergence_free(self) -> bool:
        """div P2 = 0 (q_xy = -2 p_a, q_c = -p_xy / 2): the quadratic part of
        a volume-preserving map, whose Jacobian determinant is 1 + O(|z|^2)."""
        scale = self.norm() + 1.0
        return (
            abs(self.q[1] + 2 * self.p[0]) <= _DIV_TOL * scale
            and abs(self.q[2] + self.p[1] / 2) <= _DIV_TOL * scale
        )

    def norm(self) -> float:
        return max(abs(v) for v in self.p + self.q)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.p + self.q)

    def eval(self, x, y):
        pa, pxy, pc = self.p
        qa, qxy, qc = self.q
        return (
            pa * x * x + pxy * x * y + pc * y * y,
            qa * x * x + qxy * x * y + qc * y * y,
        )

    def to_map(self) -> EndoChain:
        return EndoChain((QuadraticJet(self.p, self.q),))

    def conjugate_linear(self, m: np.ndarray) -> "HomogeneousQuadratic":
        """Quadratic part of L^{-1} o (Id + P2) o L for linear L = m."""
        jet = QuadraticJet(self.p, self.q)
        chain = EndoChain((Linear(*m.ravel()), jet, Linear(*np.linalg.inv(m).ravel())))
        return _degree_two(*chain.to_polynomial())


def _degree_two(fx: Poly2, fy: Poly2) -> HomogeneousQuadratic:
    """The (x^2, xy, y^2) coefficients of a polynomial map (fx, fy)."""
    keys = ((2, 0), (1, 1), (0, 2))
    return HomogeneousQuadratic(
        tuple(fx.coefficient(*k) for k in keys), tuple(fy.coefficient(*k) for k in keys)
    )


def quadratic_part(map_like: TangentMapLike) -> HomogeneousQuadratic:
    """Exact degree-2 coefficients of a map tangent to the identity."""
    fx, fy = map_like.to_polynomial()
    scale = max(fx.max_coeff(), fy.max_coeff(), 1.0)
    ok = (
        abs(fx.coefficient(0, 0)) <= _JET_TOL * scale
        and abs(fy.coefficient(0, 0)) <= _JET_TOL * scale
        and abs(fx.coefficient(1, 0) - 1) <= _JET_TOL * scale
        and abs(fx.coefficient(0, 1)) <= _JET_TOL * scale
        and abs(fy.coefficient(1, 0)) <= _JET_TOL * scale
        and abs(fy.coefficient(0, 1) - 1) <= _JET_TOL * scale
    )
    if not ok:
        raise NotTangentToIdentity("map does not fix 0 with identity differential")
    return _degree_two(fx, fy)


# -- characteristic directions ----------------------------------------------


class AllDirections:
    """Marker: P2 vanishes identically, every direction is characteristic."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "AllDirections()"


@dataclass(frozen=True, eq=False)
class CharacteristicDirection:
    direction: np.ndarray  # unit vector in C^2
    lam: complex
    degenerate: bool
    chart: str


def _newton_polish_root(coeffs: np.ndarray, r: complex) -> complex:
    # coeffs ascending; single Newton step per root, guarded
    der = coeffs[1:] * np.arange(1, len(coeffs))
    val = 0j
    for c in coeffs[::-1]:
        val = val * r + c
    dval = 0j
    for c in der[::-1]:
        dval = dval * r + c
    if abs(dval) > 1e-14:
        r = r - val / dval
    return r


# a lambda (or normalize's b, or make_nondegenerate's P2(1, 0)) counts as 0
# below _ZERO_TOL * max(|P2|, 1); characteristic_directions merges roots u
# closer than _MERGE_TOL * (1 + |u|)
_ZERO_TOL, _MERGE_TOL = 1e-10, 1e-8


def characteristic_directions(
    p2: HomogeneousQuadratic,
) -> list[CharacteristicDirection] | AllDirections:
    """Directions v with P2(v) = lambda v, found in both blow-up charts.

    Chart y = u x solves q(1, u) - u p(1, u) = 0 (companion-matrix roots
    with one Newton polish each); chart x = w y only contributes (0, 1).
    Roots within _MERGE_TOL are merged.
    """
    if p2.is_zero():
        return AllDirections()
    pa, pxy, pc = p2.p
    qa, qxy, qc = p2.q
    # q(1,u) - u p(1,u), ascending in u
    coeffs = np.array([qa, qxy - pa, qc - pxy, -pc], dtype=complex)
    while len(coeffs) > 1 and abs(coeffs[-1]) <= 1e-14 * max(1.0, p2.norm()):
        coeffs = coeffs[:-1]
    found: list[CharacteristicDirection] = []
    lam_scale = p2.norm()
    if len(coeffs) > 1:
        roots = np.roots(coeffs[::-1])
        roots = [_newton_polish_root(coeffs, complex(r)) for r in roots]
        merged: list[complex] = []
        for r in sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12))):
            if not any(abs(r - m) <= _MERGE_TOL * (1 + abs(r)) for m in merged):
                merged.append(r)
        for u in merged:
            v = np.array([1.0, u], dtype=complex)
            scale = np.linalg.norm(v)
            v = v / scale
            # homogeneity: P2((1,u)/s) = (p(1,u)/s) * (1,u)/s, so the
            # eigenvalue of the stored unit vector is the chart value / s
            lam = p2.eval(1.0, u)[0] / scale
            found.append(
                CharacteristicDirection(
                    direction=v,
                    lam=lam,
                    degenerate=abs(lam) <= _ZERO_TOL * max(lam_scale, 1.0),
                    chart="y=ux",
                )
            )
    # chart x = wy: the direction (0, 1) is characteristic iff p(0,1) = 0
    if abs(pc) <= _ZERO_TOL * max(lam_scale, 1.0):
        lam = qc
        found.append(
            CharacteristicDirection(
                direction=np.array([0.0, 1.0], dtype=complex),
                lam=lam,
                degenerate=abs(lam) <= _ZERO_TOL * max(lam_scale, 1.0),
                chart="x=wy",
            )
        )
    return found


def make_nondegenerate(
    p2: HomogeneousQuadratic, v: np.ndarray, eps: float
) -> HomogeneousQuadratic:
    """Add the divergence-free perturbation (eps x^2, -2 eps xy).

    Requires v normalized to (1, 0) and degenerate characteristic there;
    the new direction (1, 0) has lambda = old p(1,0) + eps.
    """
    v = np.asarray(v, dtype=complex)
    if abs(v[0] - 1.0) > 1e-12 or abs(v[1]) > 1e-12:
        raise InvalidParameter(f"expected v = (1, 0), got {v!r}")
    px, qx = p2.eval(1.0, 0.0)
    scale = max(p2.norm(), 1.0)
    if max(abs(px), abs(qx)) > _ZERO_TOL * scale:
        raise InvalidParameter("(1, 0) is not a degenerate characteristic direction of P2")
    return HomogeneousQuadratic(
        (p2.p[0] + eps, p2.p[1], p2.p[2]),
        (p2.q[0], p2.q[1] - 2 * eps, p2.q[2]),
    )


@dataclass(frozen=True, eq=False)
class NormalizeResult:
    quadratic: HomogeneousQuadratic
    c: complex
    conjugation: np.ndarray  # L: the normalized P2 is z -> L^{-1} P2(L z)
    b_was_zero: bool


def normalize(p2: HomogeneousQuadratic, v: CharacteristicDirection) -> NormalizeResult:
    """Conjugate a non-degenerate direction into the one-parameter normal form.

    First a linear map with columns (v / lambda, w) moves v to (1, 0) and
    rescales lambda to 1; divergence-freeness survives any linear
    conjugation, which forces the two-parameter (b, c) shape.  When b != 0
    the rescaling (x, y) -> (x, y / b) lands on the c-only form; the b = 0
    branch skips the rescale and is flagged.
    """
    if not p2.is_divergence_free():
        raise InvalidParameter("normalize expects a divergence-free quadratic part")
    lam = complex(v.lam)
    if v.degenerate or abs(lam) <= 1e-14 * max(p2.norm(), 1.0):
        raise DegenerateDirection("cannot normalize a degenerate direction")
    vec = np.asarray(v.direction, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    w = np.array([-vec[1].conjugate(), vec[0].conjugate()], dtype=complex)
    m1 = np.array([[vec[0] / lam, w[0]], [vec[1] / lam, w[1]]], dtype=complex)
    q1 = p2.conjugate_linear(m1)
    b = q1.p[1] / 2.0
    if abs(b) <= _ZERO_TOL * max(q1.norm(), 1.0):
        return NormalizeResult(q1, q1.p[2], m1, b_was_zero=True)
    m2 = np.array([[1.0, 0.0], [0.0, 1.0 / b]], dtype=complex)
    m = m1 @ m2
    q2 = p2.conjugate_linear(m)
    return NormalizeResult(q2, q2.p[2], m, b_was_zero=False)


# -- blow-up dynamics --------------------------------------------------------


@dataclass(frozen=True)
class SectorPoint:
    """Blow-up coordinates (x, u) with y = u x, carrying the sector epsilon."""

    x: complex
    u: complex
    epsilon: float


def _in_sector(x: complex, u, eps: float) -> bool:
    """(x, u) in W_eps; |arg(-x)| (principal) is |arg(x) - pi| with arg in [0, 2pi)."""
    ax = abs(x)
    return ax != 0 and max(ax, abs(cmath.phase(-x))) < eps and 2 * abs(u) < ax


def in_sector(pt: SectorPoint) -> bool:
    return _in_sector(complex(pt.x), pt.u, pt.epsilon)


def blowup_batch(map_like: TangentMapLike, xs: np.ndarray, us: np.ndarray):
    """Vectorised blow-up step; returns (x1, u1, ok) with ok false at x1 ~ 0.
    nan or inf input gives nan or inf output, under its own np.errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        ys = us * xs
        fx, fy = map_like.apply(xs, ys)
        ok = np.abs(fx) > 1e-300
        u1 = np.divide(fy, fx, out=np.zeros(np.shape(fx), dtype=complex), where=ok)
    return fx, u1, ok


def _sector_mask(xs: np.ndarray, us: np.ndarray, eps: float) -> np.ndarray:
    # |arctan2(-Im x, -Re x)| = |arg(x) - pi|; 2|u| < |x| excludes x = 0 (no chart)
    with np.errstate(invalid="ignore", over="ignore"):  # 2|u| overflows for |u| > 8.9e307
        ax = np.abs(xs)
        return (ax < eps) & (np.abs(np.arctan2(-xs.imag, -xs.real)) < eps) & (2 * np.abs(us) < ax)


# The blow-up orbit loops, each compiled by _loop around its chain's step lines
# (the body's line STEPS).  A blow-up step is y = u x, the chain, the singular
# test and u = y / x; the scalar sector test is _in_sector's, |x| > 0 known.
# name -> (args, result, tangent lines, 0-d array coefficients, body)
_LOOPS = {
    "shot": ("x, u, n, eps", "x, u, du, stayed", True, False, """\
dx, du, stayed = 0j, 1.0 + 0j, True
for _ in range(n):
    y, dy = u * x, du * x + u * dx
    STEPS
    ax = abs(x)
    if ax <= 1e-300:
        raise BlowupSingular(f"image x-coordinate vanished (x1 = {x!r})")
    u = y / x
    du = (dy - u * dx) / x
    stayed = stayed and ax < eps and abs(phase(-x)) < eps and 2 * abs(u) < ax"""),
    "orbit": ("x, u, n, eps, floor", '"undecided", n, x, u', False, False, """\
for k in range(1, n + 1):
    y = u * x
    STEPS
    ax = abs(x)
    if ax <= 1e-300:
        raise BlowupSingular(f"image x-coordinate vanished (x1 = {x!r})")
    u = y / x
    if not (ax < eps and abs(phase(-x)) < eps and 2 * abs(u) < ax):
        return "left", k, x, u
    if ax < floor:
        return "converged", k, x, u"""),
    # pass: a chain of no steps leaves no other line in the loop
    "ring": ("x, y, n", "x, y", False, True, "for _ in range(n):\n    STEPS\n    pass"),
    "survive": ("x, u, eps", "keep, (x, u)", False, True, """\
y = u * x
STEPS
ax = np.abs(x)
ok = ax > 1e-300
u = np.divide(y, x, out=np.zeros(ax.shape, dtype=complex), where=ok)
keep = ok & (ax < eps) & (np.abs(np.arctan2(-x.imag, -x.real)) < eps) & (2 * np.abs(u) < ax)"""),
}


def _loop(map_like: TangentMapLike, name: str):
    """The loop _LOOPS[name] of map_like, compiled at its first use and kept
    in the chain's __dict__, as the chain keeps _tangent_push.  The array
    loops bind each coefficient as a 0-d complex array: numpy multiplies one
    into an array faster than a Python complex, with the same bytes."""
    fns = vars(map_like)
    key = f"_loop_{name}"
    if key not in fns:
        args, result, tangent, array, body = _LOOPS[name]
        lines = map_like._chain_lines(tangent)
        coeff = (lambda c: np.asarray(c, dtype=complex)) if array else (lambda c: c)
        fns[key] = _compile(
            args, lambda bind: lines(lambda c: bind(coeff(c))), body, result,
            np=np, phase=cmath.phase, BlowupSingular=BlowupSingular,
        )
    return fns[key]


@dataclass(eq=False)
class SectorOrbitResult:
    kind: str  # 'converged' | 'left' | 'undecided'
    steps: int
    last: SectorPoint


def sector_orbit(
    map_like: TangentMapLike,
    pt: SectorPoint,
    max_iter: int = 20000,
    floor: float = 1e-4,
) -> SectorOrbitResult:
    """Iterate the blow-up map inside the sector.

    'converged' when |x_n| drops below floor with every iterate so far in
    the sector; 'left' (with the step index) as soon as an iterate exits;
    the sector test comes first.  Parabolic convergence is algebraic, so the
    floor is a practical stand-in for the limit statement.  The steps run
    in the chain's compiled "orbit" loop (_LOOPS), one Python call in all;
    a vanishing image x raises BlowupSingular.
    """
    if not in_sector(pt):
        return SectorOrbitResult("left", 0, pt)
    kind, n, x, u = _loop(map_like, "orbit")(complex(pt.x), pt.u, max_iter, pt.epsilon, floor)
    return SectorOrbitResult(kind, n, SectorPoint(x, u, pt.epsilon))


# -- expansion (difference growth in u) --------------------------------------


@dataclass(eq=False)
class ExpansionReport:
    epsilon: float
    trials: int
    violations: int
    min_margin: float
    regime_ok: bool


# sample batches drawn before expansion_check gives up on finding trials pairs
_MAX_BATCHES = 400


def expansion_check(
    map_like: TangentMapLike,
    epsilon: float,
    trials: int = 10_000,
    seed: int = 7,
) -> ExpansionReport:
    """Sample admissible sector pairs and count expansion failures.

    For eps in the contraction regime the expected violation count is 0;
    a nonzero count flags eps outside the regime (regime_ok False).
    """
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if not 0 < epsilon < math.inf:  # nan included
        raise InvalidParameter(f"epsilon must be positive and finite, got {epsilon}")
    g = make_generator(seed)
    got = 0
    violations = 0
    min_margin = math.inf
    batch = max(1024, trials // 4)
    for _ in range(_MAX_BATCHES):
        if got >= trials:
            break
        r = epsilon * (0.05 + 0.95 * g.random(batch))
        phi = epsilon * (2 * g.random(batch) - 1) * 0.98
        xs = r * np.exp(1j * (np.pi + phi))
        rho = 0.5 * r * np.sqrt(g.random(batch)) * 0.98
        us = rho * np.exp(2j * np.pi * g.random(batch))
        wiggle = 0.02 * (g.random(batch) * np.exp(2j * np.pi * g.random(batch)))
        xt = xs * (1.0 + wiggle)
        rho2 = 0.5 * np.abs(xt) * np.sqrt(g.random(batch)) * 0.98
        ut = rho2 * np.exp(2j * np.pi * g.random(batch))

        both_in = _sector_mask(xs, us, epsilon) & _sector_mask(xt, ut, epsilon)
        du = np.abs(us - ut)
        admissible = both_in & (2 * np.abs(xs - xt) < du) & (du > 0)
        idx = np.flatnonzero(admissible)
        if idx.size == 0:
            continue
        take = idx[: trials - got]
        x1, u1, ok1 = blowup_batch(map_like, xs[take], us[take])
        x2, u2, ok2 = blowup_batch(map_like, xt[take], ut[take])
        good = ok1 & ok2
        margin = np.abs(u1 - u2) - np.maximum(du[take], 2 * np.abs(x1 - x2))
        margin = margin[good]
        got += int(np.count_nonzero(good))
        violations += int(np.count_nonzero(margin <= 0))
        if margin.size:
            min_margin = min(min_margin, float(margin.min()))
    if got < trials:
        raise NoConvergence(
            f"only {got}/{trials} admissible pairs found; widen the sampling scheme"
        )
    return ExpansionReport(
        epsilon=epsilon,
        trials=got,
        violations=violations,
        min_margin=min_margin,
        regime_ok=violations == 0,
    )


# -- the unique graph point ---------------------------------------------------


@dataclass(eq=False)
class GraphPointResult:
    x: complex
    u: complex
    certified_radius: float
    levels: int
    final_horizon: int


def _survivors(
    map_like: TangentMapLike, x: complex, us: np.ndarray, eps: float, horizon: int
) -> np.ndarray:
    start = np.flatnonzero(_sector_mask(np.full(us.shape, x, dtype=complex), us, eps))
    survive = _loop(map_like, "survive")  # (xs, us, eps) -> (in W_eps after one step, (x1, u1))
    idx, _ = iterate_live(
        lambda k, idx, xs, uu: survive(xs, uu, eps),
        (np.full(start.size, x, dtype=complex), us[start].astype(complex)), horizon,
    )
    alive = np.zeros(us.shape, dtype=bool)
    alive[start[idx]] = True
    return alive


def _clusters(points: np.ndarray, link: float) -> tuple[int, float]:
    """Number of connected components of points under |p - q| <= link, grown
    by frontier expansion, and the smallest distance between two points of
    different components (inf for a single component)."""
    labels = np.full(len(points), -1)
    count = 0
    while (labels < 0).any():
        frontier = np.flatnonzero(labels < 0)[:1]
        while frontier.size:
            labels[frontier] = count
            rest = np.flatnonzero(labels < 0)
            near = np.zeros(rest.size, dtype=bool)
            for _, d in _distance_blocks(points[frontier], points[rest]):
                near |= (d <= link).any(axis=0)
            frontier = rest[near]
        count += 1
    if count == 1:
        return count, math.inf
    gap = min(
        float(d[labels[rows, None] != labels[None, :]].min())
        for rows, d in _distance_blocks(points, points)
    )
    return count, gap


# graph_point: see its docstring for _GRID_N, _HORIZON0, _MAX_LEVELS and
# _COARSE; the ring has _RING samples and radius _RING_MARGIN times
# |x_N| / (2 |du_N/du|); Newton stops below _NEWTON_TOL ring radii and fails
# after _NEWTON_MAX steps
_GRID_N, _HORIZON0, _MAX_LEVELS = 32, 10, 40
_COARSE, _RING, _RING_MARGIN, _NEWTON_TOL, _NEWTON_MAX = 100.0, 32, 1.5, 1e-2, 30


def _shoot(map_like, x: complex, u: complex, n: int, eps: float):
    """(x_n, u_n, du_n/du, stayed in W_eps) of n blow-up steps: the chain's
    compiled "shot" loop (_LOOPS), its tangent lines inline, one Python call
    for all n steps.  (x_n, u_n) is n blowup steps through apply, bit for
    bit; a vanishing image x raises BlowupSingular."""
    return _loop(map_like, "shot")(x, u, n, eps)


def _ring_winds_once(map_like, x: complex, u: complex, rho: float, n: int, eps: float) -> bool:
    """After n steps the circle |u0 - u| = rho is outside W_eps and u_n winds once
    around 0, sampled at _RING points with each phase step below pi / 2.

    The samples run the map itself on (x, y = u x): n applications of the
    chain's value lines in its compiled "ring" loop (_LOOPS), apply iterated
    n times bit for bit.  u_n = y_n / x_n is formed once, after step n; no
    u_k before it enters the verdict.  u_n is set to 0 (a failure) where
    x_n ~ 0, as blowup_batch would."""
    us = u + rho * np.exp(2j * np.pi * np.arange(_RING) / _RING)
    xs = np.full(_RING, x, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xs, ys = _loop(map_like, "ring")(xs, us * xs, n)
        us = np.where(np.abs(xs) > 1e-300, ys / xs, 0j)
        if not (np.isfinite(us).all() and us.all()) or _sector_mask(xs, us, eps).any():
            return False
    turns = np.angle(np.roll(us, -1) / us)
    return bool(np.abs(turns).max() < np.pi / 2) and round(turns.sum() / (2 * np.pi)) == 1


def graph_point(
    map_like: TangentMapLike,
    x: complex,
    epsilon: float = 0.02,
    resolution: float = 1e-6,
) -> GraphPointResult:
    """The unique u whose blow-up orbit from (x, u) stays in W_eps, for
    0 < |x| < eps < inf and |arg(x) - pi| < eps (else InvalidParameter).

    Level k < _MAX_LEVELS = 40 has horizon N = _HORIZON0 * 2^k = 10 * 2^k.
    While a cell is wider than |x| / _COARSE = |x| / 100, a _GRID_N^2 = 32^2
    grid over the disc 2|u| <= |x| keeps the cells whose centre orbit stays in
    W_eps for N steps and shrinks to them; an empty level
    raises NoSurvivor, separated survivor clusters on two levels in a row
    raise Ambiguous.
    Then Newton's method solves u_N(u) = 0 from the survivors' centre, one
    step per level while rho = 1.5 |x_N| / (2 |du_N/du|) >= resolution, then
    to convergence; a converged root whose orbit leaves W_eps within N steps
    raises NoSurvivor.  The root is returned with certified_radius rho once,
    on the ring |u0 - u| = rho, u_N winds once around 0 with no sample in
    W_eps at step N (its own orbit stays in W_eps for N steps): by the argument
    principle the ring holds exactly one zero of u_N, and no sampled orbit
    through it stays N steps.  levels counts grid levels, final_horizon is N.
    """
    if not resolution > 0:  # nan included: rho < resolution would never hold
        raise InvalidParameter(f"resolution must be positive, got {resolution}")
    if not 0 < epsilon < math.inf:  # nan included
        raise InvalidParameter(f"epsilon must be positive and finite, got {epsilon}")
    x = complex(x)
    if not _in_sector(x, 0j, epsilon):
        raise InvalidParameter("x must satisfy 0 < |x| < eps and |arg(x) - pi| < eps")
    r0 = abs(x) / 2.0
    lo, hi = complex(-r0, -r0), complex(r0, r0)
    split_seen, level, cell = 0, 0, math.inf
    while cell >= abs(x) / _COARSE:
        if level == _MAX_LEVELS:
            raise NoConvergence(f"survival grid still coarse after {level} levels")
        horizon = _HORIZON0 * (2**level)
        re = np.linspace(lo.real, hi.real, _GRID_N + 1)
        im = np.linspace(lo.imag, hi.imag, _GRID_N + 1)
        cre = 0.5 * (re[:-1] + re[1:])
        cim = 0.5 * (im[:-1] + im[1:])
        cell = max(re[1] - re[0], im[1] - im[0])
        uu = (cre[None, :] + 1j * cim[:, None]).ravel()
        uu = uu[2 * np.abs(uu) <= abs(x)]
        survivors = uu[_survivors(map_like, x, uu, epsilon, horizon)]
        if survivors.size == 0:
            raise NoSurvivor(f"no surviving cells at level {level} (horizon {horizon}); eps may "
                             "be too large or x outside the regime")
        groups, gap = _clusters(survivors, 3.0 * cell)
        split_seen = 0 if groups == 1 else split_seen + (gap > 6.0 * cell)
        if split_seen >= 2:
            raise Ambiguous(f"{groups} separated survivor clusters at level {level}")
        m = 1.5 * cell
        lo = complex(max(survivors.real.min() - m, -r0), max(survivors.imag.min() - m, -r0))
        hi = complex(min(survivors.real.max() + m, r0), min(survivors.imag.max() + m, r0))
        level += 1
    levels, u = level, complex(survivors.mean())
    for level in range(levels, _MAX_LEVELS):
        n = _HORIZON0 * (2**level)
        for _ in range(_NEWTON_MAX):
            if not 2 * abs(u) < abs(x):
                raise NoConvergence(f"Newton left the disc 2|u| < |x| at N = {n}")
            xn, un, dun, stayed = _shoot(map_like, x, u, n, epsilon)
            if not 0 < abs(dun) < math.inf:
                raise NoConvergence(f"du_N/du is 0 or not finite at N = {n}")
            step, rho = un / dun, _RING_MARGIN * abs(xn) / (2 * abs(dun))
            if rho >= resolution or abs(step) <= _NEWTON_TOL * rho:
                break
            u -= step
        else:
            raise NoConvergence(f"Newton did not converge at N = {n}")
        if rho < resolution and not stayed:
            raise NoSurvivor(f"the root of u_N leaves W_eps within N = {n} steps; eps may "
                             "be too large or x outside the regime")
        if rho < resolution and _ring_winds_once(map_like, x, u, rho, n, epsilon):
            return GraphPointResult(x, u, rho, levels, n)
        u -= step
    raise NoConvergence(f"no certificate below resolution {resolution:.1e} in {_MAX_LEVELS} levels")


@dataclass(eq=False)
class ParabolicStabilityRow:
    t: float
    sup_distance: float
    max_certified: float
    resolution_limited: bool


def parabolic_stability_experiment(
    family: Callable[[float], TangentMapLike],
    x_mesh: Sequence[complex],
    t_values: Sequence[float],
    epsilon: float = 0.02,
    resolution: float = 1e-8,
) -> list[ParabolicStabilityRow]:
    """Sup distance of sector graphs between family(t) and family(0).

    Every family member must be tangent to the identity with the same
    non-degenerate direction (pre-conjugate if needed).  Distances below
    twice the certified radii are flagged as resolution-limited.
    """
    base = {
        x: graph_point(family(0.0), x, epsilon=epsilon, resolution=resolution) for x in x_mesh
    }
    rows = []
    for t in t_values:
        m = family(float(t))
        sup = 0.0
        max_cert = 0.0
        for x in x_mesh:
            gp = graph_point(m, x, epsilon=epsilon, resolution=resolution)
            sup = max(sup, abs(gp.u - base[x].u))
            max_cert = max(max_cert, gp.certified_radius, base[x].certified_radius)
        rows.append(
            ParabolicStabilityRow(
                t=float(t),
                sup_distance=sup,
                max_certified=max_cert,
                resolution_limited=sup < 2 * max_cert,
            )
        )
    return rows


# -- explicit tangent-to-identity automorphisms -------------------------------


def tangent_shear_chain(c: complex) -> AutoChain:
    """A volume-preserving automorphism whose 2-jet is the normal form.

    Two one-step shears z -> z + t_i (m_i x - y)^2 (1, m_i) add their
    quadratic parts; matching the moments sum t m^k for k = 0..3 to
    (c, -1, 1, 0) forces m_i to solve z^2 + a z + a = 0 with a = 1 / (1 - c).
    Fails for c = 1 (a blows up) and c = 3/4 (double root); the composition
    carries genuine higher-order terms.
    """
    c = complex(c)
    if abs(c - 1.0) < 1e-12:
        raise InvalidParameter("c = 1 is degenerate for the two-shear construction")
    alpha = 1.0 / (1.0 - c)
    disc = cmath.sqrt(alpha * alpha - 4 * alpha)
    m1 = (-alpha + disc) / 2.0
    m2 = (-alpha - disc) / 2.0
    if abs(m1 - m2) < 1e-12:
        raise InvalidParameter("double shear direction (c = 3/4); pick another c")
    t1 = (-1.0 - c * m2) / (m1 - m2)
    t2 = c - t1
    shears = ((m1, t1), (m2, t2))
    return AutoChain(tuple(Shear((0.0, 0.0, t), (1.0, m), (m, -1.0)) for m, t in shears))


def normal_form_family(c: complex) -> EndoChain:
    """Pure quadratic map z + P2 for the one-parameter normal form."""
    return HomogeneousQuadratic.normal_form(c).to_map()


def cubic_perturbation_family(c: complex) -> Callable[[float], AutoChain]:
    """t -> tangent_shear_chain(c) followed by the shear (x, y + t x^3).

    All members are volume-preserving automorphisms tangent to the identity
    with the same non-degenerate characteristic direction (1, 0); only the
    3-jet moves, so sector graphs shift by O(t).
    """
    return sheary_perturbation_family(tangent_shear_chain(c), lambda t: (0.0, 0.0, 0.0, t))
