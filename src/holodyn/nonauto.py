"""Non-autonomous compositions and the five-component target-set geometry.

A map sequence produces the j-th map of a composition f_n o ... o f_1.
Sequences can be gated to accept only maps tangent to the identity at the
origin (checked exactly on first use of each index).  The target sets

    N = closed ball  u  K x Disc  u  L x {0}  u  {0} x K  u  {0} x L

combine a slit disc K (disc minus an angular sector, translated left by
eps) and the real segment L = [eps, R]; for small enough delta the five
pieces are pairwise disjoint compact sets, which the disjointness check
verifies with closed-form planar distance formulas plus dense sampling.

The pointwise-vs-uniform report demonstrates attraction that is pointwise
but not uniform on compacts: the evaluation grid is augmented with
unit-circle witnesses so the sup-distance stays above 1 at every step while
the converged fraction climbs to 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .basin import HYSTERESIS, grid_centres, nonuniformity_witness, planar_homeo
from .core import (
    AutoChain,
    DEFAULT_CAP,
    EndoChain,
    Point,
    _escaped,
    hypot_below,
    hypot_max,
    iterate_live,
    map_from_dict,
)
from .errors import InvalidParameter
from .manifold import _nearest_sq_distances

MapLike = AutoChain | EndoChain


class PlanarDemo:
    """(z, w) -> (f(z + 1) - 1, w / 2) with f the planar homeomorphism.

    The shift puts the attracting fixed point at the origin so the report
    measures plain distance to 0.
    """

    def apply(self, x, y):
        return planar_homeo(x + 1.0) - 1.0, y / 2.0


@dataclass(eq=False)
class MapSequence:
    """Rule producing the j-th map (j >= 1) of a composition."""

    generator: Callable[[int], MapLike]
    tangency_required: bool = False
    _checked: set = field(default_factory=set, init=False, repr=False)

    def map_at(self, j: int) -> MapLike:
        m = self.generator(j)
        if self.tangency_required and j not in self._checked:
            if not hasattr(m, "is_tangent_to_identity") or not m.is_tangent_to_identity():
                raise InvalidParameter(
                    f"sequence member {j} does not fix 0 with identity differential"
                )
            self._checked.add(j)
        return m


def constant_sequence(m: MapLike) -> MapSequence:
    return MapSequence(lambda j: m)


def list_sequence(maps: Sequence[MapLike], tangency_required: bool = False) -> MapSequence:
    maps = list(maps)

    def gen(j: int) -> MapLike:
        if not 1 <= j <= len(maps):
            raise InvalidParameter(f"sequence has {len(maps)} map(s), asked for map {j}")
        return maps[j - 1]

    return MapSequence(gen, tangency_required=tangency_required)


def nonauto_orbit(seq: MapSequence, z: Point, n: int) -> tuple[list[Point], int | None]:
    """The composition orbit (z, f1 z, f2 f1 z, ...); truncates on overflow.

    Returns (states, overflow_step); overflow_step is None when all n steps
    stayed under DEFAULT_CAP.
    """
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    x, y = complex(z[0]), complex(z[1])
    states: list[Point] = [(x, y)]
    for j in range(1, n + 1):
        x, y = seq.map_at(j).apply(x, y)
        m = max(abs(x), abs(y))
        if not math.isfinite(m) or m > DEFAULT_CAP:
            return states, j
        states.append((x, y))
    return states, None


def nonauto_attracting_probe(
    seq: MapSequence,
    box: tuple[tuple[float, float], tuple[float, float]],
    grid: tuple[int, int],
    n_max: int,
    conv_tol: float = 1e-3,
) -> np.ndarray:
    """Cells (real 2-D slice) whose centre composition-orbit ends within
    conv_tol of 0 at step n_max and for the 20 preceding iterates, the
    starting point counted; for n_max < 20, every iterate from the start."""
    if not conv_tol > 0:  # nan too: no cell could ever be near
        raise InvalidParameter(f"conv_tol must be positive, got {conv_tol}")
    na, nb = grid
    xs, ys = grid_centres(box, grid)
    # resolve every member first, so a late failing index raises even if all cells died
    maps = [seq.map_at(j) for j in range(1, n_max + 1)]

    def advance(j, idx, xj, yj, run):
        nx, ny = maps[j - 1].apply(xj, yj)
        keep = ~_escaped(nx, ny)
        near = keep & hypot_below(np.abs(nx), np.abs(ny), conv_tol)
        return keep, (nx, ny, np.where(near, run + 1, 0))

    start_near = hypot_below(np.abs(xs), np.abs(ys), conv_tol).astype(np.int64)
    idx, (_, _, run) = iterate_live(advance, (xs, ys, start_near), n_max)
    marked = np.zeros(xs.shape[0], dtype=bool)
    marked[idx[run >= min(HYSTERESIS + 1, n_max + 1)]] = True
    return marked.reshape(nb, na)


# -- target-set geometry ------------------------------------------------------


@dataclass(frozen=True)
class SectorSetParams:
    R: float
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0 or self.epsilon <= 0:
            raise InvalidParameter("delta, epsilon must be positive")
        if not self.R > self.epsilon:
            raise InvalidParameter("R must exceed epsilon")


COMPONENTS = ("Ball_delta", "KxDisc", "Lx{0}", "{0}xK", "{0}xL", "Outside")

_MEAS_TOL = 1e-12


def _in_slit_disc_shifted(w: complex, R: float, eps: float) -> bool:
    """Membership in K = (closed R-disc minus the open sector |arg| < eps),
    translated left by eps."""
    v = w + eps
    if abs(v) > R:
        return False
    if v == 0:
        return False  # the sector contains the origin ray r = 0
    return abs(math.atan2(v.imag, v.real)) >= eps


def _in_segment(w: complex, R: float, eps: float) -> bool:
    return abs(w.imag) <= _MEAS_TOL and eps <= w.real <= R


def sector_sets_membership(params: SectorSetParams, z: Point) -> str:
    """Classify z into exactly one component of the target-set union.

    Measure-zero components ({0} x ..., ... x {0}) use tolerance 1e-12.
    Raises AmbiguousComponent when two components claim z, which signals
    parameters violating the disjointness requirement.
    """
    from .errors import AmbiguousComponent

    x, y = complex(z[0]), complex(z[1])
    R, eps, delta = params.R, params.epsilon, params.delta
    hits = []
    if math.hypot(abs(x), abs(y)) <= delta:
        hits.append("Ball_delta")
    if _in_slit_disc_shifted(x, R, eps) and abs(y) <= R:
        hits.append("KxDisc")
    if _in_segment(x, R, eps) and abs(y) <= _MEAS_TOL:
        hits.append("Lx{0}")
    if abs(x) <= _MEAS_TOL and _in_slit_disc_shifted(y, R, eps):
        hits.append("{0}xK")
    if abs(x) <= _MEAS_TOL and _in_segment(y, R, eps):
        hits.append("{0}xL")
    if not hits:
        return "Outside"
    if len(hits) > 1:
        raise AmbiguousComponent(f"components {hits} all claim {z!r}")
    return hits[0]


def _dist_point_slit_disc(p: complex, R: float, eps: float) -> float:
    """Distance from p to the un-shifted slit disc (R-disc minus sector)."""
    # candidates: the two boundary rays of the removed sector, plus the disc
    best = math.inf
    for sgn in (1.0, -1.0):
        ray = complex(math.cos(sgn * eps), math.sin(sgn * eps))
        t = max(0.0, min(R, (p * ray.conjugate()).real))
        best = min(best, abs(p - t * ray))
    if abs(math.atan2(p.imag, p.real)) >= eps:
        if abs(p) <= R:
            return 0.0
        best = min(best, abs(p) - R)
    return best


def _planar_component_distances(params: SectorSetParams) -> dict[str, float]:
    R, eps = params.R, params.epsilon
    # t in L = [eps, R] lies at distance dist(t + eps, slit disc) from K, and
    # that grows with t: t sin eps while t's projection falls on a boundary
    # ray, then the distance to the ray's end.  So L is nearest K at t = eps.
    return {
        "origin_to_K": _dist_point_slit_disc(complex(eps, 0.0), R, eps),
        "origin_to_L": eps,
        "L_to_K": _dist_point_slit_disc(complex(2 * eps, 0.0), R, eps),
    }


@dataclass(eq=False)
class DisjointnessReport:
    disjoint: bool
    min_gap: float
    worst_pair: tuple[str, str]
    sampled_min: float


def disjointness_check(params: SectorSetParams, samples: int = 2000, seed: int = 5) -> DisjointnessReport:
    """Pairwise separation of the five components.

    Product sets factor the C^2 distance into planar distances, so the ten
    pair gaps reduce to three planar quantities (distance from the origin
    to K and to L, and from L to K); a dense sample cross-checks the
    formulas.  A non-positive gap names the colliding pair.
    """
    d = _planar_component_distances(params)
    delta = params.delta
    gaps: dict[tuple[str, str], float] = {
        ("Ball_delta", "KxDisc"): d["origin_to_K"] - delta,
        ("Ball_delta", "Lx{0}"): d["origin_to_L"] - delta,
        ("Ball_delta", "{0}xK"): d["origin_to_K"] - delta,
        ("Ball_delta", "{0}xL"): d["origin_to_L"] - delta,
        ("KxDisc", "Lx{0}"): d["L_to_K"],
        ("KxDisc", "{0}xK"): d["origin_to_K"],
        ("KxDisc", "{0}xL"): d["origin_to_K"],
        ("Lx{0}", "{0}xK"): math.hypot(d["origin_to_L"], d["origin_to_K"]),
        ("Lx{0}", "{0}xL"): d["origin_to_L"] * math.sqrt(2.0),
        ("{0}xK", "{0}xL"): d["L_to_K"],
    }
    worst_pair = min(gaps, key=lambda k: gaps[k])
    min_gap = gaps[worst_pair]

    pts = _sample_components(params, samples, seed).values()
    sampled_min = min(
        float(np.sqrt(_nearest_sq_distances(a, b).min())) for a, b in combinations(pts, 2)
    )
    return DisjointnessReport(
        disjoint=min_gap > 0,
        min_gap=min_gap,
        worst_pair=worst_pair,
        sampled_min=sampled_min,
    )


def _sample_components(params: SectorSetParams, n: int, seed: int) -> dict[str, np.ndarray]:
    from .rng import make_generator

    g = make_generator(seed)
    R, eps, delta = params.R, params.epsilon, params.delta

    def ball(npts):
        v = g.standard_normal((npts, 4))
        v /= np.linalg.norm(v, axis=1)[:, None]
        r = delta * g.random(npts) ** 0.25
        v *= r[:, None]
        return np.stack([v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]], axis=1)

    def slit(npts):
        out = []
        while len(out) < npts:
            r = R * np.sqrt(g.random(npts))
            th = eps + (2 * np.pi - 2 * eps) * g.random(npts)
            w = r * np.exp(1j * th) - eps
            out.extend(w.tolist())
        return np.asarray(out[:npts])

    def seg(npts):
        return eps + (R - eps) * g.random(npts)

    def disc(npts):
        return R * np.sqrt(g.random(npts)) * np.exp(2j * np.pi * g.random(npts))

    k = max(8, n // 5)
    return {
        "Ball_delta": ball(k),
        "KxDisc": np.stack([slit(k), disc(k)], axis=1),
        "Lx{0}": np.stack([seg(k).astype(complex), np.zeros(k, dtype=complex)], axis=1),
        "{0}xK": np.stack([np.zeros(k, dtype=complex), slit(k)], axis=1),
        "{0}xL": np.stack([np.zeros(k, dtype=complex), seg(k).astype(complex)], axis=1),
    }


# -- pointwise vs uniform -----------------------------------------------------


@dataclass(eq=False)
class PointwiseUniformRow:
    n: int
    sup_distance: float
    converged_fraction: float


@dataclass(eq=False)
class PointwiseUniformReport:
    rows: list[PointwiseUniformRow]


def pointwise_vs_uniform_report(
    seq: MapSequence,
    box: tuple[tuple[float, float], tuple[float, float]],
    n_max: int,
    grid: tuple[int, int],
    conv_tol: float = 1e-3,
    witnesses: Sequence[Point] = (),
) -> PointwiseUniformReport:
    """Per-step sup |F_n(z)| and converged fraction over a compact grid.

    The grid covers the box on the real 2-D slice; witness points (for
    example from the non-uniformity search, shifted to the origin frame)
    are appended so the sup can expose non-uniform attraction that a coarse
    grid cannot resolve.  |F_n(z)| is hypot(|x|, |y|); core.hypot_max and
    core.hypot_below give its sup and the conv_tol test exactly, calling
    libm hypot only where max(|x|, |y|) cannot decide them.  The points run
    through core.iterate_live one block at a time: a row's sup is the max of
    its block maxima and its fraction the count of near points over all
    points, so the rows do not depend on the blocks.
    """
    if n_max < 0:
        raise InvalidParameter(f"n_max must be >= 0, got {n_max}")
    if not conv_tol > 0:
        raise InvalidParameter(f"conv_tol must be positive, got {conv_tol}")
    xs, ys = grid_centres(box, grid)
    if witnesses:
        wx = np.asarray([w[0] for w in witnesses], dtype=complex)
        wy = np.asarray([w[1] for w in witnesses], dtype=complex)
        xs = np.concatenate([xs, wx])
        ys = np.concatenate([ys, wy])

    if xs.size == 0:
        raise InvalidParameter("the report needs at least one grid cell or witness")

    maps = [seq.map_at(j) for j in range(1, n_max + 1)]
    sup = np.full(n_max + 1, -np.inf)
    near = np.zeros(n_max + 1, dtype=np.int64)

    def advance(k, idx, xk, yk):
        # step k adds the block to row k - 1, then moves it to F_k; escaped
        # points stay where they were, and every point stays to the last row
        ax, ay = np.abs(xk), np.abs(yk)
        sup[k - 1] = np.maximum(sup[k - 1], hypot_max(ax, ay))
        near[k - 1] += np.count_nonzero(hypot_below(ax, ay, conv_tol))
        if k <= n_max:
            nx, ny = maps[k - 1].apply(xk, yk)
            bad = _escaped(nx, ny)
            xk, yk = np.where(bad, xk, nx), np.where(bad, yk, ny)
        return np.full(idx.shape, k <= n_max), (xk, yk)

    iterate_live(advance, (xs, ys), n_max + 1)
    rows = [PointwiseUniformRow(n, float(sup[n]), int(near[n]) / xs.size) for n in range(n_max + 1)]
    return PointwiseUniformReport(rows=rows)


def demonstrator_sequence() -> MapSequence:
    """Constant sequence of the shifted planar demonstrator."""
    return constant_sequence(PlanarDemo())


def demonstrator_witnesses(n_max: int) -> list[Point]:
    """Shifted unit-circle witnesses for m = 1..n_max."""
    out = []
    for m in range(1, n_max + 1):
        _, z = nonuniformity_witness(m)
        out.append((z - 1.0, 0j))
    return out


# -- sequence definition files -------------------------------------------------


def sequence_from_dict(d: dict) -> MapSequence:
    """Parse {"kind": "list", "maps": [...] } or {"kind": "family", ...}."""
    if not isinstance(d, dict):
        raise InvalidParameter("sequence definition must be an object")
    kind = d.get("kind")
    if kind == "list":
        maps = [map_from_dict(m) for m in d.get("maps", [])]
        if not maps:
            raise InvalidParameter("list sequence needs at least one map")
        return list_sequence(maps, tangency_required=bool(d.get("tangency_required", False)))
    if kind == "family":
        name = d.get("name")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise InvalidParameter(f"family params must be an object, got {params!r}")

        def param(key, parse, default):
            v = params.get(key, default)
            try:
                return parse(v)
            except (TypeError, ValueError) as exc:
                raise InvalidParameter(f"bad family parameter {key}={v!r}: {exc}") from exc

        if name == "contraction":
            from .core import diag_linear_chain

            rate = param("rate", float, 0.5)
            return constant_sequence(diag_linear_chain(rate, rate))
        if name == "planar_demo":
            return demonstrator_sequence()
        if name == "shifted_henon":
            from .core import conjugate_by_translation, find_fixed_point, henon_chain

            c = param("c", float, 0.75)
            chain = henon_chain(c)
            seed = param("seed_x", complex, 1.4), param("seed_y", complex, 1.4)
            fp = find_fixed_point(chain, seed)
            return constant_sequence(conjugate_by_translation(chain, fp.location))
        if name == "alternating_shear":
            from .core import ShearX

            coeffs = param("coeffs", lambda vs: tuple(complex(v) for v in vs), [0.0, 1.0])
            fwd = AutoChain((ShearX(coeffs),))
            back = fwd.inverted()
            return MapSequence(lambda j: fwd if j % 2 == 1 else back)
        raise InvalidParameter(f"unknown family {name!r}")
    raise InvalidParameter(f"unknown sequence kind {kind!r}")
