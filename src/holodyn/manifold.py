"""Local stable manifolds of saddles and their globalisation by pullback.

The local stable manifold comes from the parametrisation method
(Cabre-Fontich-de la Llave 2003; Haro, Canadell, Figueras, Luque and
Mondelo 2016): a power series K with f(K(sigma)) = K(lambda_s sigma).  K_0 is
the saddle p, K_1 = v_s, and for k >= 2 (lambda_s^k I - Df(p)) K_k =
[f(K_<k)]_k, the order-k coefficient of the chain's compiled step lines run
unchanged on the series cut below order k (_Series).  In the eigencoordinates
z = p + s v_s + t v_u, with v_s / v_u the stable / unstable unit
eigenvectors, Df(p) is diagonal, so each order is one division per
coordinate, by lambda_s^k - lambda, never zero; s(sigma) = sigma + O(sigma^2).

The manifold is the graph t = gamma(s) over |s| <= delta, gamma = t o sigma,
where sigma reverts s by steps sigma <- sigma - (s(sigma) - s), each making
one more order exact; both compositions are polyval run over the series.  K
grows to each order of _ORDERS in turn; past it, f of K as known estimates
K's coefficients, gamma is taken from them to twice the order, and K's t
stands for gamma beyond.  The cut is the first n >= 2, no more than the
order, from which on every |gamma_k| delta^k is below tol: a run of zero
terms, as (x^d + 3x - y, x) has up to order d, does not end the series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    AutoChain,
    Classification,
    FixedPointInfo,
    Point,
    Shear,
    find_fixed_point,
)
from .errors import (
    DeltaTooLarge,
    Inconclusive,
    InvalidParameter,
    NotASaddle,
    Overflow,
)
from .poly import polyval


def polar_mesh(delta: float, n_r: int, n_theta: int) -> np.ndarray:
    """Center plus n_r rings of n_theta angles, fixed deterministic order."""
    radii = delta * np.arange(1, n_r + 1) / n_r
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    pts = [0j]
    for r in radii:
        pts.extend(r * np.exp(1j * angles))
    return np.asarray(pts, dtype=complex)


def _eigencoords(vs, vu, dx, dy):
    """(s, t) with s vs + t vu = (dx, dy)."""
    det = vs[0] * vu[1] - vu[0] * vs[1]
    return (vu[1] * dx - vu[0] * dy) / det, (vs[0] * dy - vs[1] * dx) / det


def _graph_values(coeffs, s):
    t = polyval(coeffs, s)
    # a zero series (the flat graph of a linear saddle) gives a scalar
    return np.full(np.shape(s), t, dtype=complex) if np.ndim(t) < np.ndim(s) else t


@dataclass(eq=False)
class LocalGraph:
    """The local stable manifold as a graph t = gamma(s) over |s| <= delta:
    fit_coeffs are gamma's Taylor coefficients to the truncation order,
    which iterations holds, and t_values are gamma on s_grid."""

    base_point: Point
    stable_direction: np.ndarray
    unstable_direction: np.ndarray
    delta: float
    s_grid: np.ndarray
    t_values: np.ndarray
    mesh: tuple[int, int]
    iterations: int
    fit_coeffs: np.ndarray = field(repr=False)

    @property
    def epsilon(self) -> float:
        return 2.0 * self.delta

    def gamma(self, s):
        return _graph_values(self.fit_coeffs, s)

    def to_ambient(self, s, t):
        bx, by = self.base_point
        vs, vu = self.stable_direction, self.unstable_direction
        return bx + s * vs[0] + t * vu[0], by + s * vs[1] + t * vu[1]

    def to_coords(self, x, y):
        bx, by = self.base_point
        return _eigencoords(self.stable_direction, self.unstable_direction, x - bx, y - by)


class _Series:
    """A power series cut to its length n: coefficients c[0..n-1], products
    np.convolve(a, b)[:n]; a scalar adds to c[0] and scales every c[k]."""

    __slots__ = ("c",)
    __array_ufunc__ = None  # numpy scalars defer to the methods below

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        if isinstance(other, _Series):
            return _Series(self.c + other.c)
        return _Series(np.concatenate(([self.c[0] + other], self.c[1:])))

    def __mul__(self, other):
        if isinstance(other, _Series):
            return _Series(np.convolve(self.c, other.c)[: len(self.c)])
        return _Series(self.c * other)

    def __neg__(self):
        return _Series(-self.c)

    def __sub__(self, other):
        return self + -other

    __rmul__ = __mul__


def _graph_series(s_c: np.ndarray, t_c: np.ndarray) -> np.ndarray:
    """gamma = t o sigma to the order of s_c, where sigma reverts s (s_c[1] = 1)."""
    s = sigma = _Series(np.eye(1, len(s_c), 1, dtype=complex)[0])
    for _ in range(len(s_c) - 2):  # sigma = s is exact to order 1
        sigma = sigma - (polyval(s_c, sigma) - s)
    gamma = polyval(t_c, sigma)
    return gamma.c if isinstance(gamma, _Series) else np.zeros_like(t_c)  # polyval's 0j: t = 0


# the orders K grows to in turn, the bound on |t| / delta, and how often
# local_stable_graph_auto halves delta
_ORDERS, _SLOPE_CAP, _MAX_HALVINGS = (8, 16, 32, 60), 1.0, 6


def local_stable_graph(
    chain: AutoChain,
    fp: FixedPointInfo,
    delta: float,
    mesh: tuple[int, int] = (10, 16),
    tol: float = 1e-9,
) -> LocalGraph:
    """The graph series of the module docstring, cut where its terms fall
    below tol on the delta-disc, and its values on the polar mesh."""
    if fp.classification is not Classification.SADDLE:
        raise NotASaddle(f"fixed point is {fp.classification.value}")
    if not (delta > 0 and tol > 0):  # nan too
        raise InvalidParameter("delta and tol must be positive")
    n_r, n_theta = mesh
    if n_r < 1 or n_theta < 1:
        raise InvalidParameter(f"mesh needs n_r, n_theta >= 1, got {n_r},{n_theta}")
    vs, vu = fp.stable_direction, fp.unstable_direction
    lam = np.array(fp.eigenvalues)
    # K_k in ambient coordinates and its eigencoordinates s_c[k], t_c[k], which
    # past the order hold what f of K as known puts there
    kx, ky, s_c, t_c = np.zeros((4, _ORDERS[-1] + 1), dtype=complex)
    (kx[0], ky[0]), (kx[1], ky[1]), s_c[1] = fp.location, vs, 1.0
    for done, order in zip((1,) + _ORDERS, _ORDERS):  # done: the order K is known to
        for k in range(done + 1, order + 1):
            fx, fy = chain.apply(_Series(kx[: k + 1]), _Series(ky[: k + 1]))
            s_c[k], t_c[k] = _eigencoords(vs, vu, fx.c[k], fy.c[k]) / (lam[0] ** k - lam)
            kx[k], ky[k] = s_c[k] * vs + t_c[k] * vu
        k, end = np.arange(order + 1, len(kx)), min(2 * order, _ORDERS[-1])
        fx, fy = chain.apply(_Series(kx), _Series(ky))
        past = np.array(_eigencoords(vs, vu, fx.c[k], fy.c[k]))
        s_c[k], t_c[k] = past / (lam[0] ** k - lam[:, None])
        gamma = _graph_series(s_c[: end + 1], t_c[: end + 1])  # past end, t_c stands for it
        terms = np.abs(np.concatenate((gamma, t_c[end + 1 :]))) * delta ** np.arange(len(kx))
        # the cut n is the first whose terms n - 1 .. on are below tol; n < end sees one past it
        big = np.flatnonzero(~(terms < tol))
        n = max(2, int(big[-1]) + 2) if big.size else 2
        if n <= order and n < end:
            break
    else:
        raise DeltaTooLarge(
            f"graph series terms stay above tol {tol:.1e} to order {_ORDERS[-1]}"
            f" over the {delta}-disc; shrink delta"
        )
    coeffs = gamma[: n + 1]
    s_grid = polar_mesh(delta, n_r, n_theta)
    t_values = _graph_values(coeffs, s_grid)
    if float(np.max(np.abs(t_values))) > delta * _SLOPE_CAP:
        raise DeltaTooLarge(
            f"graph exceeds slope cap {_SLOPE_CAP} over the {delta}-disc; shrink delta"
        )

    return LocalGraph(
        base_point=fp.location,
        stable_direction=vs,
        unstable_direction=vu,
        delta=delta,
        s_grid=s_grid,
        t_values=t_values,
        mesh=mesh,
        iterations=n,
        fit_coeffs=coeffs,
    )


def local_stable_graph_auto(chain, fp, delta, **kwargs) -> LocalGraph:
    """local_stable_graph with automatic delta halving on DeltaTooLarge."""
    last: DeltaTooLarge | None = None
    d = delta
    for _ in range(_MAX_HALVINGS + 1):
        try:
            return local_stable_graph(chain, fp, d, **kwargs)
        except DeltaTooLarge as exc:
            last = exc
            d *= 0.5
    raise last  # type: ignore[misc]


def graph_residual(chain: AutoChain, graph: LocalGraph) -> float:
    """Max distance from f(graph point) to the graph, over images in the bidisc."""
    x, y = graph.to_ambient(graph.s_grid, graph.t_values)
    fx, fy = chain.apply(x, y)
    s1, t1 = graph.to_coords(fx, fy)
    inside = (np.abs(s1) <= graph.delta) & (np.abs(t1) <= graph.delta)
    if not np.any(inside):
        return 0.0
    dev = np.abs(t1[inside] - graph.gamma(s1[inside]))
    return float(np.max(dev))


@dataclass(eq=False)
class PointCloud:
    """The graph samples a pullback kept: kept holds one bool per sample, and
    points the kept samples' images in sample order."""

    points: np.ndarray  # shape (n, 2) complex
    kept: np.ndarray

    @property
    def dropped(self) -> int:
        return int(np.count_nonzero(~self.kept))


def pullback_clouds(
    chain: AutoChain,
    graph: LocalGraph,
    depth: int,
) -> Iterator[PointCloud]:
    """Yield the clouds f^{-n}(graph samples) for n = 0..depth.

    Depth n applies the exact inverse once to the state depth n-1 reached,
    so the whole sweep costs depth inverse passes.  Points that pass
    DEFAULT_CAP are dropped, not fatal.
    """
    if depth < 0:
        raise InvalidParameter("depth must be >= 0")
    xs, ys = graph.to_ambient(graph.s_grid, graph.t_values)
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    ok = np.ones(xs.shape, dtype=bool)
    inv = chain.inverted()
    for n in range(depth + 1):
        if n:
            xs, ys, step_ok = inv.evaluate_batch(xs, ys)
            ok = ok & step_ok  # a new array: each cloud keeps its own mask
        yield PointCloud(np.stack([xs[ok], ys[ok]], axis=1), ok)


def pullback_cloud(
    chain: AutoChain,
    graph: LocalGraph,
    depth: int,
) -> PointCloud:
    """The last cloud of pullback_clouds: every graph sample pulled back depth times."""
    for cloud in pullback_clouds(chain, graph, depth):
        pass
    return cloud


_LANDING_TOL = 1e-6


def is_in_stable(
    chain: AutoChain,
    fp: FixedPointInfo,
    graph: LocalGraph,
    z: Point,
    max_iter: int = 200,
) -> bool:
    """True iff some forward iterate lands within _LANDING_TOL of the local graph.

    Returns False when the orbit escapes DEFAULT_CAP; raises Inconclusive
    when the budget runs out with neither outcome.
    """
    x, y = complex(z[0]), complex(z[1])
    for _ in range(max_iter + 1):
        s, t = graph.to_coords(x, y)
        if abs(s) <= graph.delta and abs(t) <= graph.delta:
            if abs(t - graph.gamma(s)) < _LANDING_TOL:
                return True
        try:
            x, y = chain.evaluate((x, y))
        except Overflow:
            return False
    raise Inconclusive(
        f"orbit neither escaped nor landed within {_LANDING_TOL:.1e} of the graph in {max_iter} steps"
    )


@dataclass(eq=False)
class DensityReport:
    box: tuple[tuple[float, float], ...]  # (lo, hi) per real axis
    cells_per_axis: int
    depth: int
    occupied: int
    total: int
    fraction: float


def _bounds(box, cells_per_axis: int) -> tuple[float, float]:
    """The validated (lo, hi) that bounds all four real axes of the grid."""
    lo, hi = (float(v) for v in box)
    if cells_per_axis <= 0:
        raise InvalidParameter("cells_per_axis must be positive")
    if cells_per_axis**4 > np.iinfo(np.intp).max:  # the flat cell ids would not fit
        raise InvalidParameter(f"cells_per_axis**4 must fit in intp, got {cells_per_axis}")
    if not hi > lo:
        raise InvalidParameter(f"box needs lo < hi, got ({lo:g}, {hi:g})")
    return lo, hi


def _distinct(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of nonnegative ids.  This is np.unique by sorting:
    numpy 2.4's hash-based np.unique is ~10x slower on clouds of this size and
    loads ~2 MB of extension code on its first call."""
    ids = np.sort(ids)
    return ids[np.diff(ids, prepend=-1) > 0]


def occupied_cells(points: np.ndarray, box, cells_per_axis: int) -> np.ndarray:
    """Sorted flat ids of the 4-real-dimensional grid cells hit by at least one point.

    box = (lo, hi) bounds each of Re x, Im x, Re y, Im y; points outside it
    are ignored, and a point on hi (or rounding up to it) lies in the last cell.
    """
    lo, hi = _bounds(box, cells_per_axis)
    comps = np.stack([points[:, 0].real, points[:, 0].imag, points[:, 1].real, points[:, 1].imag])
    comps = comps[:, np.all((comps >= lo) & (comps <= hi), axis=0)]
    k = np.floor((comps - lo) / (hi - lo) * cells_per_axis).astype(np.intp)
    return _distinct(np.ravel_multi_index(k, (cells_per_axis,) * 4, mode="clip"))


def density_stages(
    chain: AutoChain,
    graph: LocalGraph,
    depths: Sequence[int],
    box,
    cells_per_axis: int,
) -> Iterator[tuple[DensityReport, PointCloud]]:
    """Yield (report, cloud) at each depth of density_sweep, from one pass.

    The cloud is the depth's own pullback cloud, the report measures the
    union of the clouds up to it.
    """
    depths = list(depths)
    if not depths or depths[0] < 0 or any(b <= a for a, b in zip(depths, depths[1:])):
        raise InvalidParameter(f"depths must be a nonempty increasing sequence >= 0, got {depths}")
    lo, hi = _bounds(box, cells_per_axis)
    total = cells_per_axis**4
    cells = np.empty(0, dtype=np.intp)
    for depth, cloud in enumerate(pullback_clouds(chain, graph, depths[-1])):
        if depth not in depths:
            continue
        cells = _distinct(np.concatenate([cells, occupied_cells(cloud.points, box, cells_per_axis)]))
        report = DensityReport(
            box=((lo, hi),) * 4,
            cells_per_axis=cells_per_axis,
            depth=depth,
            occupied=len(cells),
            total=total,
            fraction=len(cells) / total,
        )
        yield report, cloud


def density_sweep(
    chain: AutoChain,
    graph: LocalGraph,
    depths: Sequence[int],
    box,
    cells_per_axis: int,
) -> list[DensityReport]:
    """Density per pullback depth; cumulative unions make growth structural.

    The depth-n stage measures the union of clouds at depths <= n (the local
    graph is forward invariant, so the union is the honest discrete stand-in
    for the increasing sets f^{-n}(graph)).  depths must increase; one
    pullback pass up to the last of them serves them all.
    """
    return [report for report, _ in density_stages(chain, graph, depths, box, cells_per_axis)]


def occupancy_image(points: np.ndarray, box, cells_per_axis: int, plane: tuple[int, int]):
    """2-D projected occupancy (bool grid) of the 4-D cell set."""
    idx = np.unravel_index(occupied_cells(points, box, cells_per_axis), (cells_per_axis,) * 4)
    img = np.zeros((cells_per_axis, cells_per_axis), dtype=bool)
    a, b = plane
    img[idx[b], idx[a]] = True
    return img


@dataclass(eq=False)
class StabilityRow:
    t: float
    fp_offset: float
    graph_dist: float
    cloud_dist: float
    one_sided: int


def stability_experiment(
    chain: AutoChain,
    fp: FixedPointInfo,
    family: Callable[[float], AutoChain],
    t_values: Sequence[float],
    delta: float,
    tol: float = 1e-9,
    pullback_depth: int = 4,
) -> list[StabilityRow]:
    """Graph and cloud distances for a perturbation family.

    The perturbed fixed point is tracked by Newton seeded at the unperturbed
    one.  Both local graphs are built on local_stable_graph's default mesh
    and both depth-n clouds pull back its samples, so sample i of one is the
    partner of sample i of the other, and each distance is a sup over the
    partners: graph_dist = max |t_base - t_t| + fp_offset, cloud_dist the
    largest hypot(|dx|, |dy|), as the square root of the largest squared
    sum, over the samples both clouds keep, and one_sided counts the
    samples only one cloud keeps.  t_values must be nonempty and finite.
    """
    if len(t_values) == 0 or not np.isfinite(t_values).all():
        raise InvalidParameter(f"t_values must be nonempty and finite, got {t_values}")
    base_graph = local_stable_graph(chain, fp, delta, tol=tol)
    base_cloud = pullback_cloud(chain, base_graph, pullback_depth)
    rows = []
    for t in t_values:
        pert = family(t)
        fp_t = find_fixed_point(pert, fp.location)
        graph_t = local_stable_graph(pert, fp_t, delta, tol=tol)
        cloud_t = pullback_cloud(pert, graph_t, pullback_depth)
        both = base_cloud.kept & cloud_t.kept
        if not both.any():
            raise InvalidParameter(
                f"clouds keep no sample in common at depth {pullback_depth} (t = {t:g})"
            )
        d = base_cloud.points[both[base_cloud.kept]] - cloud_t.points[both[cloud_t.kept]]
        fp_offset = math.hypot(
            abs(fp_t.location[0] - fp.location[0]), abs(fp_t.location[1] - fp.location[1])
        )
        rows.append(
            StabilityRow(
                t=float(t),
                fp_offset=fp_offset,
                graph_dist=float(np.max(np.abs(base_graph.t_values - graph_t.t_values))) + fp_offset,
                cloud_dist=float(np.sqrt(np.max(np.abs(d[:, 0]) ** 2 + np.abs(d[:, 1]) ** 2))),
                one_sided=int(np.count_nonzero(base_cloud.kept != cloud_t.kept)),
            )
        )
    return rows


def sheary_perturbation_family(
    chain: AutoChain, coeffs_of_t: Callable[[float], Sequence[complex]]
) -> Callable[[float], AutoChain]:
    """Family t -> chain followed by the shear y += q(x), q's coefficients coeffs_of_t(t)."""

    def make(t: float) -> AutoChain:
        if t == 0:
            return chain
        return chain.then(Shear(tuple(coeffs_of_t(t)), (0, 1), (1, 0)))

    return make
