"""Local stable manifolds of saddles and their globalisation by pullback.

The local stable manifold is computed as the fixed point of a graph
transform in adapted eigencoordinates.  Write points as

    z = p + s * v_s + t * v_u

with v_s / v_u the stable / unstable unit eigenvectors at the saddle p.
The manifold is a graph t = gamma(s) over the disc |s| <= delta.  One
transform step replaces gamma by the map s -> t solving

    t'(s, t) = gamma(s'(s, t)),

i.e. the point on the vertical fibre over s whose image lies on the current
graph; the solve runs as a vectorised 1-D complex Newton iteration across
the whole mesh.  Starting from gamma = 0 (the linear stable subspace) the
iteration contracts at rate ~ max(|lambda_s|, 1/|lambda_u|) for small delta,
which is monitored: a sup-norm change ratio above the contraction limit
raises DeltaTooLarge.

Off-mesh values of gamma use a complex least-squares polynomial fit of
degree min(6, n_r - 1); graphs here are holomorphic so low-degree jets on a
small disc converge fast.
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
    find_fixed_point,
)
from .errors import (
    DeltaTooLarge,
    Inconclusive,
    InvalidParameter,
    MeshMismatch,
    NoConvergence,
    NotASaddle,
    Overflow,
)
from .poly import polyder, polyval


def polar_mesh(delta: float, n_r: int, n_theta: int) -> np.ndarray:
    """Center plus n_r rings of n_theta angles, fixed deterministic order."""
    radii = delta * np.arange(1, n_r + 1) / n_r
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    pts = [0j]
    for r in radii:
        pts.extend(r * np.exp(1j * angles))
    return np.asarray(pts, dtype=complex)


def _fit_degree(n_r: int) -> int:
    return min(6, max(1, n_r - 1))


def _lsq_fit(s: np.ndarray, t: np.ndarray, degree: int) -> np.ndarray:
    vand = np.vander(s, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vand, t, rcond=None)
    return coeffs


@dataclass(eq=False)
class LocalGraph:
    """Discretised graph of the local stable manifold over the disc |s|<=delta."""

    base_point: Point
    stable_direction: np.ndarray
    unstable_direction: np.ndarray
    delta: float
    s_grid: np.ndarray
    t_values: np.ndarray
    mesh: tuple[int, int]
    iterations: int
    sup_changes: tuple[float, ...]
    fit_coeffs: np.ndarray = field(repr=False)

    @property
    def epsilon(self) -> float:
        return 2.0 * self.delta

    def gamma(self, s):
        t = polyval(self.fit_coeffs, s)
        # a constant fit (the flat graph of a linear saddle) gives a scalar
        return np.full(np.shape(s), t, dtype=complex) if np.ndim(t) < np.ndim(s) else t

    def to_ambient(self, s, t):
        bx, by = self.base_point
        vs, vu = self.stable_direction, self.unstable_direction
        return bx + s * vs[0] + t * vu[0], by + s * vs[1] + t * vu[1]

    def to_coords(self, x, y):
        bx, by = self.base_point
        e = np.array(
            [
                [self.stable_direction[0], self.unstable_direction[0]],
                [self.stable_direction[1], self.unstable_direction[1]],
            ],
            dtype=complex,
        )
        det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        dx, dy = x - bx, y - by
        s = (e[1, 1] * dx - e[0, 1] * dy) / det
        t = (-e[1, 0] * dx + e[0, 0] * dy) / det
        return s, t



# graph transform: step budget, sup-change ratio limit, bound on |t| / delta;
# local_stable_graph_auto halves delta at most _MAX_HALVINGS times
_MAX_ITER, _CONTRACTION_LIMIT, _SLOPE_CAP, _MAX_HALVINGS = 80, 0.95, 1.0, 6


def local_stable_graph(
    chain: AutoChain,
    fp: FixedPointInfo,
    delta: float,
    mesh: tuple[int, int] = (10, 16),
    tol: float = 1e-9,
) -> LocalGraph:
    """Graph-transform fixed point; see the module docstring for the scheme."""
    if fp.classification is not Classification.SADDLE:
        raise NotASaddle(f"fixed point is {fp.classification.value}")
    if not (delta > 0 and tol > 0):  # nan too
        raise InvalidParameter("delta and tol must be positive")
    n_r, n_theta = mesh
    if n_r < 1 or n_theta < 1:
        raise InvalidParameter(f"mesh needs n_r, n_theta >= 1, got {n_r},{n_theta}")
    vs, vu = fp.stable_direction, fp.unstable_direction
    bx, by = fp.location
    e = np.array([[vs[0], vu[0]], [vs[1], vu[1]]], dtype=complex)
    det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    ei = np.array([[e[1, 1], -e[0, 1]], [-e[1, 0], e[0, 0]]], dtype=complex) / det

    s_grid = polar_mesh(delta, n_r, n_theta)
    t_vals = np.zeros_like(s_grid)
    degree = _fit_degree(n_r)
    changes: list[float] = []
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        coeffs = _lsq_fit(s_grid, t_vals, degree)
        dcoeffs = polyder(coeffs)
        t_cur = t_vals.copy()
        for _ in range(16):
            x = bx + s_grid * vs[0] + t_cur * vu[0]
            y = by + s_grid * vs[1] + t_cur * vu[1]
            j11, j12, j21, j22, fx, fy = chain.differential_batch(x, y)
            dx, dy = fx - bx, fy - by
            s1 = ei[0, 0] * dx + ei[0, 1] * dy
            t1 = ei[1, 0] * dx + ei[1, 1] * dy
            residual = t1 - polyval(coeffs, s1)
            dfx = j11 * vu[0] + j12 * vu[1]
            dfy = j21 * vu[0] + j22 * vu[1]
            ds1 = ei[0, 0] * dfx + ei[0, 1] * dfy
            dt1 = ei[1, 0] * dfx + ei[1, 1] * dfy
            slope = dt1 - polyval(dcoeffs, s1) * ds1
            safe = np.abs(slope) > 1e-14
            step = np.where(safe, residual / np.where(safe, slope, 1.0), 0.0)
            t_cur = t_cur - step
            if float(np.max(np.abs(step))) < 1e-14 * (1.0 + float(np.max(np.abs(t_cur)))):
                break
        change = float(np.max(np.abs(t_cur - t_vals)))
        t_vals = t_cur
        if changes and changes[-1] > 10 * tol and changes[-1] > 0:
            ratio = change / changes[-1]
            if ratio > _CONTRACTION_LIMIT:
                raise DeltaTooLarge(
                    f"contraction estimate {ratio:.3f} exceeds {_CONTRACTION_LIMIT}; shrink delta",
                    ratio=ratio,
                )
        changes.append(change)
        if change < tol:
            break
    else:
        raise NoConvergence(
            f"graph transform did not reach tol {tol:.1e} in {_MAX_ITER} iterations",
            residual=changes[-1] if changes else None,
        )

    if float(np.max(np.abs(t_vals))) > delta * _SLOPE_CAP:
        raise DeltaTooLarge(
            f"graph exceeds slope cap {_SLOPE_CAP} over the {delta}-disc; shrink delta"
        )

    return LocalGraph(
        base_point=fp.location,
        stable_direction=vs,
        unstable_direction=vu,
        delta=delta,
        s_grid=s_grid,
        t_values=t_vals,
        mesh=mesh,
        iterations=iterations,
        sup_changes=tuple(changes),
        fit_coeffs=_lsq_fit(s_grid, t_vals, degree),
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
    """Points in C^2 and the number of samples dropped on the way."""

    points: np.ndarray  # shape (n, 2) complex
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.points)


def pullback_clouds(
    chain: AutoChain,
    graph: LocalGraph,
    depth: int,
) -> Iterator[PointCloud]:
    """Yield the clouds f^{-n}(graph samples) for n = 0..depth.

    Depth n applies the exact inverse once to the state depth n-1 reached,
    so the whole sweep costs depth inverse passes.  Points that pass
    DEFAULT_CAP are dropped and counted, not fatal.
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
            ok &= step_ok
        yield PointCloud(np.stack([xs[ok], ys[ok]], axis=1), int(np.count_nonzero(~ok)))


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


def graph_distance(g1: LocalGraph, g2: LocalGraph) -> float:
    """Sup over shared samples of |t1 - t2| plus the base-point offset.

    For graphs over a common disc this dominates the Hausdorff distance of
    the graph sets.  Requires identical s-meshes.
    """
    if g1.s_grid.shape != g2.s_grid.shape or not np.allclose(
        g1.s_grid, g2.s_grid, rtol=0, atol=1e-12
    ):
        raise MeshMismatch("graphs use different meshes")
    base_off = math.hypot(
        abs(g1.base_point[0] - g2.base_point[0]), abs(g1.base_point[1] - g2.base_point[1])
    )
    return float(np.max(np.abs(g1.t_values - g2.t_values))) + base_off


# pairwise distances a row block holds at once (one row of a at least)
_PAIR_BLOCK = 1 << 18


def _distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield (rows, |a[rows] - b|) over row blocks of at most _PAIR_BLOCK entries."""
    step = max(1, _PAIR_BLOCK // max(len(b), 1))
    for lo in range(0, len(a), step):
        rows = slice(lo, lo + step)
        yield rows, np.abs(a[rows, None] - b[None, :])


def _nearest_sq_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distance from each point of the C^2 cloud p to its nearest in q."""
    out = np.empty(len(p))
    blocks = zip(_distance_blocks(p[:, 0], q[:, 0]), _distance_blocks(p[:, 1], q[:, 1]))
    for (rows, d0), (_, d1) in blocks:
        out[rows] = (d0**2 + d1**2).min(axis=1)
    return out


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric max-min distance between point clouds in C^2 (brute force)."""
    if len(a) == 0 or len(b) == 0:
        raise InvalidParameter("hausdorff_distance needs nonempty clouds")
    worst = max(_nearest_sq_distances(a, b).max(), _nearest_sq_distances(b, a).max())
    return float(np.sqrt(worst))


@dataclass(eq=False)
class StabilityRow:
    t: float
    fp_offset: float
    graph_dist: float
    cloud_dist: float


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

    The perturbed fixed point is tracked by Newton seeded at the
    unperturbed one; distances are graph_distance for the local graphs, both
    on local_stable_graph's default mesh, and the symmetric Hausdorff
    distance for depth-n pullback clouds.
    """
    base_graph = local_stable_graph(chain, fp, delta, tol=tol)
    base_cloud = pullback_cloud(chain, base_graph, pullback_depth)
    rows = []
    for t in t_values:
        pert = family(t)
        fp_t = find_fixed_point(pert, fp.location)
        graph_t = local_stable_graph(pert, fp_t, delta, tol=tol)
        cloud_t = pullback_cloud(pert, graph_t, pullback_depth)
        rows.append(
            StabilityRow(
                t=float(t),
                fp_offset=math.hypot(
                    abs(fp_t.location[0] - fp.location[0]),
                    abs(fp_t.location[1] - fp.location[1]),
                ),
                graph_dist=graph_distance(base_graph, graph_t),
                cloud_dist=hausdorff_distance(base_cloud.points, cloud_t.points),
            )
        )
    return rows


def sheary_perturbation_family(
    chain: AutoChain, coeffs_of_t: Callable[[float], Sequence[complex]]
) -> Callable[[float], AutoChain]:
    """Family t -> chain followed by a ShearY with t-dependent coefficients."""
    from .core import ShearY

    def make(t: float) -> AutoChain:
        if t == 0:
            return chain
        return chain.then(ShearY(tuple(coeffs_of_t(t))))

    return make
