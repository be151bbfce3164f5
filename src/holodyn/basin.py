"""Orbit verdicts, attraction probes and the counterexample gallery.

Convergence is operationalised with hysteresis: an orbit counts as
converged once it sits within conv_tol of the target for 20 consecutive
steps, which keeps transits through a neighbourhood from flagging early.
The distance is hypot(|dx|, |dy|), decided exactly by core.hypot_below,
which calls libm hypot only where max(|dx|, |dy|) cannot decide it.
Escape means a coordinate passed core.DEFAULT_CAP.  All grid/sample probes
run vectorised, iterate only the points whose orbit is still undecided, in
fixed blocks of core._BLOCK points (see core.iterate_live), and draw their
randomness from counter-based streams, block by block in stream order, so
results are independent of blocks.  threads > 1 lets the calling thread and
threads - 1 worker threads take the same blocks from one queue, so a
population of one block is never split and starts no worker.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    _BLOCK,
    AutoChain,
    DEFAULT_CAP,
    FixedPointInfo,
    Point,
    _escaped,
    hypot_below,
    iterate_live,
)
from .errors import InvalidParameter, NotFound, PoleHit
from .rng import ball4_points, make_generator

HYSTERESIS = 20

VERDICT_UNDECIDED = 0
VERDICT_CONVERGED = 1
VERDICT_ESCAPED = 2


@dataclass(eq=False)
class OrbitRecord:
    states: list[Point]
    verdict: str  # 'converged' | 'escaped' | 'undecided'
    step: int | None

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


def orbit(
    chain: AutoChain,
    z: Point,
    max_iter: int,
    target: Point | None = None,
    conv_tol: float = 1e-3,
    keep_states: int = 512,
) -> OrbitRecord:
    """Iterate a single point, recording (possibly truncated) states."""
    x, y = complex(z[0]), complex(z[1])
    states: list[Point] = [(x, y)]
    run = 0
    for n in range(1, max_iter + 1):
        nx, ny = chain.apply(x, y)
        m = max(abs(nx), abs(ny))
        if not math.isfinite(m) or m > DEFAULT_CAP:
            return OrbitRecord(states, "escaped", n)
        x, y = nx, ny
        if len(states) < keep_states:
            states.append((x, y))
        if target is not None:
            d = math.hypot(abs(x - target[0]), abs(y - target[1]))
            run = run + 1 if d < conv_tol else 0
            if run >= HYSTERESIS:
                return OrbitRecord(states, "converged", n)
    return OrbitRecord(states, "undecided", None)


def orbit_verdicts(
    chain: AutoChain,
    xs: np.ndarray,
    ys: np.ndarray,
    max_iter: int,
    target: Point | None = None,
    conv_tol: float = 1e-3,
):
    """Vectorised orbit verdicts; returns (codes, steps) arrays."""
    x = np.asarray(xs, dtype=complex)
    y = np.asarray(ys, dtype=complex)
    codes = np.zeros(x.shape[0], dtype=np.int8)
    steps = np.full(x.shape[0], -1, dtype=np.int64)

    def advance(k, idx, xk, yk, run):
        nx, ny = chain.apply(xk, yk)
        esc = _escaped(nx, ny)
        codes[idx[esc]] = VERDICT_ESCAPED
        steps[idx[esc]] = k
        keep = ~esc
        if target is not None:
            near = hypot_below(np.abs(nx - target[0]), np.abs(ny - target[1]), conv_tol)
            run = np.where(keep & near, run + 1, 0)
            conv = keep & (run >= HYSTERESIS)
            codes[idx[conv]] = VERDICT_CONVERGED
            steps[idx[conv]] = k
            keep &= ~conv
        return keep, (nx, ny, run)

    # the zero run counts are one stored zero, so memory stays per block
    iterate_live(advance, (x, y, np.broadcast_to(np.int64(0), x.shape)), max_iter)
    return codes, steps


# -- dichotomy probe ----------------------------------------------------------


@dataclass(eq=False)
class DichotomyReport:
    r: float
    m_max: int
    largest_witnessed_m: int
    cutoff_m0: int | None
    witnesses: dict[int, Point]


def dichotomy_probe(
    chain: AutoChain,
    fp: FixedPointInfo,
    r: float,
    m_max: int,
    samples: int = 512,
    seed: int = 11,
) -> DichotomyReport:
    """Search the closed r-ball around fp for points whose first m iterates
    all stay outside the open r-ball.

    Candidates mix deterministic seeds along the unstable eigendirection
    (where witnesses live for a saddle) with counter-based ball samples.
    Reports the largest witnessed m; cutoff_m0 is the first unwitnessed m.
    """
    if samples < 0:
        raise InvalidParameter(f"samples must be >= 0, got {samples}")
    if not r > 0:  # nan too: no point is ever inside such a ball, so every m looks witnessed
        raise InvalidParameter(f"r must be positive, got {r}")
    px, py = fp.location
    cand_x = []
    cand_y = []
    if fp.unstable_direction is not None:
        vu = fp.unstable_direction
        radii = np.linspace(0.05 * r, r, 30)
        phases = np.exp(2j * np.pi * np.arange(12) / 12)
        for rho in radii:
            for ph in phases:
                cand_x.append(px + rho * ph * vu[0])
                cand_y.append(py + rho * ph * vu[1])
    bx, by = ball4_points(seed, samples, r, center=(px, py))
    xs = np.concatenate([np.asarray(cand_x, dtype=complex), bx])
    ys = np.concatenate([np.asarray(cand_y, dtype=complex), by])

    # exit_run[i]: number of leading iterates strictly outside B_r, capped at m_max
    exit_run = np.zeros(xs.shape[0], dtype=np.int64)

    def advance(k, idx, xk, yk):
        nx, ny = chain.apply(xk, yk)
        esc = _escaped(nx, ny)
        # escape: every later iterate stays outside the ball
        exit_run[idx[esc]] = m_max
        # esc covers every non-finite image, so "not below r" is ">= r" here
        keep = ~esc & ~hypot_below(np.abs(nx - px), np.abs(ny - py), r)
        exit_run[idx[keep]] += 1
        return keep, (nx, ny)

    iterate_live(advance, (xs, ys), m_max)

    witnesses: dict[int, Point] = {}
    largest = int(exit_run.max()) if exit_run.size else 0
    cutoff = None
    for m in range(1, m_max + 1):
        ok = exit_run >= m
        if not ok.any():
            cutoff = m
            break
        i = int(np.argmax(ok))
        witnesses[m] = (complex(xs[i]), complex(ys[i]))
    return DichotomyReport(
        r=r,
        m_max=m_max,
        largest_witnessed_m=min(largest, m_max),
        cutoff_m0=cutoff,
        witnesses=witnesses,
    )


# -- interior probe -----------------------------------------------------------


@dataclass(eq=False)
class InteriorReport:
    samples: int
    converged: int
    fraction: float
    radius: float
    max_iter: int
    conv_tol: float


def interior_probe(
    chain: AutoChain,
    fp: FixedPointInfo,
    radius: float,
    samples: int,
    max_iter: int = 500,
    conv_tol: float = 1e-3,
    seed: int = 23,
    threads: int = 1,
) -> InteriorReport:
    """Fraction of uniform ball samples whose orbit converges to fp.

    threads only says how many threads, the calling one included, take the
    sweep's blocks of _BLOCK samples; the verdict of each sample is a pure
    function of (seed, index), so the fraction is independent of blocks and
    threads.  The samples are drawn block by block (rng.ball4_points), so
    no temporary of the probe is larger than a block.
    """
    if samples <= 0:
        raise InvalidParameter("interior_probe needs at least one sample")
    if not (radius > 0 and conv_tol > 0):  # nan too: no sample could ever converge
        raise InvalidParameter(f"radius and conv_tol must be positive, got {radius}, {conv_tol}")
    xs, ys = ball4_points(seed, samples, radius, center=fp.location)
    target = fp.location

    def run_chunk(lo: int, hi: int) -> int:
        codes, _ = orbit_verdicts(
            chain, xs[lo:hi], ys[lo:hi], max_iter, target=target, conv_tol=conv_tol
        )
        return int(np.count_nonzero(codes == VERDICT_CONVERGED))

    converged = sum(_map_chunks(run_chunk, samples, threads))
    return InteriorReport(
        samples=samples,
        converged=converged,
        fraction=converged / samples,
        radius=radius,
        max_iter=max_iter,
        conv_tol=conv_tol,
    )


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    """The blocks of core.iterate_live: contiguous chunks of _BLOCK points
    covering range(n); one empty chunk for n = 0."""
    return [(lo, min(lo + _BLOCK, n)) for lo in range(0, max(n, 1), _BLOCK)]


def _map_chunks(run_chunk: Callable[[int, int], object], n: int, threads: int) -> list:
    """run_chunk(lo, hi) over the blocks of range(n), in block order.

    threads > 1 lets the calling thread and threads - 1 worker threads take
    blocks from one shared queue; no more workers start than there are
    blocks to share.  Once a block raises, no thread takes another, and the
    error of the first failing block is raised after every thread ended.
    """
    bounds = _chunk_bounds(n)
    results: list = [None] * len(bounds)
    errors: dict[int, BaseException] = {}
    todo, lock = iter(range(len(bounds))), threading.Lock()

    def work() -> None:
        while not errors:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = run_chunk(*bounds[i])
            except BaseException as exc:  # re-raised by the caller
                errors[i] = exc

    workers = [threading.Thread(target=work) for _ in range(min(threads, len(bounds)) - 1)]
    for w in workers:
        w.start()
    work()
    for w in workers:
        w.join()
    if errors:
        raise errors[min(errors)]
    return results


def grid_centres(
    box: tuple[tuple[float, float], tuple[float, float]], grid: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Complex x and y of the cell centres of a grid[0] x grid[1] grid on the
    real 2-D slice of box, flattened row by row (rows indexed by y)."""
    (a0, a1), (b0, b1) = box
    na, nb = grid
    if na < 0 or nb < 0:
        raise InvalidParameter(f"grid counts must be >= 0, got {na},{nb}")
    if not np.isfinite([a0, a1, b0, b1]).all():
        raise InvalidParameter(f"box bounds must be finite, got {box}")
    aa = a0 + (np.arange(na) + 0.5) * (a1 - a0) / na
    bb = b0 + (np.arange(nb) + 0.5) * (b1 - b0) / nb
    xs = np.repeat(aa[None, :], nb, axis=0).ravel().astype(complex)
    ys = np.repeat(bb[:, None], na, axis=1).ravel().astype(complex)
    return xs, ys


# -- bounded-orbit set --------------------------------------------------------


def bounded_set_probe(
    chain: AutoChain,
    box: tuple[tuple[float, float], tuple[float, float]],
    grid: tuple[int, int],
    max_iter: int = 200,
    threads: int = 1,
) -> np.ndarray:
    """Occupancy of the bounded-orbit set on a real 2-D slice.

    Cell (i, j) is marked when the orbit of the centre (a_j, b_i) stays under
    DEFAULT_CAP for max_iter steps.  Returns a bool array of shape
    (grid[1], grid[0]), rows indexed by the y-bound.
    """
    na, nb = grid
    xs, ys = grid_centres(box, grid)

    def run_chunk(lo: int, hi: int) -> np.ndarray:
        codes, _ = orbit_verdicts(chain, xs[lo:hi], ys[lo:hi], max_iter, target=None)
        return codes != VERDICT_ESCAPED

    return np.concatenate(_map_chunks(run_chunk, xs.shape[0], threads)).reshape(nb, na)


# -- gallery: the sphere map -------------------------------------------------


def sphere_map(m: int, z: complex) -> complex:
    """Closed form of the m-th iterate of z -> z / (1 + z): z / (1 + m z)."""
    denom = 1.0 + m * z
    if abs(denom) <= 1e-12 * (1.0 + abs(m * z)):
        raise PoleHit(f"iterate hit the pole 1 + z = 0 at step {m}")
    return z / denom


def sphere_map_iterate(m: int, z: complex) -> complex:
    """m-fold iteration of z -> z / (1 + z), raising PoleHit at 1 + z_k = 0."""
    w = complex(z)
    for k in range(m):
        denom = 1.0 + w
        if abs(denom) <= 1e-12 * (1.0 + abs(w)):
            raise PoleHit(f"iterate hit the pole 1 + z = 0 at step {k}")
        w = w / denom
    return w


def sphere_map_iterate_check(z: complex, m: int) -> float:
    """|closed form - m-fold iteration|; for m < 0 the iteration would take
    no step, so that raises InvalidParameter."""
    if m < 0:
        raise InvalidParameter(f"step count must be >= 0, got {m}")
    return abs(sphere_map(m, z) - sphere_map_iterate(m, z))


def sphere_residuals_batch(zs: np.ndarray, m: int) -> np.ndarray:
    """Vectorised residuals of the closed-form iterate over a batch."""
    w = np.array(zs, dtype=complex, copy=True)
    for _ in range(m):
        w = w / (1.0 + w)
    closed = zs / (1.0 + m * zs)
    return np.abs(w - closed)


_MIN_POLE_DISTANCE = 1e-3


def sample_unit_disc_away_from_poles(seed: int, n: int, m: int) -> np.ndarray:
    """Uniform unit-disc samples at distance >= _MIN_POLE_DISTANCE from every
    pole -1/k, k = 1..m, of the closed-form iterate."""
    g = make_generator(seed)
    poles = -1.0 / np.arange(1, m + 1)
    out = np.empty(n, dtype=complex)
    got = 0
    while got < n:
        batch = max(n - got, 256)
        rho = np.sqrt(g.random(batch))
        phi = 2 * np.pi * g.random(batch)
        z = rho * np.exp(1j * phi)
        ok = np.ones(batch, dtype=bool)
        for lo in range(0, len(poles), 2048):
            blk = poles[lo : lo + 2048]
            ok &= np.min(np.abs(z[:, None] - blk[None, :]), axis=1) >= _MIN_POLE_DISTANCE
        z = z[ok]
        take = min(len(z), n - got)
        out[got : got + take] = z[:take]
        got += take
    return out


# -- gallery: the planar homeomorphism ----------------------------------------


def psi(theta):
    """theta (4 pi - theta) / (2 pi); fixes 0 and 2 pi, pushes (0, 2 pi) up."""
    return theta * (4.0 * np.pi - theta) / (2.0 * np.pi)


def psi_iterate(theta: float, n: int) -> float:
    t = float(theta)
    for _ in range(n):
        t = psi(t)
    return t


def _angle_2pi(z):
    """np.mod(np.angle(z), 2 pi) bit for bit, without the libm fmod: the angle
    lies in [-pi, pi], and + 0.0 turns the -0.0 of np.angle into +0.0."""
    a = np.angle(z)
    return np.where(a < 0, a + 2.0 * np.pi, a) + 0.0


def planar_homeo(z):
    """The plane map with fixed point 1: pointwise but non-uniform attraction.

    Outside the unit disc (r >= 1): r e^{i theta} -> ((r+1)/2) e^{i psi(theta)}.
    Inside, each circle through 1 tangent to the unit circle is preserved and
    its angle coordinate (about the circle centre) is pushed by psi; the
    circle through z has centre 1 - s with s = |z-1|^2 / (2 - 2 Re z).
    Accepts scalars or complex arrays.
    """
    scalar = np.isscalar(z) or isinstance(z, complex)
    zz = np.asarray(z, dtype=complex)
    r = np.abs(zz)
    out = np.empty_like(zz)

    outer = r >= 1.0
    theta = _angle_2pi(zz[outer])
    out[outer] = (r[outer] + 1.0) / 2.0 * np.exp(1j * psi(theta))

    inner = ~outer
    zi = zz[inner]
    near_one = np.abs(zi - 1.0) < 1e-14
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.abs(zi - 1.0) ** 2 / (2.0 - 2.0 * zi.real)
    c = 1.0 - s
    ang = _angle_2pi(zi - c)
    w = c + s * np.exp(1j * psi(ang))
    w[near_one] = 1.0
    out[inner] = w
    return complex(out[()]) if scalar else out


def nonuniformity_witness(m: int) -> tuple[float, complex]:
    """Unit-circle point near 1 whose m-th planar image has angle near pi.

    Bisection on theta: psi^m is increasing from 0, so the smallest theta
    with psi^m(theta) = pi exists; on the unit circle the radius is fixed,
    so the angle alone decides |f^m(z) - 1| > 1.  Raises NotFound once the
    bracket collapses below floating-point resolution.
    """
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    lo, hi = 0.0, 2.0 * math.pi * 0.999
    if psi_iterate(hi, m) < math.pi:
        raise NotFound("psi^m never reaches pi on the bracket")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if psi_iterate(mid, m) < math.pi:
            lo = mid
        else:
            hi = mid
    theta = hi
    val = psi_iterate(theta, m)
    if not (math.pi / 2 <= val <= 3 * math.pi / 2):
        raise NotFound(f"bisection exhausted precision at theta = {theta:.3e} (psi^m = {val:.3e})")
    return theta, complex(math.cos(theta), math.sin(theta))
