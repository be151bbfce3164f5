"""Orbit verdicts, attraction probes and the counterexample gallery.

Convergence is operationalised with hysteresis: an orbit counts as
converged once it sits within conv_tol of the target for 20 consecutive
steps, which keeps transits through a neighbourhood from flagging early.
The distance is hypot(|dx|, |dy|), decided exactly by core.hypot_below,
which calls libm hypot only where max(|dx|, |dy|) cannot decide it.
Escape means a coordinate passed core.DEFAULT_CAP; with a target, both
tests of a step come from one pass of moduli (core._escaped_near).  All
grid/sample probes run vectorised, iterate only the points whose orbit is
still undecided, in fixed blocks of core._BLOCK points, and draw their
randomness from counter-based streams, block by block in stream order, so
results are independent of blocks.  The threads of interior_probe and
bounded_set_probe go to core.iterate_live, whose threads take those blocks
from one queue.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AutoChain,
    DEFAULT_CAP,
    FixedPointInfo,
    Point,
    _distance_blocks,
    _escaped,
    _escaped_near,
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
    threads: int = 1,
):
    """Vectorised orbit verdicts; returns (codes, steps) arrays.  threads is
    core.iterate_live's; advance writes only through idx, as it requires."""
    x = np.asarray(xs, dtype=complex)
    y = np.asarray(ys, dtype=complex)
    codes = np.zeros(x.shape[0], dtype=np.int8)
    steps = np.full(x.shape[0], -1, dtype=np.int64)

    def record(k, idx, done, code):
        if done.any():
            done = idx[done]
            codes[done] = code
            steps[done] = k

    def advance(k, idx, xk, yk, run):
        nx, ny = chain.apply(xk, yk)
        if target is None:
            esc = done = _escaped(nx, ny)
        else:
            esc, near = _escaped_near(nx, ny, target, conv_tol)
            run = np.where(near, run + 1, 0)
            conv = run >= HYSTERESIS
            record(k, idx, conv, VERDICT_CONVERGED)
            done = esc | conv
        # last: an escape ends a run (near points escape only near DEFAULT_CAP)
        record(k, idx, esc, VERDICT_ESCAPED)
        return ~done, (nx, ny, run)

    # the zero run counts are one stored zero, so memory stays per block
    iterate_live(advance, (x, y, np.broadcast_to(np.int64(0), x.shape)), max_iter, threads)
    return codes, steps


# -- dichotomy probe ----------------------------------------------------------


@dataclass(eq=False)
class DichotomyReport:
    r: float
    m_max: int
    largest_witnessed_m: int
    cutoff_m0: int | None
    witnesses: dict[int, Point]


def _first_reaching(runs: np.ndarray, m_max: int) -> np.ndarray:
    """For m = 1, 2, ... up to m_max, the first index i with runs[i] >= m,
    while there is one.  One pass: the first index where the running maximum
    of runs reaches m, which does not decrease with m."""
    first = np.searchsorted(np.maximum.accumulate(runs), np.arange(1, m_max + 1))
    return first[first < runs.size]


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
    if not 0 < r < math.inf:  # nan: every m looks witnessed; inf: nan witnesses
        raise InvalidParameter(f"r must be positive and finite, got {r}")
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
        esc, inside = _escaped_near(nx, ny, (px, py), r)
        # escape: every later iterate stays outside the ball
        if esc.any():
            exit_run[idx[esc]] = m_max
        # esc covers every non-finite image, so "not below r" is ">= r" here
        keep = ~(esc | inside)
        exit_run[idx[keep]] += 1
        return keep, (nx, ny)

    iterate_live(advance, (xs, ys), m_max)

    first = _first_reaching(exit_run, m_max)
    largest = len(first)
    witnesses = {m: (complex(xs[i]), complex(ys[i])) for m, i in enumerate(first.tolist(), 1)}
    return DichotomyReport(
        r=r,
        m_max=m_max,
        largest_witnessed_m=largest,
        cutoff_m0=largest + 1 if largest < m_max else None,
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
    sweep's blocks (core.iterate_live); the verdict of each sample is a pure
    function of (seed, index), so the fraction is independent of blocks and
    threads.  The samples are drawn block by block (rng.ball4_points); the
    samples and their verdict codes and steps are full-size, and every other
    array is at most a block.
    """
    if samples <= 0:
        raise InvalidParameter("interior_probe needs at least one sample")
    # nan: nothing converges; inf: nan samples, or every bounded orbit converges
    if not (0 < radius < math.inf and 0 < conv_tol < math.inf):
        raise InvalidParameter(f"radius and conv_tol must be positive and finite, got {radius}, {conv_tol}")
    xs, ys = ball4_points(seed, samples, radius, center=fp.location)
    codes, _ = orbit_verdicts(
        chain, xs, ys, max_iter, target=fp.location, conv_tol=conv_tol, threads=threads
    )
    converged = int(np.count_nonzero(codes == VERDICT_CONVERGED))
    return InteriorReport(
        samples=samples,
        converged=converged,
        fraction=converged / samples,
        radius=radius,
        max_iter=max_iter,
        conv_tol=conv_tol,
    )


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
    codes, _ = orbit_verdicts(chain, xs, ys, max_iter, threads=threads)
    return (codes != VERDICT_ESCAPED).reshape(nb, na)


# -- gallery: the sphere map -------------------------------------------------


def sphere_map(m: int, z: complex) -> complex:
    """Closed form of the m-th iterate of z -> z / (1 + z): z / (1 + m z)."""
    denom = 1.0 + m * z
    if abs(denom) <= 1e-12 * (1.0 + abs(m * z)):
        raise PoleHit(f"iterate hit the pole 1 + z = 0 at step {m}")
    return z / denom


def sphere_map_iterate(m: int, z: complex) -> complex:
    """m-fold iteration of z -> z / (1 + z), raising PoleHit at 1 + z_k = 0;
    m < 0 raises InvalidParameter, since the loop would take no step."""
    if m < 0:
        raise InvalidParameter(f"step count must be >= 0, got {m}")
    w = complex(z)
    for k in range(m):
        denom = 1.0 + w
        if abs(denom) <= 1e-12 * (1.0 + abs(w)):
            raise PoleHit(f"iterate hit the pole 1 + z = 0 at step {k}")
        w = w / denom
    return w


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
        ok = np.empty(batch, dtype=bool)
        for rows, d in _distance_blocks(z, poles):
            ok[rows] = (d >= _MIN_POLE_DISTANCE).all(axis=1)
        z = z[ok]
        take = min(len(z), n - got)
        out[got : got + take] = z[:take]
        got += take
    return out


# -- gallery: the planar homeomorphism ----------------------------------------


# formed once: the witness search for m = 1..40 calls psi ~67,000 times
_FOUR_PI, _TWO_PI = 4.0 * np.pi, 2.0 * np.pi


def psi(theta):
    """theta (4 pi - theta) / (2 pi); fixes 0 and 2 pi, pushes (0, 2 pi) up."""
    return theta * (_FOUR_PI - theta) / _TWO_PI


def psi_iterate(theta: float, n: int) -> float:
    t = float(theta)
    for _ in range(n):
        t = psi(t)
    return t


def _angle_2pi(z):
    """np.mod(np.angle(z), 2 pi) bit for bit, without the libm fmod: the angle
    lies in [-pi, pi], and + 0.0 turns the -0.0 of np.angle into +0.0."""
    a = np.angle(z)
    return np.where(a < 0, a + _TWO_PI, a) + 0.0


def _outer_image(z, r):
    """((r+1)/2) e^{i psi(theta)} of z = r e^{i theta}, r >= 1, from np.cos and
    np.sin: bit for bit the product with np.exp(1j psi) where libm's complex
    exp at a zero real part is its cos and sin."""
    t = psi(_angle_2pi(z))
    h = (r + 1.0) / 2.0
    out = np.empty_like(z)
    np.multiply(h, np.cos(t), out=out.real)
    np.multiply(h, np.sin(t), out=out.imag)
    return out


def planar_homeo(z):
    """The plane map with fixed point 1: pointwise but non-uniform attraction.

    Outside the unit disc (r >= 1): r e^{i theta} -> ((r+1)/2) e^{i psi(theta)}.
    Inside, each circle through 1 tangent to the unit circle is preserved and
    its angle coordinate (about the circle centre) is pushed by psi; the
    circle through z has centre 1 - s with s = |z-1|^2 / (2 - 2 Re z).
    The outer image is formed from np.cos and np.sin of psi (_outer_image).
    Accepts scalars or complex arrays; one with no point inside the disc
    skips the branch masks.
    """
    scalar = np.isscalar(z) or isinstance(z, complex)
    zz = np.asarray(z, dtype=complex)
    r = np.abs(zz)
    outer = r >= 1.0
    if outer.all():
        out = _outer_image(zz, r)
        return complex(out[()]) if scalar else out
    out = np.empty_like(zz)
    out[outer] = _outer_image(zz[outer], r[outer])

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


def nonuniformity_witnesses(count: int) -> tuple[range, list[float], list[float]]:
    """(m, theta, |f^m(z) - 1|) for the witnesses z of m = 1..count, each
    re-verified by m planar_homeo steps."""
    ms, thetas, dists = range(1, count + 1), [], []
    for m in ms:
        theta, w = nonuniformity_witness(m)
        for _ in range(m):
            w = planar_homeo(w)
        thetas.append(theta)
        dists.append(abs(w - 1.0))
    return ms, thetas, dists
