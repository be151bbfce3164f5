"""Exact polynomial automorphisms of C^2 and their fixed points.

An automorphism is stored as a finite composition of elementary steps --
shears z -> z + p(w.z) v along any direction v with w.v = 0, invertible
linear maps and translations -- each of which has an exact closed-form
inverse and an exact Jacobian.  Evaluation, inversion and differentiation
of the chain therefore never resort to root-finding or finite differences.
Arbitrary polynomial self-maps (no inverse) are supported through
:class:`EndoChain` for local computations that only need forward
evaluation.

Each step kind writes its map once, in _lines: source lines that update x,
y and, for the tangent, dx, dy.  The skips are decided as the lines are
emitted: multiplications by an exact 0, 1 or -1 and leading zero Horner
coefficients are left out, and every other operation of the literal formula
is kept in its order.  For finite inputs the results are the formula's but
for the sign of an exactly-zero component, a non-finite image still counts
as an escape, and a step may return an input array as one of its outputs.

A step's apply (scalar or array) is its value lines, compiled at first use.
A chain's apply is the value lines of all its steps, and its tangent push
(x, y, dx, dy) -> (x', y', dx', dy'), scalar or array, is their full lines;
each is compiled into one function at the chain's first use, with the
coefficients bound by name, never printed.  So the chain's apply is its
steps' apply composed, bit for bit, in one Python call; (x', y') is
apply(x, y) bit for bit, and (dx', dy') is (dx, dy) pushed forward by the
chain's Jacobian.  differential and differential_batch push the unit tangents
(1, 0) and (0, 1) through it.  parabolic compiles its blow-up orbit loops
(graph_point's shots, ring and survival steps, and sector_orbit) from the
same lines, placed by _compile inside a loop body, so that a whole orbit
is one Python call.  Linear steps skip the same arithmetic in the
tangent as in the value, so padding a chain with identity steps changes
neither.  A shear's lines delete p and l (and dp, dl) once used, so that in
a chain's function no step's temporary array outlives its step, as it would
not in the step's own function.  AutoChain.evaluate and evaluate_batch still
run step by step, since they test the cap between steps.
differential_batch, like AutoChain.inverse_batch, has no library caller;
both stay because perfbench/tracer.py wraps each from its class __dict__.

Distances in C^2 are hypot(|dx|, |dy|).  hypot_below and hypot_max decide a
distance test and a sup exactly, bit for bit as np.hypot would, from
m = max(|dx|, |dy|): m <= hypot <= sqrt(2) m < 1.5 m, and rounding keeps
that order.  libm hypot, an order of magnitude dearer per point than a
complex modulus, runs only where m cannot decide.  An image escapes when a
coordinate is non-finite or above DEFAULT_CAP (_escaped); a probe step with
a target takes its escape set and distance test from one pass of moduli
about the target (_escaped_near).  Distances between every
point of one set and every point of another run through _distance_blocks, in
row blocks of at most _PAIR_BLOCK pairs, so their memory is bounded.

Masked iteration runs through iterate_live, in fixed blocks of _BLOCK live
points.  It is the library's one thread pool: its threads take the blocks
from one queue, each under its own np.errstate, and results keep block order.
"""
from __future__ import annotations

import cmath
import functools
import json
import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
import numpy as np

from .errors import InvalidParameter, NoConvergence, Overflow, SingularDifferential
from .poly import Poly2, normalize_coeffs, poly_of_poly

Point = tuple[complex, complex]

DEFAULT_CAP = 1e12
NEUTRAL_TOL = 1e-9
_NEWTON_MAX_ITER = 100
IDENTITY_TOL = 1e-9
_DET_ONE_TOL = 1e-12


def _terms_src(acc, terms, bind):
    """Source of acc + c * f (* g) over terms (c, f) or (c, f, g), left to
    right, with f, g variable names and bind(c) the name c is bound to.
    apply and the tangent push run this source, so its skips are decided once.

    A term whose c is exactly 0 is left out, and one whose c is exactly 1 or
    -1 is added or subtracted without multiplying by c; acc None stands for
    an exact 0 that the first kept term replaces.  c stays the left operand:
    complex products rounded with fused multiply-adds can differ in the last
    bit when the operands swap.
    """
    for c, *fs in terms:
        if c == 0:
            continue
        v = " * ".join(fs if c == 1 or c == -1 else [bind(c), *fs])
        if c == -1:
            acc = f"-({v})" if acc is None else f"{acc} - {v}"
        else:
            acc = v if acc is None else f"{acc} + {v}"
    return acc


def _horner_lines(coeffs, z, bind, tangent):
    """Lines leaving polyval(coeffs, z) in p, with its skips; with tangent,
    also the derivative in dp, by the recurrence dp <- dp z + p run
    alongside."""
    top = len(coeffs) - 1
    while top >= 0 and coeffs[top] == 0:
        top -= 1
    if top <= 0:  # a constant, and 0j when every coefficient is 0
        lines = [f"p = {bind(coeffs[0] if top == 0 else 0j)}", f"dp = {bind(0j)}"]
        return lines if tangent else lines[:1]
    c = coeffs[top]  # the first step multiplies the leading coefficient by z
    p = z if c == 1 else f"-{z}" if c == -1 else f"{bind(c)} * {z}"
    lines = [f"dp = {bind(c)}"] if tangent else []
    for k in range(top - 1, -1, -1):
        lines.append(f"p = {p} + {bind(coeffs[k])}" if coeffs[k] != 0 else f"p = {p}")
        if tangent and k > 0:
            lines.append(f"dp = dp * {z} + p")
        p = f"p * {z}"
    return lines


def _compile(args, lines, body="STEPS", result=None, **env):
    """Compile def f(args): body; return result (args by default), where
    body's line STEPS stands for lines(bind) at that line's indent, bind(c)
    binds the coefficient c to a fresh name (never printed), and env holds
    the other names body reads."""
    names = dict(env)

    def bind(c):
        name = f"k{len(names)}"
        names[name] = c
        return name

    src = [f"def f({args}):"]
    for line in body.split("\n"):
        pad = line[: len(line) - len(line.lstrip())]
        src += [pad + ln for ln in lines(bind)] if line.strip() == "STEPS" else [line]
    src = "\n    ".join([*src, f"return {result or args}"])
    exec(compile(src, "<holodyn step lines>", "exec"), names)
    return names["f"]


def _check_finite(z: Point) -> None:
    for part in (z[0].real, z[0].imag, z[1].real, z[1].imag):
        if not math.isfinite(part):
            raise InvalidParameter(f"point has non-finite coordinate: {z!r}")


class _Step:
    """An elementary step, its map written once in _lines(bind, tangent)."""

    @functools.cached_property
    def apply(self):
        """(x, y) -> the step's image: the value lines, compiled at first use
        into the instance __dict__ (so an applied step does not pickle)."""
        return _compile("x, y", lambda bind: self._lines(bind, False))


@dataclass(frozen=True)
class Shear(_Step):
    """z -> z + p(w.z) v, p stored degree-ascending, w.z = w[0] x + w[1] y and
    w.v = 0 exactly: the step keeps w.z, so its inverse is z - p(w.z) v and its
    Jacobian I + p'(w.z) v w^T has determinant 1 (Rosay-Rudin 1988).  x += p(y)
    is v, w = (1, 0), (0, 1), and y += p(x) is v, w = (0, 1), (1, 0)."""

    coeffs: tuple[complex, ...]
    v: tuple[complex, complex]
    w: tuple[complex, complex]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", normalize_coeffs(self.coeffs))
        for name in ("v", "w"):
            pair = tuple(complex(c) for c in getattr(self, name))
            if len(pair) != 2 or not all(map(cmath.isfinite, pair)) or pair == (0, 0):
                raise InvalidParameter(f"shear {name} must be a finite nonzero pair, got {pair!r}")
            object.__setattr__(self, name, pair)
        # w.v in rational arithmetic, where no rounding of doubles hides a remainder
        parts = [(Fraction(z.real), Fraction(z.imag)) for z in (*self.w, *self.v)]
        (a, b), (c, d), (e, f), (g, h) = parts
        if a * e - b * f + c * g - d * h or a * f + b * e + c * h + d * g:
            raise InvalidParameter(f"shear needs w.v = 0 exactly, got v = {self.v}, w = {self.w}")

    def _lines(self, bind, tangent):
        l, dl = (_terms_src(None, zip(self.w, zs), bind) for zs in (("x", "y"), ("dx", "dy")))
        bare = l in ("x", "y")  # w is (1, 0) or (0, 1): w.z is read by name, not put in l
        lines = [] if bare else [f"l = {l}", f"dl = {dl}"][: 1 + tangent]
        lines += _horner_lines(self.coeffs, l if bare else "l", bind, tangent)
        # a constant p is bound with each v_i as one name: as 0-d arrays, which
        # parabolic's loops bind, two names multiply otherwise than in Python
        const = len(self.coeffs) == 1
        lines += [f"{f} = {f} + {bind(c * self.coeffs[0])}" if const and c not in (1, -1)
                  else f"{f} = {_terms_src(f, [(c, 'p')], bind)}"
                  for c, f in zip(self.v, "xy") if c]
        lines += [f"d{f} = {_terms_src('d' + f, [(c, 'dp', dl if bare else 'dl')], bind)}"
                  for c, f in zip(self.v, "xy") if c and tangent]
        temps = ("p", "dp")[: 1 + tangent] + (() if bare else ("l", "dl")[: 1 + tangent])
        return lines + [f"del {', '.join(temps)}"]

    def inverted(self) -> "Shear":
        return Shear(tuple(-c for c in self.coeffs), self.v, self.w)


@dataclass(frozen=True)
class Linear(_Step):
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

    def _lines(self, bind, tangent):
        a, b, c, d = self.a, self.b, self.c, self.d
        return [
            f"{f}, {g} = {_terms_src(None, ((a, f), (b, g)), bind)}, "
            f"{_terms_src(None, ((c, f), (d, g)), bind)}"
            for f, g in (("x", "y"), ("dx", "dy"))[: 1 + tangent]
        ]

    def inverted(self) -> "Linear":
        det = self.det()
        return Linear(self.d / det, -self.b / det, -self.c / det, self.a / det)


@dataclass(frozen=True)
class Translation(_Step):
    bx: complex
    by: complex

    def _lines(self, bind, tangent):
        return [f"x, y = x + {bind(self.bx)}, y + {bind(self.by)}"]

    def inverted(self) -> "Translation":
        return Translation(-self.bx, -self.by)


@dataclass(frozen=True)
class QuadraticJet(_Step):
    """z -> z + P2(z) for homogeneous quadratic P2; forward-only payload.

    p = (a, b2, c) means a*x^2 + b2*x*y + c*y^2, likewise q.
    """

    p: tuple[complex, complex, complex]
    q: tuple[complex, complex, complex]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))

    def _lines(self, bind, tangent):
        pa, pxy, pc = self.p
        qa, qxy, qc = self.q
        rows = [
            _terms_src(v, ((a, "x", "x"), (b2, "x", "y"), (c, "y", "y")), bind)
            for v, (a, b2, c) in (("x", self.p), ("y", self.q))
        ]
        if not tangent:
            return [f"x, y = {rows[0]}, {rows[1]}"]
        j = (  # the Jacobian's entries, with 2 * pa and the like bound as one name
            f"(1.0 + {bind(2 * pa)} * x + {bind(pxy)} * y)",
            f"({bind(pxy)} * x + {bind(2 * pc)} * y)",
            f"({bind(2 * qa)} * x + {bind(qxy)} * y)",
            f"(1.0 + {bind(qxy)} * x + {bind(2 * qc)} * y)",
        )
        return [
            f"dx, dy = {j[0]} * dx + {j[1]} * dy, {j[2]} * dx + {j[3]} * dy",
            f"x, y = {rows[0]}, {rows[1]}",
        ]


_INVERTIBLE_KINDS = (Shear, Linear, Translation)
Step = Shear | Linear | Translation | QuadraticJet
# the (v, w) of the shears that map files write as shear_x and shear_y
_AXES = {"shear_x": ((1, 0), (0, 1)), "shear_y": ((0, 1), (1, 0))}


class _ChainOps:
    """Evaluation/differential machinery shared by Auto- and EndoChain."""

    steps: tuple[Step, ...]

    def apply(self, x, y):
        """The chain's image of (x, y), no magnitude cap; scalar or array.

        One call of _apply, the value lines of every step compiled into one
        function: step.apply composed step by step, bit for bit, without a
        Python call per step.  A plain method, so that perfbench/tracer.py
        can wrap it from the class __dict__."""
        return self._apply(x, y)

    def differential(self, z: Point) -> np.ndarray:
        """The Jacobian at z: its columns are the unit tangents pushed
        through the chain."""
        x, y = complex(z[0]), complex(z[1])
        _, _, j11, j21 = self._tangent_push(x, y, 1.0 + 0j, 0j)
        _, _, j12, j22 = self._tangent_push(x, y, 0j, 1.0 + 0j)
        return np.array([[j11, j12], [j21, j22]], dtype=complex)

    def differential_batch(self, xs, ys):
        """Per-point Jacobians as four arrays (j11, j12, j21, j22), then the
        image (x, y) the same pass computes, apply(xs, ys) bit for bit."""
        shape = np.broadcast(xs, ys).shape
        one, zero = np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)
        x, y = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
        _, _, j11, j21 = self._tangent_push(x, y, one, zero)
        x, y, j12, j22 = self._tangent_push(x, y, zero, one)
        return j11, j12, j21, j22, x, y

    def to_polynomial(self) -> tuple[Poly2, Poly2]:
        """The chain as an exact pair of bivariate polynomials.

        Written apart from the steps' emitted lines: a value line computes a
        term k x x as (k x) x, which over Poly2 rounds otherwise than the
        k (x x) here, and the normal forms are pinned to this order."""
        fx, fy = Poly2.x(), Poly2.y()
        for step in self.steps:
            if isinstance(step, Shear):
                # no product for a factor of exactly 1, as in the emitted lines
                terms = [f if c == 1 else f.scale(c) for c, f in zip(step.w, (fx, fy)) if c != 0]
                p = poly_of_poly(step.coeffs, functools.reduce(Poly2.__add__, terms))
                fx, fy = (f if c == 0 else f + (p if c == 1 else p.scale(c))
                          for c, f in zip(step.v, (fx, fy)))
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
                # P2(f) + f in this order: a term f lacks is then copied, not
                # added to 0j, which would turn a -0.0 part into +0.0
                # (parabolic's conjugate_linear reads these terms bit for bit)
                fx, fy = (
                    xx.scale(pa) + xy.scale(pxy) + yy.scale(pc) + fx,
                    xx.scale(qa) + xy.scale(qxy) + yy.scale(qc) + fy,
                )
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown step {step!r}")
        return fx, fy

    def _chain_lines(self, tangent):
        """lines(bind) of every step in order, for _compile."""
        return lambda bind: [ln for s in self.steps for ln in s._lines(bind, tangent)]

    @functools.cached_property
    def _apply(self):
        """The compiled value lines of all steps, at the chain's first apply."""
        return _compile("x, y", self._chain_lines(False))

    @functools.cached_property
    def _tangent_push(self):
        """The compiled (x, y, dx, dy) -> (apply(x, y), df (dx, dy)) of the
        module docstring, scalar or array."""
        return _compile("x, y, dx, dy", self._chain_lines(True))

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
    """

    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, _INVERTIBLE_KINDS):
                raise InvalidParameter(
                    f"AutoChain accepts only invertible steps, got {type(step).__name__}"
                )

    @property
    def volume_preserving(self) -> bool:
        """Every linear step has determinant 1 within _DET_ONE_TOL; shears
        and translations always have Jacobian determinant 1."""
        return all(
            abs(s.det() - 1.0) <= _DET_ONE_TOL for s in self.steps if isinstance(s, Linear)
        )

    def then(self, *steps: Step) -> "AutoChain":
        """The chain followed by further steps (composition on the left)."""
        return AutoChain(self.steps + steps)

    def inverted(self) -> "AutoChain":
        return AutoChain(tuple(s.inverted() for s in reversed(self.steps)))

    # -- capped evaluation -------------------------------------------------

    def evaluate(self, z: Point, cap: float = DEFAULT_CAP) -> Point:
        _check_finite(z)
        x, y = complex(z[0]), complex(z[1])
        for i, step in enumerate(self.steps):
            x, y = step.apply(x, y)
            m = max(abs(x), abs(y))
            if not math.isfinite(m) or m > cap:
                raise Overflow(f"coordinate magnitude {m:.3e} exceeded cap at step {i}")
        return x, y

    def evaluate_batch(self, xs, ys):
        """Vectorised evaluation; returns (xs, ys, ok) with escapers frozen at 0."""
        x = np.array(xs, dtype=complex, copy=True)
        y = np.array(ys, dtype=complex, copy=True)
        ok = np.ones(x.shape, dtype=bool)
        for step in self.steps:
            nx, ny = step.apply(x, y)
            ok &= ~_escaped(nx, ny)
            x = np.where(ok, nx, 0j)
            y = np.where(ok, ny, 0j)
        return x, y, ok

    def inverse_batch(self, xs, ys):
        # kept only for perfbench/tracer.py, which wraps it by name for its
        # core.inverse_batch span; the library inverts through inverted()
        return self.inverted().evaluate_batch(xs, ys)


def _escaped(nx, ny, m=None):
    """True where an image is non-finite or has a coordinate above DEFAULT_CAP;
    m, if the caller has it, is max(|nx|, |ny|).  A non-finite coordinate has
    a nan or inf modulus, which fails <=."""
    with np.errstate(invalid="ignore", over="ignore"):
        if m is None:
            m = np.maximum(np.abs(nx), np.abs(ny))
        return ~(m <= DEFAULT_CAP)


def _escaped_near(nx, ny, c, bound):
    """(_escaped(nx, ny), np.hypot(|nx - c0|, |ny - c1|) < bound), bit for bit,
    from one pass of moduli p = |nx - c0|, q = |ny - c1|, m = max(p, q).

    For c = 0, m is _escaped's own modulus.  For max(|c0|, |c1|) <=
    DEFAULT_CAP / 4, m <= DEFAULT_CAP / 2 puts both coordinates below
    3/4 DEFAULT_CAP, so _escaped runs only where m is larger or nan.
    """
    p = np.abs(nx - c[0]) if c[0] else np.abs(nx)
    q = np.abs(ny - c[1]) if c[1] else np.abs(ny)
    m = np.maximum(p, q)
    if not (c[0] or c[1]):
        esc = _escaped(nx, ny, m)
    elif max(abs(c[0]), abs(c[1])) <= DEFAULT_CAP / 4:
        esc = np.zeros(m.shape, dtype=bool)
        if not m.max(initial=0.0) <= DEFAULT_CAP / 2:  # max is nan if any m is
            far = np.flatnonzero(~(m <= DEFAULT_CAP / 2))
            esc[far] = _escaped(nx[far], ny[far])
    else:
        esc = _escaped(nx, ny)
    return esc, hypot_below(p, q, bound, m)


def hypot_below(p, q, bound, m=None):
    """np.hypot(p, q) < bound, bit for bit, for arrays p, q >= 0; m, if the
    caller has it, is np.maximum(p, q).

    True where 1.5 max(p, q) < bound, false where max(p, q) >= bound or is
    nan; np.hypot runs only on the points in between.
    """
    if m is None:
        m = np.maximum(p, q)
    with np.errstate(over="ignore"):  # 1.5 m = inf only fails to decide
        out = 1.5 * m < bound
    band = np.flatnonzero((m < bound) & ~out)
    if band.size:
        out[band] = np.hypot(p[band], q[band]) < bound
    return out


def hypot_max(p, q, m=None):
    """np.hypot(p, q).max(), bit for bit, for non-empty arrays p, q >= 0; m,
    if the caller has it, is np.maximum(p, q).

    A point with 1.5 max(p, q) below the largest max(p, q) has a smaller
    hypot than the point holding that largest max, so np.hypot runs only on
    the others; on all points when the largest max is inf or nan.
    """
    if m is None:
        m = np.maximum(p, q)
    top = m.max()
    if np.isfinite(top):
        with np.errstate(over="ignore"):
            near = np.flatnonzero(1.5 * m >= top)
        p, q = p[near], q[near]
    return np.hypot(p, q).max()


# pairwise distances a row block holds at once (one row of a at least)
_PAIR_BLOCK = 1 << 18


def _distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield (rows, |a[rows] - b|) over row blocks of at most _PAIR_BLOCK entries."""
    step = max(1, _PAIR_BLOCK // max(len(b), 1))
    for lo in range(0, len(a), step):
        rows = slice(lo, lo + step)
        yield rows, np.abs(a[rows, None] - b[None, :])


_BLOCK = 2**15  # points per block of iterate_live, whose working memory is that of one block


def iterate_live(advance, arrays, steps: int, threads: int = 1):
    """Iterate advance(k, idx, *arrays) -> (keep, arrays) for k = 1..steps on
    the live points only, in consecutive blocks of _BLOCK points.

    Each block runs from k = 1 until none of its points is left or k = steps,
    so the working memory is that of one block, whatever the point count.
    idx holds the original indices of the points whose state is in arrays
    (a block's range of np.arange(n) at first); points where keep is false
    leave both, and advance records their verdicts by scattering through
    idx.  Returns the final (idx, arrays) of all blocks, concatenated in
    index order.  A negative step count or threads < 1 raises
    InvalidParameter.

    threads > 1 lets the calling thread and min(threads, blocks) - 1 worker
    threads take the blocks from one shared queue; advance may then write
    only through idx.  Once a block raises, no thread takes another, and the
    error of the first failing block is raised after every thread ended.
    """
    if steps < 0:
        raise InvalidParameter(f"step count must be >= 0, got {steps}")
    if threads < 1:
        raise InvalidParameter(f"threads must be >= 1, got {threads}")
    n = len(arrays[0])
    starts = range(0, max(n, 1), _BLOCK)  # n = 0 is one empty block
    parts: list = [None] * len(starts)
    errors: dict[int, BaseException] = {}
    todo, lock = iter(range(len(starts))), threading.Lock()

    def run_block(lo):
        idx = np.arange(lo, min(lo + _BLOCK, n))
        live_arrays = tuple(a[lo : lo + _BLOCK] for a in arrays)
        for k in range(1, steps + 1):
            if idx.size == 0:
                break
            keep, live_arrays = advance(k, idx, *live_arrays)
            if not keep.all():
                live = np.flatnonzero(keep)
                idx = idx[live]
                live_arrays = tuple(a[live] for a in live_arrays)
        return idx, live_arrays

    def work() -> None:
        # errstate is per thread; overflowing on the way out is an escape
        with np.errstate(over="ignore", invalid="ignore"):
            while not errors:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                try:
                    parts[i] = run_block(starts[i])
                except BaseException as exc:  # re-raised by the caller
                    errors[i] = exc

    workers = [threading.Thread(target=work) for _ in range(min(threads, len(starts)) - 1)]
    for w in workers:
        w.start()
    work()
    for w in workers:
        w.join()
    if errors:
        raise errors[min(errors)]
    if len(parts) == 1:
        return parts[0]
    idxs, blocks = zip(*parts)
    return np.concatenate(idxs), tuple(np.concatenate(a) for a in zip(*blocks))


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
    eigenvalues: tuple[complex, complex]
    classification: Classification
    stable_dim: int
    residual: float
    iterations: int
    stable_direction: np.ndarray | None
    unstable_direction: np.ndarray | None


def _residual(chain: AutoChain, z: Point) -> tuple[Point, float]:
    fz = chain.evaluate(z)
    g = (fz[0] - z[0], fz[1] - z[1])
    return g, math.hypot(abs(g[0]), abs(g[1]))


def find_fixed_point(
    chain: AutoChain,
    seed: Point,
    tol: float = 1e-12,
) -> FixedPointInfo:
    """Newton iteration on f(z) - z with residual-halving damping.

    Raises NoConvergence after _NEWTON_MAX_ITER, SingularDifferential when the
    Newton matrix df - I degenerates.
    """
    if not tol > 0:  # nan too: r < tol would never hold
        raise InvalidParameter("tol must be positive")
    _check_finite(seed)
    z = (complex(seed[0]), complex(seed[1]))
    try:
        g, r = _residual(chain, z)
    except Overflow as exc:
        raise NoConvergence(f"seed escapes under f: {exc}") from exc

    iterations = 0
    for iterations in range(_NEWTON_MAX_ITER):
        if r < tol:
            break
        j = chain.differential(z) - np.eye(2)
        det = complex(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
        scale = float(np.max(np.abs(j))) + 1.0
        if abs(det) <= 1e-14 * scale * scale:
            raise SingularDifferential(
                f"Newton matrix singular: |det| = {abs(det):.3e} against scale {scale:.3e}"
            )
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
        raise NoConvergence(f"Newton did not reach tol {tol:.1e} in {_NEWTON_MAX_ITER} iterations")

    j = chain.differential(z)
    cls, stable_dim, eigs = classify_differential(j)
    vs = vu = None
    if cls is Classification.SADDLE:
        vs = eigenvector(j, eigs[0])
        vu = eigenvector(j, eigs[1])
    return FixedPointInfo(
        location=z,
        eigenvalues=eigs,
        classification=cls,
        stable_dim=stable_dim,
        stable_direction=vs,
        unstable_direction=vu,
        residual=r,
        iterations=iterations,
    )


# -- common constructions --------------------------------------------------


def henon_chain(c: float | complex) -> AutoChain:
    """The volume-preserving Henon-type map (x, y) -> (x^2 + c - y, x)."""
    rot = Linear(0.0, -1.0, 1.0, 0.0)
    return AutoChain((rot, Shear((complex(c), 0.0, 1.0), *_AXES["shear_x"])))


def diag_linear_chain(a: complex, d: complex) -> AutoChain:
    return AutoChain((Linear(a, 0.0, 0.0, d),))


def conjugate_by_translation(chain: AutoChain, p: Point) -> AutoChain:
    """T_{-p} o chain o T_{p}: moves a fixed point at p to the origin."""
    steps = (Translation(p[0], p[1]),) + chain.steps + (Translation(-p[0], -p[1]),)
    return AutoChain(steps)


# -- map definition files ---------------------------------------------------


def _cx_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, (list, tuple)) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
    else:
        raise InvalidParameter(f"expected number or [re, im] pair, got {v!r}")
    if not cmath.isfinite(z):
        raise InvalidParameter(f"expected a finite number, got {v!r}")
    return z


def _cxs(values) -> tuple[complex, ...]:
    return tuple(_cx_from_json(v) for v in values)


def _cxs_to_json(values) -> list[list[float]]:
    return [[c.real, c.imag] for c in values]


def step_from_dict(d: dict) -> Step:
    try:
        kind = d.get("kind")  # an AttributeError where d is not an object
        if kind in _AXES:
            return Shear(_cxs(d["coeffs"]), *_AXES[kind])
        if kind == "shear":
            return Shear(_cxs(d["coeffs"]), _cxs(d["v"]), _cxs(d["w"]))
        if kind == "linear":
            return Linear(*_cxs(d["matrix"][0]), *_cxs(d["matrix"][1]))
        if kind == "translate":
            return Translation(*_cxs(d["by"]))
        if kind == "quadratic_jet":
            return QuadraticJet(_cxs(d["p"]), _cxs(d["q"]))
    except InvalidParameter:  # a ValueError whose message already names the bad value
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"malformed step {d!r}: {exc}") from exc
    raise InvalidParameter(f"unknown step kind {kind!r}")


def step_to_dict(step: Step) -> dict:
    if isinstance(step, Shear):
        kind = next((k for k, axes in _AXES.items() if (step.v, step.w) == axes), "shear")
        d = {"kind": kind, "coeffs": _cxs_to_json(step.coeffs)}
        if kind == "shear":
            d.update(v=_cxs_to_json(step.v), w=_cxs_to_json(step.w))
        return d
    if isinstance(step, Linear):
        rows = ((step.a, step.b), (step.c, step.d))
        return {"kind": "linear", "matrix": [_cxs_to_json(row) for row in rows]}
    if isinstance(step, Translation):
        return {"kind": "translate", "by": _cxs_to_json((step.bx, step.by))}
    if isinstance(step, QuadraticJet):
        return {"kind": "quadratic_jet", "p": _cxs_to_json(step.p), "q": _cxs_to_json(step.q)}
    raise TypeError(f"unknown step {step!r}")


def map_from_dict(d: dict) -> AutoChain | EndoChain:
    """Parse a map definition; quadratic_jet steps force an endomorphism.
    A declared "volume_preserving": true is checked against the steps."""
    if not isinstance(d, dict) or not isinstance(d.get("steps"), list):
        raise InvalidParameter("map definition must be an object with a 'steps' list")
    steps = tuple(step_from_dict(s) for s in d["steps"])
    if any(isinstance(s, QuadraticJet) for s in steps):
        return EndoChain(steps)
    chain = AutoChain(steps)
    if d.get("volume_preserving") and not chain.volume_preserving:
        raise InvalidParameter("map declares volume_preserving but a linear step has det != 1")
    return chain


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
            raise InvalidParameter(f"{path}: invalid JSON: {exc}") from exc
    return map_from_dict(d)
