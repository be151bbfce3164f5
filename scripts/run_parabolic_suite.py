#!/usr/bin/env python3
"""Parabolic experiments: directions, expansion margins, sector graphs, stability."""
from __future__ import annotations

import pathlib
import sys

from holodyn.parabolic import (
    HomogeneousQuadratic,
    characteristic_directions,
    cubic_perturbation_family,
    expansion_check,
    graph_point,
    normal_form_family,
    parabolic_stability_experiment,
)
from holodyn.serialize import fields, write_json


def main() -> int:
    out = pathlib.Path("out-parabolic")
    out.mkdir(exist_ok=True)
    eps = 0.02

    for c in (0.0, 1.0, 3.0):
        p2 = HomogeneousQuadratic.normal_form(c)
        dirs = characteristic_directions(p2)
        rep = expansion_check(normal_form_family(c), eps, trials=10_000, seed=7)
        graph = [
            graph_point(normal_form_family(c), x, epsilon=eps, resolution=1e-6)
            for x in (-0.005, -0.01, -0.015)
        ]
        write_json(
            out / f"parabolic_c{c:g}.json",
            {
                "c": c,
                "epsilon": eps,
                "directions": [
                    {"v": d.direction, "lambda": d.lam, "degenerate": d.degenerate}
                    for d in dirs
                ],
                "graph": [
                    {"x": g.x, "u": g.u, "radius": g.certified_radius} for g in graph
                ],
                "expansion": fields(rep, "trials", "violations", "min_margin"),
            },
        )
        print(
            f"c={c:g}: {len(dirs)} directions, expansion violations {rep.violations},"
            f" graph |u| max {max(abs(g.u) for g in graph):.2e}"
        )

    fam = cubic_perturbation_family(0.0)
    rows = parabolic_stability_experiment(
        fam, x_mesh=(-0.012, -0.016), t_values=(1e-1, 1e-2, 1e-3),
        epsilon=eps, resolution=1e-8,
    )
    write_json(out / "stability.json", {"rows": rows})
    print("stability:", ", ".join(f"t={r.t:g}: {r.sup_distance:.3e}" for r in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
