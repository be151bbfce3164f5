#!/usr/bin/env python3
"""Parabolic experiments: directions, expansion margins, sector graphs, stability."""
from __future__ import annotations

import pathlib
import sys

from holodyn.cli import parabolic_payload
from holodyn.parabolic import (
    HomogeneousQuadratic,
    cubic_perturbation_family,
    expansion_check,
    graph_point,
    normal_form_family,
    parabolic_stability_experiment,
)
from holodyn.serialize import write_json


def main() -> int:
    out = pathlib.Path("out-parabolic")
    out.mkdir(exist_ok=True)
    eps = 0.02

    for c in (0.0, 1.0, 3.0):
        p2 = HomogeneousQuadratic.normal_form(c)
        rep = expansion_check(normal_form_family(c), eps, trials=10_000, seed=7)
        graph = [
            graph_point(normal_form_family(c), x, epsilon=eps, resolution=1e-6)
            for x in (-0.005, -0.01, -0.015)
        ]
        payload = parabolic_payload(c, eps, p2, graph, rep)
        write_json(out / f"parabolic_c{c:g}.json", payload)
        print(
            f"c={c:g}: {len(payload['directions'])} directions,"
            f" expansion violations {rep.violations},"
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
