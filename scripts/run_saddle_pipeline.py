#!/usr/bin/env python3
"""End-to-end saddle experiment: fixed point, local graph, pullback, density.

Writes artifacts under out-saddle/ and prints a short summary of each stage.
"""
from __future__ import annotations

import pathlib
import sys

import numpy as np

from holodyn.core import find_fixed_point, henon_chain
from holodyn.manifold import (
    density_sweep,
    graph_residual,
    local_stable_graph,
    pullback_clouds,
    sheary_perturbation_family,
    stability_experiment,
)
from holodyn.serialize import fields, write_csv, write_json


def main() -> int:
    out = pathlib.Path("out-saddle")
    out.mkdir(exist_ok=True)
    c = 0.75
    chain = henon_chain(c)
    fp = find_fixed_point(chain, (1.4, 1.4))
    print(f"saddle at ({fp.location[0].real:.12g}, {fp.location[1].real:.12g});"
          f" eigenvalues {fp.eigenvalues[0]:.6g}, {fp.eigenvalues[1]:.6g}")

    graph = local_stable_graph(chain, fp, 0.1, mesh=(12, 24), tol=1e-9)
    res = graph_residual(chain, graph)
    print(f"local graph: series order {graph.iterations}, residual {res:.3e}")
    s, t = graph.s_grid, graph.t_values
    write_csv(out / "graph.csv", ["s_re", "s_im", "t_re", "t_im"], [s.real, s.imag, t.real, t.imag])

    points = np.concatenate([cloud.points for cloud in pullback_clouds(chain, graph, 8)])
    write_csv(out / "cloud.csv", ["re_x", "im_x", "re_y", "im_y"], points.view(np.float64).T)

    reports = density_sweep(chain, graph, range(1, 9), (-2.0, 2.0), 10)
    write_json(
        out / "density.json",
        {"sweep": [fields(r, "depth", "occupied", "fraction") for r in reports]},
    )
    print("density sweep:", ", ".join(f"{r.depth}:{r.fraction:.4f}" for r in reports))

    family = sheary_perturbation_family(chain, lambda t: (0.0, 0.0, t))
    stab = stability_experiment(chain, fp, family, [1e-2, 1e-3, 1e-4], delta=0.1)
    write_json(out / "stability.json", {"rows": stab})
    print("stability:", ", ".join(f"t={r.t:g}: {r.graph_dist:.3e}" for r in stab))
    return 0


if __name__ == "__main__":
    sys.exit(main())
