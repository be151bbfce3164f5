#!/usr/bin/env python3
"""Counterexample gallery: sphere-map residuals, witnesses, non-uniform report."""
from __future__ import annotations

import pathlib
import sys

from holodyn.basin import (
    nonuniformity_witnesses,
    sample_unit_disc_away_from_poles,
    sphere_residuals_batch,
)
from holodyn.nonauto import (
    demonstrator_sequence,
    demonstrator_witnesses,
    pointwise_vs_uniform_report,
)
from holodyn.serialize import write_csv, write_json


def main() -> int:
    out = pathlib.Path("out-gallery")
    out.mkdir(exist_ok=True)

    m = 10_000
    zs = sample_unit_disc_away_from_poles(seed=101, n=1000, m=m)
    res = sphere_residuals_batch(zs, m)
    print(f"sphere residual over 1000 points at m={m}: max {res.max():.3e}")
    write_json(out / "sphere.json", {"m": m, "points": 1000, "max_residual": float(res.max())})

    ks, thetas, dists = nonuniformity_witnesses(30)
    write_csv(out / "witnesses.csv", ["m", "theta", "dist"], [ks, thetas, dists])
    print(f"witnesses for m = 1..30; smallest angle {thetas[-1]:.3e}")

    n = 30
    rep = pointwise_vs_uniform_report(
        demonstrator_sequence(), ((-1.5, 1.5), (-1.5, 1.5)), n,
        grid=(9, 9), witnesses=demonstrator_witnesses(n),
    )
    write_csv(
        out / "pointwise.csv",
        ["n", "sup_distance", "converged_fraction"],
        [[getattr(r, f) for r in rep.rows] for f in ("n", "sup_distance", "converged_fraction")],
    )
    last = rep.rows[-1]
    print(
        f"pointwise-vs-uniform at n={last.n}: sup {last.sup_distance:.3f},"
        f" fraction {last.converged_fraction:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
