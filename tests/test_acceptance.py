"""Acceptance gate: every criterion at its stated tolerance and time budget.

Each test prints one PASS line on success (pytest -s shows them); a failing
assertion marks the criterion FAIL.  Expected values tagged as derived are
computed by independent oracles inside the tests, never hard-coded from the
implementation under test.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from holodyn.basin import (
    dichotomy_probe,
    interior_probe,
    nonuniformity_witness,
    planar_homeo,
    sample_unit_disc_away_from_poles,
    sphere_residuals_batch,
)
from holodyn.cli import main
from holodyn.core import (
    diag_linear_chain,
    find_fixed_point,
    henon_chain,
    map_to_dict,
)
from holodyn.manifold import (
    density_sweep,
    graph_residual,
    local_stable_graph,
    sheary_perturbation_family,
    stability_experiment,
)
from holodyn.nonauto import (
    demonstrator_sequence,
    demonstrator_witnesses,
    pointwise_vs_uniform_report,
)
from holodyn.parabolic import (
    HomogeneousQuadratic,
    SectorPoint,
    characteristic_directions,
    expansion_check,
    graph_point,
    in_sector,
    normal_form_family,
    tangent_shear_chain,
)
from holodyn.serialize import write_json

from conftest import blowup_step, direction_residual, quadratic_roots


@contextmanager
def budget(criterion: int, label: str, seconds: float):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < seconds, f"criterion {criterion} exceeded {seconds}s ({dt:.1f}s)"
    print(f"ACCEPTANCE {criterion:2d} PASS  {label}  [{dt:.2f}s < {seconds:g}s]")


def test_criterion_01_closed_form_iterate():
    with budget(1, "sphere-map closed-form iterate residual < 1e-12", 5.0):
        m = 10_000
        zs = sample_unit_disc_away_from_poles(seed=101, n=1000, m=m)
        res = sphere_residuals_batch(zs, m)
        assert res.shape == (1000,)
        assert float(res.max()) < 1e-12


def test_criterion_02_saddle_pipeline():
    with budget(2, "Henon saddle pipeline: Newton + graph transform", 10.0):
        ch = henon_chain(0.75)
        fp = find_fixed_point(ch, (1.4, 1.4))
        assert abs(fp.location[0] - 1.5) < 1e-9
        assert abs(fp.location[1] - 1.5) < 1e-9
        lo, hi = sorted(quadratic_roots(1.0, -3.0, 1.0), key=abs)
        assert abs(fp.eigenvalues[0] - lo) < 1e-9
        assert abs(fp.eigenvalues[1] - hi) < 1e-9
        graph = local_stable_graph(ch, fp, 0.1, tol=1e-9)
        assert graph.iterations <= 60
        assert graph_residual(ch, graph) < 1e-8


def test_criterion_03_stability_of_graphs():
    with budget(3, "perturbation stability: offsets and distances shrink", 60.0):
        ch = henon_chain(0.75)
        fp = find_fixed_point(ch, (1.4, 1.4))
        family = sheary_perturbation_family(ch, lambda t: (0.0, 0.0, t))
        rows = stability_experiment(
            ch, fp, family, [1e-2, 1e-3, 1e-4], delta=0.1, pullback_depth=3
        )
        offs = [r.fp_offset for r in rows]
        dists = [r.graph_dist for r in rows]
        assert offs[0] > offs[1] > offs[2] > 0
        assert dists[0] > dists[1] > dists[2] > 0
        assert dists[2] < dists[0] / 10


def test_criterion_04_density_growth():
    with budget(4, "pullback density non-decreasing, strictly grows", 120.0):
        ch = henon_chain(0.75)
        fp = find_fixed_point(ch, (1.4, 1.4))
        graph = local_stable_graph(ch, fp, 0.1, mesh=(12, 24), tol=1e-9)
        reports = density_sweep(ch, graph, range(1, 9), (-2.0, 2.0), 10)
        fracs = [r.fraction for r in reports]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert any(b > a for a, b in zip(fracs, fracs[1:]))


def test_criterion_05_parabolic_expansion():
    with budget(5, "sector expansion: 0 violations over 1e4 pairs, c in {0,1,3}", 10.0):
        for c in (0.0, 1.0, 3.0):
            rep = expansion_check(normal_form_family(c), 0.02, trials=10_000, seed=7)
            assert rep.trials >= 10_000
            assert rep.violations == 0


def test_criterion_06_unique_graph_point():
    with budget(6, "unique sector graph point on the invariant fiber", 60.0):
        m = normal_form_family(0.0)
        for x in (-0.005, -0.01, -0.015):
            gp = graph_point(m, x, epsilon=0.02, resolution=1e-6)
            # invariant-fiber oracle: u = 0 exactly since q(x, 0) = 0
            assert abs(gp.u) <= gp.certified_radius
            pt = SectorPoint(x, gp.u, 0.02)
            mags = []
            for _ in range(200):
                pt = blowup_step(m, pt)
                assert in_sector(pt)
                mags.append(abs(pt.x))
            assert all(b < a for a, b in zip(mags[10:], mags[11:]))
        g1 = graph_point(m, -0.01, epsilon=0.02, resolution=1e-6)
        g2 = graph_point(m, -0.01, epsilon=0.02, resolution=5e-7)
        assert abs(g2.u - g1.u) < g1.certified_radius


def test_criterion_07_blowup_truncation_orders():
    with budget(7, "blow-up remainder orders: slopes >= 2.9 and >= 1.9", 5.0):
        ch = tangent_shear_chain(0.0)
        xs = -np.logspace(-5, -2, 10)
        dx, du = [], []
        for x in xs:
            out = blowup_step(ch, SectorPoint(complex(x), 0j, 0.02))
            dx.append(abs(out.x - (x + x * x)))  # truncation with u = 0, c = 0
            du.append(abs(out.u - 0.0))
        lx = np.log(np.abs(xs))
        assert np.polyfit(lx, np.log(dx), 1)[0] >= 2.9
        assert np.polyfit(lx, np.log(du), 1)[0] >= 1.9


def test_criterion_08_characteristic_directions():
    with budget(8, "characteristic directions of the c = 3 normal form", 5.0):
        p2 = HomogeneousQuadratic.normal_form(3.0)
        dirs = characteristic_directions(p2)
        assert len(dirs) == 3
        r1, r2 = quadratic_roots(3.0, 3.0, 3.0)
        want = {0j, r1, r2}
        for d in dirs:
            u = complex(d.direction[1] / d.direction[0])
            assert min(abs(u - w) for w in want) < 1e-9
            assert direction_residual(d, p2) < 1e-10 * p2.norm()
        lam0 = [d for d in dirs if abs(d.direction[1]) < 1e-9][0].lam
        assert abs(lam0 - 1.0) < 1e-12
        pert = HomogeneousQuadratic(
            tuple(v + 1e-6 for v in p2.p), tuple(v - 1e-6 for v in p2.q)
        )
        moved = characteristic_directions(pert)
        for d in dirs:
            dist = min(float(np.linalg.norm(d.direction - m.direction)) for m in moved)
            assert dist < 1e-4


def test_criterion_09_dichotomy():
    with budget(9, "ball-avoidance dichotomy: control cutoff vs saddle witnesses", 30.0):
        lin = diag_linear_chain(0.5, 0.5)
        fpl = find_fixed_point(lin, (0.1, 0.1))
        ctl = dichotomy_probe(lin, fpl, 1.0, 50, samples=512, seed=11)
        assert ctl.cutoff_m0 is not None and ctl.cutoff_m0 <= 20
        ch = henon_chain(0.75)
        fp = find_fixed_point(ch, (1.4, 1.4))
        rep = dichotomy_probe(ch, fp, 0.5, 50, samples=512, seed=11)
        assert rep.largest_witnessed_m == 50
        assert set(rep.witnesses) == set(range(1, 51))


def test_criterion_10_empty_interior():
    with budget(10, "Monte-Carlo interior: thin for the saddle, full for control", 60.0):
        ch = henon_chain(0.75)
        fp = find_fixed_point(ch, (1.4, 1.4))
        rep = interior_probe(ch, fp, 2.0, 100_000, max_iter=500, conv_tol=1e-3, seed=23)
        assert rep.fraction <= 0.001
        lin = diag_linear_chain(0.5, 0.5)
        fpl = find_fixed_point(lin, (0.1, 0.1))
        ctl = interior_probe(lin, fpl, 2.0, 100_000, max_iter=500, conv_tol=1e-3, seed=23)
        assert ctl.fraction >= 0.999


def test_criterion_11_nonuniformity():
    with budget(11, "non-uniform attraction: witnesses and sup/fraction report", 30.0):
        for m in range(1, 31):
            theta, z = nonuniformity_witness(m)
            w = z
            for _ in range(m):
                w = planar_homeo(w)
            assert abs(w - 1.0) > 1.0
        n = 30
        rep = pointwise_vs_uniform_report(
            demonstrator_sequence(),
            ((-1.5, 1.5), (-1.5, 1.5)),
            n,
            grid=(7, 7),
            witnesses=demonstrator_witnesses(n),
        )
        for row in rep.rows[1:]:
            assert row.sup_distance >= 1.0
        fracs = [r.converged_fraction for r in rep.rows]
        assert fracs[-1] >= 0.9
        assert fracs[-1] > fracs[1]


def test_criterion_12_cli_determinism(tmp_path):
    with budget(12, "CLI byte-determinism across thread counts {1, 4}", 120.0):
        map_file = tmp_path / "henon075.json"
        write_json(map_file, map_to_dict(henon_chain(0.75)))
        artifacts: dict[str, dict[str, bytes]] = {}
        for t in ("1", "4"):
            outs: dict[str, bytes] = {}
            o1 = tmp_path / f"interior{t}"
            assert 0 == main(
                [
                    "interior", "--map", str(map_file), "--seed-point", "1.4,1.4",
                    "--samples", "20000", "--max-iter", "200", "--threads", t,
                    "--out", str(o1),
                ]
            )
            outs["interior.json"] = (o1 / "interior.json").read_bytes()
            o2 = tmp_path / f"bounded{t}"
            assert 0 == main(
                [
                    "bounded-set", "--map", str(map_file), "--grid", "24,24",
                    "--max-iter", "80", "--threads", t, "--out", str(o2),
                ]
            )
            outs["bounded.ppm"] = (o2 / "bounded.ppm").read_bytes()
            o3 = tmp_path / f"cloud{t}"
            assert 0 == main(
                [
                    "pullback", "--map", str(map_file), "--seed-point", "1.4,1.4",
                    "--depth", "3", "--threads", t, "--out", str(o3),
                ]
            )
            outs["cloud.csv"] = (o3 / "cloud.csv").read_bytes()
            artifacts[t] = outs
        for name in artifacts["1"]:
            assert artifacts["1"][name] == artifacts["4"][name], name
