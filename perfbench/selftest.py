#!/usr/bin/env python3
"""Self-tests of the benchmark: metric names at smoke size, and the output gate.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload runs at its smoke size with
and without tracing and must emit exactly the metric names BENCHMARK.json
lists.  The gate tests corrupt a result the benchmark received (a graph
point u shifted by 10x the resolution, a flipped verdict, a changed artifact
byte) and require the pass to report that operation as failed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(key):
    return {m["name"] for m in SPEC[key]}


class SmokeMetrics(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    res = run.run(name, 3, 0.5, trace, size="smoke", out=lambda line: None)
                    self.assertTrue(res["correct"])
                    self.assertEqual(set(res["metrics"]), names(key))
                    self.assertGreater(res["attempted"], 0)
                    self.assertEqual(res["failed"], 0)


class OutputGate(unittest.TestCase):
    def setUp(self):
        (HERE / "_work").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def failed_ops(self, wl, index, first):
        _, _, failures = run.run_pass(wl, index, first)
        return {name for name, _ in failures}

    def test_shifted_graph_point_fails(self):
        wl = workloads.Parabolic(5, "smoke", self.workdir)
        real = wl.parabolic.graph_point

        def shifted(m, x, **kw):
            gp = real(m, x, **kw)
            gp.u += 10 * kw["resolution"]
            return gp

        wl.parabolic.graph_point = shifted
        try:
            failed = self.failed_ops(wl, 0, {})
        finally:
            wl.parabolic.graph_point = real
        self.assertEqual(failed, {label for label, *_ in wl.cases})

    def test_shifted_graph_point_fails_at_full_resolution(self):
        wl = workloads.Parabolic(5, "full", self.workdir)
        _, m, x, res = wl.cases[0]
        gp = wl.parabolic.graph_point(m, x, epsilon=workloads.EPS, resolution=res)
        self.assertEqual(wl.check_graph_point(m, gp, res), [])
        gp.u += 10 * res
        self.assertNotEqual(wl.check_graph_point(m, gp, res), [])

    def test_flipped_verdict_fails(self):
        wl = workloads.Basin(5, "smoke", self.workdir)
        real = wl.basin.orbit_verdicts

        def flipped(*args, **kw):
            codes, steps = real(*args, **kw)
            codes = codes.copy()
            codes[0] = wl.basin.VERDICT_ESCAPED if codes[0] != wl.basin.VERDICT_ESCAPED else wl.basin.VERDICT_CONVERGED
            return codes, steps

        wl.basin.orbit_verdicts = flipped
        try:
            failed = self.failed_ops(wl, 0, {})
        finally:
            wl.basin.orbit_verdicts = real
        self.assertIn("interior_probe henon threads=1", failed)
        self.assertIn("interior_probe control threads=1", failed)

    def test_flipped_bounded_cell_fails(self):
        wl = workloads.Basin(5, "smoke", self.workdir)
        real = wl.basin.bounded_set_probe

        def flipped(*args, threads=1, **kw):
            marked = real(*args, threads=threads, **kw)
            if threads == 2:
                marked[0, 0] = not marked[0, 0]
            return marked

        wl.basin.bounded_set_probe = flipped
        try:
            failed = self.failed_ops(wl, 0, {})
        finally:
            wl.basin.bounded_set_probe = real
        self.assertEqual(failed, {"bounded_set_probe threads=2"})

    def test_changed_artifact_byte_fails(self):
        wl = workloads.Saddle(5, "smoke", self.workdir)
        first: dict = {}
        self.assertEqual(self.failed_ops(wl, 0, first), set())
        real = wl.cli.main

        def tampered(argv):
            rc = real(argv)
            cloud = Path(argv[argv.index("--out") + 1]) / "cloud.csv"
            if cloud.exists():
                data = bytearray(cloud.read_bytes())
                data[-2] ^= 1
                cloud.write_bytes(bytes(data))
            return rc

        wl.cli.main = tampered
        try:
            failed = self.failed_ops(wl, 1, first)
        finally:
            wl.cli.main = real
        self.assertEqual(failed, {"pullback map0"})


class NoSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        """In a directory holding only the benchmark, run.py must refuse."""
        (HERE / "_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=HERE / "_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "basin", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
