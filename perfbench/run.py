#!/usr/bin/env python3
"""holodyn benchmark: one workload, closed loop, one client, outputs checked.

    python3 perfbench/run.py --workload parabolic --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; holodyn is imported from ./src.  A run sets
up the workload SETUPS times (fresh import of holodyn plus seeded inputs),
runs passes over the workload's operations until --seconds is spent (at
least two passes, so every output is also compared with the first pass),
then sets up SETUPS times more; setup_s is the median of all set-ups.  The last line of standard output
is one JSON object; the lines above it repeat the metrics with units and
sample counts.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones;
trace.overhead_frac compares the two.  Spans of the last traced pass are
written to perfbench/_out/spans-<workload>.csv.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
MIN_PASSES = 2

# metric names and units come from BENCHMARK.json; a name listed there and
# not computed below fails the run
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# pooled probes run at threads=1 and threads=2; pool_speedup compares them
POOLED = ("interior_probe", "bounded_set_probe")


def nearest_rank(values, q):
    """The q-quantile as the ceil(q*n)-th smallest value.

    Unlike interpolating quantiles this does not move when every operation
    is repeated once more, so the pass count of a run does not shift it.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def purge_holodyn():
    for name in [n for n in sys.modules if n == "holodyn" or n.startswith("holodyn.")]:
        del sys.modules[name]


def set_up(workloads, name, seed, size, workdir):
    """SETUPS fresh imports plus input builds; returns (workload, times)."""
    times = []
    wl = None
    for _ in range(SETUPS):
        purge_holodyn()
        t0 = perf_counter()
        __import__("holodyn")
        wl = workloads[name](seed, size, workdir)
        times.append(perf_counter() - t0)
    return wl, times


def run_pass(wl, index, first, rec=None):
    """One closed-loop pass; returns (wall_s, [(op, seconds)], failures)."""
    holodyn_error = wl.errors.HolodynError
    latencies, failures = [], []
    t_pass = perf_counter()
    for op in wl.ops(index):
        if rec is not None:
            rec.active = True
        t0 = perf_counter()
        try:
            result, problems = op.run(), None
        except holodyn_error as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        dt = perf_counter() - t0
        if rec is not None:
            rec.active = False
        if problems is None:
            problems = op.check(result)
            fingerprint = op.fingerprint(result)
            if first.setdefault(op.name, fingerprint) != fingerprint:
                problems.append("output differs from the first pass")
        latencies.append((op.name, dt))
        if problems:
            failures.append((op.name, problems))
    wall = perf_counter() - t_pass
    wl.end_pass(index)
    return wall, latencies, failures


def layer_metrics(tracer, rec):
    st = tracer.self_times(rec.spans)
    calls = tracer.call_counts(rec.spans)
    c = rec.counters

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "core.apply.calls": calls["core.apply"],
        "core.apply.points": c["core.apply.points"],
        "core.apply.ns_per_point": 1e9 * ratio(st["core.apply"], c["core.apply.points"]),
        "core.evaluate_batch.points": c["core.evaluate_batch.points"],
        "core.evaluate_batch.ok_ratio": ratio(c["core.evaluate_batch.ok"], c["core.evaluate_batch.points"]),
        "core.differential_batch.points": c["core.differential_batch.points"],
        "core.find_fixed_point.calls": calls["core.find_fixed_point"],
        "core.find_fixed_point.iterations": c["core.find_fixed_point.iterations"],
        "parabolic.graph_point.calls": calls["parabolic.graph_point"],
        "parabolic.graph_point.levels": c["parabolic.graph_point.levels"],
        "parabolic.graph_point.final_horizon": c["parabolic.graph_point.final_horizon"],
        "parabolic.blowup_batch.calls": calls["parabolic.blowup_batch"],
        "parabolic.blowup_batch.points": c["parabolic.blowup_batch.points"],
        "parabolic.blowup_batch.live_ratio": ratio(c["parabolic.blowup_batch.live"], c["parabolic.blowup_batch.points"]),
        "parabolic.expansion_check.trials": c["parabolic.expansion_check.trials"],
        "basin.orbit_verdicts.points": c["basin.orbit_verdicts.points"],
        "basin.orbit_verdicts.point_steps": c["basin.orbit_verdicts.point_steps"],
        "basin.orbit_verdicts.live_ratio": ratio(c["basin.orbit_verdicts.point_steps"], c["basin.orbit_verdicts.swept"]),
        "basin.planar_homeo.points": c["basin.planar_homeo.points"],
        "manifold.local_stable_graph.iterations": c["manifold.local_stable_graph.iterations"],
        "manifold.pullback_cloud.points": c["manifold.pullback_cloud.points"],
        "manifold.pullback_cloud.dropped": c["manifold.pullback_cloud.dropped"],
        "manifold.occupied_cells.points": c["manifold.occupied_cells.points"],
        "manifold.hausdorff_distance.pairs": c["manifold.hausdorff_distance.pairs"],
        "cli.main.calls": calls["cli.main"],
        "serialize.write.bytes": c["serialize.write.bytes"],
    }
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            if span in tracer.LAYERS:
                m[name] = sum(v for k, v in st.items() if k.startswith(span + "."))
            else:
                m[name] = st[span]
    return m


def run(workload, seed, seconds, trace, size="full", out=print):
    """Run one workload; returns the result object printed as the last line."""
    src = ROOT / "src"
    if not (src / "holodyn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no holodyn sources under {src}; run from a checkout root")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracer
    from workloads import WORKLOADS

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "_work"))
    try:
        wl, setup_times = set_up(WORKLOADS, workload, seed, size, workdir)
        rec = tracer.Recorder() if trace else None
        first: dict = {}
        walls = {False: [], True: []}
        latencies, failures, layers = [], [], []
        attempted = 0
        start = perf_counter()
        index = 0
        while True:
            traced = bool(trace) and index % 2 == 1
            if traced:
                rec.reset()
                rec.install()
            try:
                wall, lat, fails = run_pass(wl, index, first, rec if traced else None)
            finally:
                if traced:
                    rec.uninstall()
            if traced:
                layers.append(layer_metrics(tracer, rec))
            else:
                latencies.append(lat)
            walls[traced].append(wall)
            attempted += len(lat)
            failures += [(index, *f) for f in fails]
            index += 1
            elapsed = perf_counter() - start
            if index >= MIN_PASSES and elapsed + statistics.median(walls[False] + walls[True]) > seconds:
                break
        # the host's speed drifts over tens of seconds: set up again at the
        # end so setup_s samples both ends of the run
        setup_times += set_up(WORKLOADS, workload, seed, size, workdir)[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_ms = [1e3 * dt for lat in latencies for _, dt in lat]
    e2e = {
        "wall_s": statistics.median(walls[False]),
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": nearest_rank(op_ms, 0.5),
        "op_p90_ms": nearest_rank(op_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "wall_s": f"median of {len(walls[False])} passes",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_p50_ms": f"nearest rank of {len(op_ms)} operations",
        "op_p90_ms": f"nearest rank of {len(op_ms)} operations",
        "peak_rss_mb": "process maximum",
    }
    out(f"perfbench {workload} seed={seed} size={size} trace={trace}: "
        f"{index} passes, {attempted} operations; nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__}")
    for name, unit in END_TO_END.items():
        out(f"  {name:<14} {e2e[name]:14.6f} {unit:<5} ({samples[name]})")
    per_op: dict[str, list] = {}
    for lat in latencies:
        for name, dt in lat:
            per_op.setdefault(name, []).append(1e3 * dt)
    for name, ms in per_op.items():
        out(f"  op {name:<36} {statistics.median(ms):12.3f} ms   (median of {len(ms)})")
    fail_frac = len(failures) / attempted
    out(f"  {'fail_frac':<14} {fail_frac:14.6f} ratio ({len(failures)} of {attempted} operations)")
    for i, name, problems in failures:
        out(f"  FAILED pass {i} {name}: {'; '.join(problems)}")

    if trace:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer["basin.pool_speedup"] = pool_speedup(latencies)
        per_layer["trace.overhead_frac"] = statistics.median(walls[True]) / e2e["wall_s"] - 1.0
        out(f"  per-layer metrics: median of {len(layers)} traced passes")
        for name, unit in PER_LAYER.items():
            out(f"  {name:<44} {per_layer[name]:18.6f} {unit}")
        (HERE / "_out").mkdir(exist_ok=True)
        rec.write_csv(HERE / "_out" / f"spans-{workload}.csv")
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def pool_speedup(latencies):
    """Time of the pooled probes at threads=1 over their time at threads=2."""
    t = {1: 0.0, 2: 0.0}
    for lat in latencies:
        for name, dt in lat:
            if name.split()[0] in POOLED:
                t[int(name.rsplit("=", 1)[1])] += dt
    return t[1] / t[2] if t[2] else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    a = ap.parse_args(argv)
    result = run(a.workload, a.seed, a.seconds, a.trace, a.size)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
