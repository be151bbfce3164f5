"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the holodyn layers and the chain
evaluation methods by replacing module and class attributes; nothing under
src/ changes.  Each wrapped call records one span (id, name, parent, start,
end) in memory.  Counters derived from arguments and results are taken after
the call returns and recorded as a "trace" child span of the caller, so the
time the recorder spends counting is excluded from every layer's self time
and shows only in the overhead.
"""
from __future__ import annotations

import csv
import functools
import inspect
import itertools
import math
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("core", "manifold", "parabolic", "basin", "nonauto", "cli", "serialize")

# format_float renders one CSV cell and runs ~10^5 times per saddle pass; a
# span per cell would make the recorder, not the writer, the serialize cost.
SKIP = {"serialize.format_float"}

# The sector W_eps of the README, at the epsilon every workload uses.
SECTOR_EPS = 0.02


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_apply(c, args, kwargs, out):
    c["core.apply.points"] += np.size(args[1])


def _count_evaluate_batch(c, args, kwargs, out):
    c["core.evaluate_batch.points"] += np.size(out[2])
    c["core.evaluate_batch.ok"] += int(np.count_nonzero(out[2]))


def _count_differential_batch(c, args, kwargs, out):
    c["core.differential_batch.points"] += np.size(out[0])


def _count_fixed_point(c, args, kwargs, out):
    c["core.find_fixed_point.iterations"] += out.iterations


def _count_graph_point(c, args, kwargs, out):
    c["parabolic.graph_point.levels"] += out.levels
    c["parabolic.graph_point.final_horizon"] += out.final_horizon


def _count_blowup_batch(c, args, kwargs, out):
    # max(|x|, |arg(x) - pi|) < eps and 2|u| < |x|, in real arithmetic:
    # |arg(-x)| < eps  <=>  |Im x| < tan(eps) * (-Re x)
    xs = np.asarray(_arg(args, kwargs, 1, "xs"))
    us = np.asarray(_arg(args, kwargs, 2, "us"))
    xr, xi = xs.real, xs.imag
    ax2 = xr * xr + xi * xi
    inside = (
        (ax2 < SECTOR_EPS**2)
        & (np.abs(xi) < -math.tan(SECTOR_EPS) * xr)
        & (4 * (us.real * us.real + us.imag * us.imag) < ax2)
    )
    c["parabolic.blowup_batch.points"] += xs.size
    c["parabolic.blowup_batch.live"] += int(np.count_nonzero(inside))


def _count_expansion(c, args, kwargs, out):
    c["parabolic.expansion_check.trials"] += out.trials


def _count_orbit_verdicts(c, args, kwargs, out):
    max_iter = _arg(args, kwargs, 3, "max_iter")
    steps = np.where(out[1] < 0, max_iter, out[1])
    c["basin.orbit_verdicts.points"] += steps.size
    if steps.size:
        # the loop sweeps the whole array until its last point is decided
        c["basin.orbit_verdicts.point_steps"] += int(steps.sum())
        c["basin.orbit_verdicts.swept"] += steps.size * int(steps.max())


def _count_planar(c, args, kwargs, out):
    c["basin.planar_homeo.points"] += np.size(out)


def _count_local_graph(c, args, kwargs, out):
    c["manifold.local_stable_graph.iterations"] += out.iterations


def _count_pullback(c, args, kwargs, out):
    c["manifold.pullback_cloud.points"] += len(out.points)
    c["manifold.pullback_cloud.dropped"] += out.dropped


def _count_occupied(c, args, kwargs, out):
    c["manifold.occupied_cells.points"] += len(_arg(args, kwargs, 0, "points"))


def _count_hausdorff(c, args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    c["manifold.hausdorff_distance.pairs"] += 2 * len(a) * len(b)


def _count_write(c, args, kwargs, out):
    path = Path(_arg(args, kwargs, 0, "path"))
    if path.name != "manifest.json":  # its wall-time field changes length
        c["serialize.write.bytes"] += path.stat().st_size


COUNTERS = {
    "core.apply": _count_apply,
    "core.evaluate_batch": _count_evaluate_batch,
    "core.differential_batch": _count_differential_batch,
    "core.find_fixed_point": _count_fixed_point,
    "parabolic.graph_point": _count_graph_point,
    "parabolic.blowup_batch": _count_blowup_batch,
    "parabolic.expansion_check": _count_expansion,
    "basin.orbit_verdicts": _count_orbit_verdicts,
    "basin.planar_homeo": _count_planar,
    "manifold.local_stable_graph": _count_local_graph,
    "manifold.pullback_cloud": _count_pullback,
    "manifold.occupied_cells": _count_occupied,
    "manifold.hausdorff_distance": _count_hausdorff,
    "serialize.write": _count_write,
}


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn):
        rec = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            st = rec._stack()
            # pool worker threads start with an empty stack: their calls
            # belong to the span open in the thread that submitted them
            parent = st[-1] if st else (rec._owner_stack[-1] if rec._owner_stack else 0)
            sid = next(rec._ids)
            st.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                rec.spans.append((sid, name, parent, t0, t1))
            if count is not None:
                with rec._count_lock:  # pool threads count concurrently
                    count(rec.counters, args, kwargs, out)
                rec.spans.append((next(rec._ids), "trace", parent, t1, perf_counter()))
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch the loaded holodyn modules; call uninstall() to undo."""
        self._owner_stack = self._stack()
        core = sys.modules["holodyn.core"]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"holodyn.{layer}"]
            for attr, val in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                if val.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in SKIP:
                    continue
                if layer == "serialize" and attr.startswith("write_"):
                    name = "serialize.write"
                wrappers[val] = self.wrap(name, val)
        # functions imported by name elsewhere (cli's write_json, nonauto's
        # planar_homeo, ...) are replaced wherever they are bound
        for modname, mod in list(sys.modules.items()):
            if modname != "holodyn" and not modname.startswith("holodyn."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for cls, meth in (
            (core._ChainOps, "apply"),
            (core._ChainOps, "differential_batch"),
            (core.AutoChain, "evaluate_batch"),
            (core.AutoChain, "inverse_batch"),
        ):
            self._patch(cls, meth, self.wrap(f"core.{meth}", cls.__dict__[meth]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "parent", "start", "end"])
            w.writerows(self.spans)


def self_times(spans) -> dict[str, float]:
    """Per-name sum of span duration minus the union of its children."""
    kids = defaultdict(list)
    for sid, _name, parent, t0, t1 in spans:
        kids[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, name, _parent, t0, t1 in spans:
        covered = 0.0
        if sid in kids:
            end = t0
            for a, b in sorted(kids[sid]):
                a, b = max(a, end), min(b, t1)
                if b > a:
                    covered += b - a
                    end = b
        out[name] += (t1 - t0) - covered
    return out


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for _sid, name, _parent, _t0, _t1 in spans:
        out[name] += 1
    return out
