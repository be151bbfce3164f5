"""Brute-force cloud distances run in row blocks of bounded size.

manifold._nearest_sq_distances holds at most _PAIR_BLOCK squared distances
at once; hausdorff_distance and nonauto.disjointness_check take their
max-min and min through it.  A min or max over blocks is exact, so the
block size must not change a single bit, and the full-matrix formulas
below (the bodies the blocked loop replaced) are the oracle.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from holodyn import manifold
from holodyn.manifold import hausdorff_distance
from holodyn.nonauto import SectorSetParams, _sample_components, disjointness_check


def _sq_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, None, 0] - b[None, :, 0]) ** 2 + np.abs(a[:, None, 1] - b[None, :, 1]) ** 2


def _hausdorff_full(a: np.ndarray, b: np.ndarray) -> float:
    return max(
        float(np.sqrt(_sq_matrix(a, b).min(axis=1).max())),
        float(np.sqrt(_sq_matrix(b, a).min(axis=1).max())),
    )


def _sampled_min_full(params: SectorSetParams, samples: int, seed: int) -> float:
    pts = list(_sample_components(params, samples, seed).values())
    return min(
        float(np.sqrt(_sq_matrix(pts[i], pts[j]).min()))
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )


def _cloud(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))


PARAMS = SectorSetParams(R=2.0, epsilon=0.1, delta=0.05)


@pytest.mark.parametrize("block", [1, 3, 7, 50])
def test_block_size_keeps_every_bit(block, monkeypatch):
    rng = np.random.default_rng(11)
    a, b = _cloud(rng, 37), _cloud(rng, 23)
    want_h = hausdorff_distance(a, b)
    want_d = disjointness_check(PARAMS, samples=300, seed=4)
    assert want_h == _hausdorff_full(a, b)
    assert want_d.sampled_min == _sampled_min_full(PARAMS, 300, 4)

    monkeypatch.setattr(manifold, "_PAIR_BLOCK", block)
    got_d = disjointness_check(PARAMS, samples=300, seed=4)
    assert hausdorff_distance(a, b) == want_h
    assert hausdorff_distance(b, a) == want_h
    assert got_d.sampled_min == want_d.sampled_min
    assert (got_d.min_gap, got_d.worst_pair, got_d.disjoint) == (
        want_d.min_gap, want_d.worst_pair, want_d.disjoint
    )


def test_disjointness_check_memory_is_bounded():
    # 2,000 samples per component: the full 2000 x 2000 matrices peaked at ~154 MB
    tracemalloc.start()
    try:
        rep = disjointness_check(PARAMS, samples=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.sampled_min > 0
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
