"""Brute-force cloud distances run in row blocks of bounded size.

nonauto._nearest_sq_distances runs on core._distance_blocks, one block of at
most _PAIR_BLOCK distances per coordinate at once; nonauto.disjointness_check
takes its min through it, and parabolic's survivor geometry and basin's pole
distances use the same blocks.  A min or max over blocks is exact, so the
block size must not change a single bit, and the full-matrix formulas of
conftest (the bodies the blocked loop replaced) are the oracle.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import sq_distances
from holodyn import core
from holodyn.nonauto import SectorSetParams, _nearest_sq_distances, _sample_components, disjointness_check


def _sampled_min_full(params: SectorSetParams, samples: int, seed: int) -> float:
    pts = list(_sample_components(params, samples, seed).values())
    return min(
        float(np.sqrt(sq_distances(pts[i], pts[j]).min()))
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
    want_ab, want_ba = (sq_distances(p, q).min(axis=1) for p, q in ((a, b), (b, a)))
    want_d = disjointness_check(PARAMS, samples=300, seed=4)
    assert np.array_equal(_nearest_sq_distances(a, b), want_ab)
    assert want_d.sampled_min == _sampled_min_full(PARAMS, 300, 4)

    monkeypatch.setattr(core, "_PAIR_BLOCK", block)
    got_d = disjointness_check(PARAMS, samples=300, seed=4)
    assert np.array_equal(_nearest_sq_distances(a, b), want_ab)
    assert np.array_equal(_nearest_sq_distances(b, a), want_ba)
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
