from __future__ import annotations

import math

import numpy as np
import pytest

from holodyn.basin import orbit
from holodyn.core import AutoChain, diag_linear_chain
from holodyn.errors import AmbiguousComponent, InvalidParameter
from holodyn.nonauto import (
    SectorSetParams,
    _dist_point_slit_disc,
    _planar_component_distances,
    constant_sequence,
    demonstrator_sequence,
    demonstrator_witnesses,
    disjointness_check,
    list_sequence,
    nonauto_attracting_probe,
    nonauto_orbit,
    pointwise_vs_uniform_report,
    sector_sets_membership,
    sequence_from_dict,
)
from holodyn.parabolic import tangent_shear_chain

from conftest import bidisc_points, identity_chain, shear_x


# -- orbits -----------------------------------------------------------------


def test_identity_sequence_constant_orbit():
    seq = constant_sequence(identity_chain())
    states, ovf = nonauto_orbit(seq, (0.3, 0.4j), 6)
    assert ovf is None
    assert all(s == (0.3, 0.4j) for s in states)


def test_constant_sequence_matches_autonomous(henon075):
    seq = constant_sequence(henon075)
    states, _ = nonauto_orbit(seq, (0.3, 0.2), 12)
    rec = orbit(henon075, (0.3, 0.2), 12)
    assert len(states) == len(rec.states)
    for a, b in zip(states, rec.states):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) < 1e-15


def test_alternating_shear_cancels_every_even_step():
    fwd = AutoChain((shear_x((0.0, 0.0, 1.0)),))
    seq = list_sequence([fwd, fwd.inverted()] * 4)
    states, _ = nonauto_orbit(seq, (0.4, 0.7), 8)
    for k in range(5):
        assert abs(states[2 * k][0] - 0.4) < 1e-14
        assert abs(states[2 * k][1] - 0.7) < 1e-14


def test_orbit_overflow_recorded(henon075):
    seq = constant_sequence(henon075)
    states, ovf = nonauto_orbit(seq, (50.0, 0.0), 40)
    assert ovf is not None
    assert len(states) == ovf


# -- tangency gate ------------------------------------------------------------


def test_tangency_gate_rejects_henon(henon075):
    maps = [tangent_shear_chain(3.0), henon075]
    with pytest.raises(InvalidParameter, match="sequence member 2 does not fix 0 with identity"):
        list_sequence(maps, tangency_required=True)
    assert list_sequence(maps)(2) is henon075  # no gate, no check


def test_tangency_gate_accepts_tangent_chain():
    seq = list_sequence([tangent_shear_chain(3.0)], tangency_required=True)
    assert seq(1).is_tangent_to_identity()


def test_tangency_gate_rejects_a_sequence_file_before_any_work(henon075):
    from holodyn.core import map_to_dict

    maps = [map_to_dict(tangent_shear_chain(3.0)), map_to_dict(henon075)]
    with pytest.raises(InvalidParameter, match="sequence member 2 does not fix 0 with identity"):
        sequence_from_dict({"kind": "list", "maps": maps, "tangency_required": True})


def test_orbit_requests_every_member_before_it_overflows():
    seq = list_sequence([diag_linear_chain(1e7, 1e7)] * 2)
    # the orbit of (1e7, 0) passes DEFAULT_CAP at step 1, yet the list has no 3rd map
    with pytest.raises(InvalidParameter, match=r"sequence has 2 map\(s\), asked for map 3"):
        nonauto_orbit(seq, (1e7, 0.0), 5)
    assert nonauto_orbit(seq, (1e7, 0.0), 2)[1] == 1


# -- attracting probe ----------------------------------------------------------


def test_probe_contraction_marks_everything():
    seq = constant_sequence(diag_linear_chain(0.5, 0.5))
    marked = nonauto_attracting_probe(seq, ((-1, 1), (-1, 1)), (9, 9), 60)
    assert marked.all()


@pytest.mark.parametrize("n_max", [0, 1, 5, 20, 21])
def test_probe_counts_the_start_for_short_horizons(n_max):
    # every cell starts and stays within conv_tol, so each is marked even
    # when n_max leaves no room for 20 steps after the start
    seq = constant_sequence(diag_linear_chain(0.5, 0.5))
    marked = nonauto_attracting_probe(seq, ((-1e-4, 1e-4), (-1e-4, 1e-4)), (4, 4), n_max)
    assert marked.all()


def test_probe_shifted_henon_thin():
    seq = sequence_from_dict({"kind": "family", "name": "shifted_henon", "params": {}})
    marked = nonauto_attracting_probe(seq, ((-1, 1), (-1, 1)), (21, 21), 300)
    assert marked.sum() <= 0.02 * marked.size


def test_probe_empty_grid():
    seq = constant_sequence(identity_chain())
    marked = nonauto_attracting_probe(seq, ((-1, 1), (-1, 1)), (0, 0), 5)
    assert marked.size == 0


# -- target-set geometry --------------------------------------------------------


@pytest.fixture(scope="module")
def params():
    return SectorSetParams(R=2.0, epsilon=0.1, delta=0.005)


def test_membership_examples(params):
    assert sector_sets_membership(params, (0.0, 0.0)) == "Ball_delta"
    # -1 shifted right by eps gives -0.9 in the slit disc
    assert sector_sets_membership(params, (-1.0, 0.5)) == "KxDisc"
    assert sector_sets_membership(params, (params.epsilon + 0.1, 0.0)) == "Lx{0}"
    assert sector_sets_membership(params, (0.0, params.epsilon + 0.1)) == "{0}xL"
    assert sector_sets_membership(params, (0.0, -1.0)) == "{0}xK"
    assert sector_sets_membership(params, (5.0, 5.0)) == "Outside"


def test_membership_partition_no_ambiguity(params):
    xs, ys = bidisc_points(31, 100_000, 2.5)
    hits = 0
    for x, y in zip(xs[:100_000], ys[:100_000]):
        label = sector_sets_membership(params, (x, y))
        hits += label != "Outside"
    assert hits > 0


def test_membership_ambiguous_for_fat_ball():
    bad = SectorSetParams(R=2.0, epsilon=0.1, delta=0.5)
    with pytest.raises(AmbiguousComponent):
        sector_sets_membership(bad, (-0.3, 0.0))


def test_disjointness_exact_gap_oracle(params):
    rep = disjointness_check(params)
    assert rep.disjoint
    # nearest approach: ball to the slit disc, at distance eps sin(eps) - delta
    want = params.epsilon * math.sin(params.epsilon) - params.delta
    assert rep.min_gap == pytest.approx(want, rel=1e-9)
    assert rep.worst_pair == ("Ball_delta", "KxDisc")
    assert rep.sampled_min >= rep.min_gap - 1e-12


def _l_to_k_sampled(R: float, eps: float) -> float:
    """The segment-to-slit-disc distance as a minimum over 400 segment points."""
    return float(
        min(_dist_point_slit_disc(complex(t + eps, 0.0), R, eps) for t in np.linspace(eps, R, 400))
    )


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("R_over_eps", [1.01, 1.5, 3.0, 20.0])
def test_segment_to_slit_disc_distance_in_closed_form(eps, R_over_eps):
    R = eps * R_over_eps
    d = _planar_component_distances(SectorSetParams(R=R, epsilon=eps, delta=eps / 10))
    assert d["L_to_K"] == _l_to_k_sampled(R, eps)


def test_disjointness_fails_for_fat_ball():
    rep = disjointness_check(SectorSetParams(R=2.0, epsilon=0.1, delta=0.5))
    assert not rep.disjoint
    assert rep.min_gap < 0
    assert "Ball_delta" in rep.worst_pair


def test_degenerate_params_rejected():
    with pytest.raises(ValueError):
        SectorSetParams(R=0.1, epsilon=0.1, delta=0.01)
    with pytest.raises(ValueError):
        SectorSetParams(R=1.0, epsilon=-0.1, delta=0.01)


# -- pointwise vs uniform --------------------------------------------------------


def test_report_contraction_decays_geometrically():
    seq = constant_sequence(diag_linear_chain(0.5, 0.5))
    rep = pointwise_vs_uniform_report(seq, ((-1, 1), (-1, 1)), 12, grid=(5, 5))
    sups = [r.sup_distance for r in rep.rows]
    for a, b in zip(sups, sups[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-12)
    fracs = [r.converged_fraction for r in rep.rows]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


def test_report_zero_steps():
    seq = constant_sequence(diag_linear_chain(0.5, 0.5))
    rep = pointwise_vs_uniform_report(seq, ((-1, 1), (-1, 1)), 0, grid=(3, 3))
    assert len(rep.rows) == 1
    assert rep.rows[0].n == 0


def test_demonstrator_pointwise_not_uniform():
    n = 30
    seq = demonstrator_sequence()
    wits = demonstrator_witnesses(n)
    rep = pointwise_vs_uniform_report(
        seq, ((-1.5, 1.5), (-1.5, 1.5)), n, grid=(7, 7), witnesses=wits
    )
    for row in rep.rows[1:]:
        assert row.sup_distance >= 1.0
    fracs = [r.converged_fraction for r in rep.rows]
    assert fracs[-1] >= 0.9
    assert fracs[-1] > fracs[1]


# -- sequence definitions ---------------------------------------------------------


def test_sequence_from_list_dict(henon075):
    from holodyn.core import map_to_dict

    seq = sequence_from_dict({"kind": "list", "maps": [map_to_dict(henon075)]})
    states, _ = nonauto_orbit(seq, (0.1, 0.1), 1)
    want = henon075.evaluate((0.1, 0.1))
    assert abs(states[1][0] - want[0]) < 1e-15


@pytest.mark.parametrize(
    "name, params",
    [
        ("contraction", {"rate": "abc"}),
        ("contraction", {"rate": [0.5]}),
        ("shifted_henon", {"c": "abc"}),
        ("shifted_henon", {"seed_x": "1,4"}),
        ("shifted_henon", {"seed_y": None}),
        ("alternating_shear", {"coeffs": ["0", "abc"]}),
        ("alternating_shear", {"coeffs": 1.0}),
    ],
)
def test_sequence_bad_family_parameter(name, params):
    key = next(iter(params))
    with pytest.raises(InvalidParameter, match=f"bad family parameter {key}="):
        sequence_from_dict({"kind": "family", "name": name, "params": params})


def test_sequence_family_params_must_be_an_object():
    with pytest.raises(InvalidParameter, match="family params must be an object"):
        sequence_from_dict({"kind": "family", "name": "contraction", "params": 0.5})


def test_sequence_bad_kind():
    with pytest.raises(InvalidParameter, match="unknown sequence kind"):
        sequence_from_dict({"kind": "nope"})
    with pytest.raises(InvalidParameter, match="unknown family"):
        sequence_from_dict({"kind": "family", "name": "nope"})
