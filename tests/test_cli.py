from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from holodyn.cli import CLAIMS, build_parser, main
from holodyn.core import Classification, henon_chain, map_to_dict
from holodyn.serialize import fields, json_dumps, write_json


@pytest.fixture(scope="module")
def henon_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "henon075.json"
    write_json(path, map_to_dict(henon_chain(0.75)))
    return str(path)


def test_fixed_point_subcommand(henon_file, tmp_path, capsys):
    out = tmp_path / "fp"
    rc = main(
        ["fixed-point", "--map", henon_file, "--seed-point", "1.4,1.4", "--out", str(out)]
    )
    assert rc == 0
    assert "Saddle" in capsys.readouterr().out
    data = json.loads((out / "fixed_point.json").read_text())
    assert abs(data["location"][0][0] - 1.5) < 1e-9
    assert data["classification"] == "Saddle"
    lam = sorted(abs(complex(re, im)) for re, im in data["eigenvalues"])
    assert lam[0] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "fixed-point"
    assert manifest["inputs"]


def test_gallery_sphere_value(tmp_path, capsys):
    rc = main(["gallery", "--example", "sphere", "--z", "0.5", "--m", "3", "--out", str(tmp_path / "g")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.2"


def test_density_depth_zero_matches_graph_cells(henon_file, tmp_path):
    out = tmp_path / "d"
    rc = main(
        [
            "density", "--map", henon_file, "--seed-point", "1.4,1.4",
            "--depth", "0", "--cells", "10", "--out", str(out),
        ]
    )
    assert rc == 0
    data = json.loads((out / "density.json").read_text())
    # depth 0: occupancy equals the distinct cells hit by the graph samples
    from holodyn.core import find_fixed_point
    from holodyn.manifold import local_stable_graph, occupied_cells

    ch = henon_chain(0.75)
    fp = find_fixed_point(ch, (1.4, 1.4))
    g = local_stable_graph(ch, fp, 0.1)
    cells = occupied_cells(g.sample_points(), (-2.0, 2.0), 10)
    assert data["occupied"] == len(cells)
    assert data["fraction"] == pytest.approx(len(cells) / 10**4)


def test_exit_code_domain_error(henon_file, tmp_path, capsys):
    rc = main(
        [
            "stable-graph", "--map", henon_file, "--seed-point", "0.4,0.4",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert "NotASaddle" in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, capsys):
    rc = main(["fixed-point", "--map", str(tmp_path / "missing.json"), "--out", str(tmp_path / "y")])
    assert rc == 2


def test_report_lists_every_subcommand(tmp_path, capsys):
    rc = main(["report", "--list", "--out", str(tmp_path / "r")])
    assert rc == 0
    text = capsys.readouterr().out
    for name, claim in CLAIMS.items():
        assert name in text
        assert claim
    data = json.loads((tmp_path / "r" / "report.json").read_text())
    assert set(data["subcommands"]) == set(CLAIMS)


def test_parabolic_graph_report_schema(tmp_path):
    out = tmp_path / "pg"
    rc = main(
        [
            "parabolic-graph", "--c", "0", "--x-mesh", "-0.01",
            "--resolution", "1e-6", "--expansion-trials", "2000", "--out", str(out),
        ]
    )
    assert rc == 0
    data = json.loads((out / "parabolic.json").read_text())
    assert set(data) == {"c", "epsilon", "directions", "graph", "expansion"}
    assert data["expansion"]["violations"] == 0
    assert len(data["graph"]) == 1
    u = complex(*data["graph"][0]["u"])
    assert abs(u) <= data["graph"][0]["radius"]


def test_nonauto_report_csv(tmp_path):
    seq_file = tmp_path / "seq.json"
    write_json(seq_file, {"kind": "family", "name": "contraction", "params": {"rate": 0.5}})
    out = tmp_path / "na"
    rc = main(
        [
            "nonauto-run", "--sequence", str(seq_file), "--mode", "report",
            "--n", "8", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "pointwise.csv").read_text().strip().splitlines()
    assert lines[0] == "n,sup_distance,converged_fraction"
    assert len(lines) == 10


def test_determinism_across_thread_counts(henon_file, tmp_path):
    payloads = {}
    for t in ("1", "4"):
        out = tmp_path / f"det{t}"
        rc = main(
            [
                "interior", "--map", henon_file, "--seed-point", "1.4,1.4",
                "--samples", "5000", "--max-iter", "100", "--threads", t,
                "--out", str(out),
            ]
        )
        assert rc == 0
        payloads[t] = (out / "interior.json").read_bytes()
    assert payloads["1"] == payloads["4"]


def test_determinism_ppm_and_csv(henon_file, tmp_path):
    ppm = {}
    csvs = {}
    for t in ("1", "4"):
        out = tmp_path / f"bs{t}"
        rc = main(
            [
                "bounded-set", "--map", henon_file, "--grid", "16,16",
                "--max-iter", "60", "--threads", t, "--out", str(out),
            ]
        )
        assert rc == 0
        ppm[t] = (out / "bounded.ppm").read_bytes()
        out2 = tmp_path / f"pb{t}"
        rc = main(
            [
                "pullback", "--map", henon_file, "--seed-point", "1.4,1.4",
                "--depth", "2", "--threads", t, "--out", str(out2),
            ]
        )
        assert rc == 0
        csvs[t] = (out2 / "cloud.csv").read_bytes()
    assert ppm["1"] == ppm["4"]
    assert csvs["1"] == csvs["4"]
    assert ppm["1"].startswith(b"P6\n16 16\n255\n")


def test_cloud_csv_header_and_order(henon_file, tmp_path):
    out = tmp_path / "pb"
    rc = main(
        [
            "pullback", "--map", henon_file, "--seed-point", "1.4,1.4",
            "--depth", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "cloud.csv").read_text().splitlines()
    assert lines[0] == "re_x,im_x,re_y,im_y"
    # depth 0 rows are the graph samples in mesh order: first row is the center
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(1.5, abs=1e-9)


def test_sector_sets_membership_flag(tmp_path, capsys):
    out = tmp_path / "ss"
    rc = main(
        [
            "sector-sets", "--R", "2", "--epsilon", "0.1", "--delta", "0.005",
            "--z=-1,0.5", "--out", str(out),
        ]
    )
    assert rc == 0
    data = json.loads((out / "sector_sets.json").read_text())
    assert data["membership"] == "KxDisc"
    assert data["disjoint"] is True


@dataclass
class _Inner:
    z: complex
    kind: Classification


@dataclass
class _Outer:
    b: int
    a: _Inner
    rows: list


def test_dataclass_and_enum_rendering():
    rows = [_Inner(2j, Classification.ATTRACTING)]
    obj = _Outer(b=1, a=_Inner(1 - 0.5j, Classification.SADDLE), rows=rows)
    assert json_dumps(obj) == (
        '{"b": 1, "a": {"z": [1, -0.5], "kind": "Saddle"},'
        ' "rows": [{"z": [0, 2], "kind": "Attracting"}]}'
    )
    assert list(fields(obj)) == ["b", "a", "rows"]
    assert fields(obj, "rows", "b") == {"rows": rows, "b": 1}
    with pytest.raises(TypeError):
        json_dumps(_Inner)


# -- CLI surface -----------------------------------------------------------------

MAPS = Path(__file__).resolve().parents[1] / "maps"
REQUIRED = "<required>"

_COMMON = {
    "--out": "out", "--seed": 0, "--threads": 1, "--tol": 1e-12, "--epsilon": 0.02,
    "--delta": 0.1,
}
_MAPPED = {"--map": REQUIRED, **_COMMON}
_MAP_OR_C = {"--map": None, **_COMMON}
_SADDLE = {
    **_MAPPED, "--seed-point": None, "--mesh": "10,16", "--graph-tol": 1e-9,
    "--auto-shrink": False,
}

# Every option each subcommand accepts, with its default, written out by hand so
# that an edit to the subcommand registry cannot drop or change one unnoticed;
# subcommands in `report` order.
OPTIONS = {
    "fixed-point": _SADDLE,
    "stable-graph": _SADDLE,
    "pullback": {**_SADDLE, "--depth": 4, "--cumulative": False},
    "density": {
        **_SADDLE, "--depth": 4, "--cells": 10, "--box-min": -2.0, "--box-max": 2.0,
        "--plane": "re_x,re_y",
    },
    # --mesh is accepted but not used by stability
    "stability": {**_SADDLE, "--t-values": "1e-2,1e-3,1e-4", "--pullback-depth": 3},
    "char-dirs": {**_MAP_OR_C, "--c": 3.0},
    "normalize": {**_MAP_OR_C, "--c": 3.0},
    "parabolic-graph": {
        **_MAP_OR_C, "--c": 0.0, "--x-mesh": "-0.01", "--resolution": 1e-6,
        "--expansion-trials": 0,
    },
    "expansion-check": {**_MAP_OR_C, "--c": 0.0, "--trials": 10000},
    "dichotomy": {**_SADDLE, "--r": 0.5, "--m-max": 50, "--samples": 512},
    "interior": {
        **_SADDLE, "--radius": 2.0, "--samples": 100000, "--max-iter": 500, "--conv-tol": 1e-3,
    },
    "bounded-set": {
        **_MAPPED, "--box-min": -2.0, "--box-max": 2.0, "--grid": "64,64", "--max-iter": 200,
    },
    "gallery": {
        **_COMMON, "--example": REQUIRED, "--z": "0.5", "--m": 3,
        "--theta": 3.141592653589793,
    },
    "nonauto-run": {
        **_COMMON, "--sequence": REQUIRED, "--mode": "orbit", "--z": "0,0", "--n": 30,
        "--conv-tol": 1e-3, "--box-min": -1.0, "--box-max": 1.0, "--grid": "21,21",
        "--with-witnesses": False,
    },
    "sector-sets": {
        **_COMMON, "--R": 2.0, "--rho": 0.01, "--z": None, "--check-samples": 2000,
    },
    "report": {**_COMMON, "--list": False},
}


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_accepts_exactly_the_known_options():
    surface = {
        name: {
            opt: REQUIRED if action.required else action.default
            for action in sub._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        for name, sub in _subparsers(build_parser()).items()
    }
    assert list(surface) == list(OPTIONS)
    assert surface == OPTIONS
    assert list(CLAIMS) == list(OPTIONS)


# (argv, artifact, top-level JSON keys in order or CSV header)
_KEY_CASES = {
    "normalize-c": (
        ["normalize", "--c", "3"], "normalize.json", ["p", "q", "c", "b_was_zero", "conjugation"],
    ),
    "normalize-map": (
        ["normalize", "--map", str(MAPS / "tangent_c3_jet.json")],
        "normalize.json", ["p", "q", "c", "b_was_zero", "conjugation"],
    ),
    "char-dirs-c": (["char-dirs", "--c", "3"], "directions.json", ["p", "q", "directions"]),
    "char-dirs-map": (
        ["char-dirs", "--map", str(MAPS / "tangent_c3_jet.json")],
        "directions.json", ["p", "q", "directions"],
    ),
    "expansion-check": (
        ["expansion-check", "--trials", "500"], "expansion.json",
        ["epsilon", "trials", "violations", "min_margin", "regime_ok"],
    ),
    "dichotomy": (
        ["dichotomy", "--map", str(MAPS / "henon075.json"), "--m-max", "8", "--samples", "32"],
        "dichotomy.json", ["r", "m_max", "largest_witnessed_m", "cutoff_m0"],
    ),
    "dichotomy-csv": (
        ["dichotomy", "--map", str(MAPS / "henon075.json"), "--m-max", "8", "--samples", "32"],
        "witnesses.csv", "m,re_x,im_x,re_y,im_y",
    ),
    "stable-graph-auto-shrink": (
        ["stable-graph", "--map", str(MAPS / "henon075.json"), "--mesh", "4,8", "--auto-shrink"],
        "graph.json",
        ["fixed_point", "delta", "epsilon", "mesh", "iterations", "residual", "samples"],
    ),
    "gallery-psi": (["gallery", "--example", "psi"], "gallery.json", ["example", "value"]),
    "gallery-planar": (["gallery", "--example", "planar"], "gallery.json", ["example", "value"]),
    "gallery-nonuniformity": (
        ["gallery", "--example", "nonuniformity"], "gallery.json", ["example", "witnesses"],
    ),
    "gallery-nonuniformity-csv": (
        ["gallery", "--example", "nonuniformity"], "witnesses.csv", "m,theta,dist",
    ),
    "nonauto-orbit": (
        ["nonauto-run", "--sequence", str(MAPS / "seq_planar_demo.json"), "--mode", "orbit",
         "--n", "5"],
        "orbit.csv", "n,re_x,im_x,re_y,im_y",
    ),
    "nonauto-probe": (
        ["nonauto-run", "--sequence", str(MAPS / "seq_planar_demo.json"), "--mode", "probe",
         "--n", "25", "--grid", "5,5"],
        "nonauto.json", ["marked", "total"],
    ),
}


@pytest.mark.parametrize("case", sorted(_KEY_CASES))
def test_artifact_key_order(case, tmp_path):
    argv, artifact, expected = _KEY_CASES[case]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 0
    text = (out / artifact).read_text()
    if artifact.endswith(".csv"):
        assert text.splitlines()[0] == expected
    else:
        assert list(json.loads(text)) == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["subcommand", "inputs", "seed", "params", "artifacts", "wall_time_s"]
    dests = {opt.lstrip("-").replace("-", "_") for opt in OPTIONS[argv[0]]}
    assert set(manifest["params"]) == dests | {"subcommand"}


def test_nested_report_key_order(henon_file, tmp_path):
    out = tmp_path / "sg"
    assert main(["stable-graph", "--map", henon_file, "--mesh", "4,8", "--out", str(out)]) == 0
    fp = json.loads((out / "graph.json").read_text())["fixed_point"]
    assert list(fp) == [
        "location", "eigenvalues", "classification", "stable_dim", "residual", "iterations",
        "stable_direction", "unstable_direction",
    ]
    out = tmp_path / "cd"
    assert main(["char-dirs", "--c", "3", "--out", str(out)]) == 0
    dirs = json.loads((out / "directions.json").read_text())["directions"]
    assert [list(d) for d in dirs] == [["v", "lambda", "degenerate", "chart"]] * len(dirs)
