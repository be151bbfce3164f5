from __future__ import annotations

import argparse
import json
import math
import shlex
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from holodyn.cli import CLAIMS, SUBCOMMANDS, Run, build_parser, main
from holodyn.core import Classification, henon_chain, map_to_dict
from holodyn import nonauto
from holodyn.parabolic import tangent_shear_chain
from holodyn.serialize import fields, json_dumps, write_csv, write_json

from conftest import sample_points


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
    cells = occupied_cells(sample_points(g), (-2.0, 2.0), 10)
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


def test_nonauto_report_reads_grid(tmp_path):
    payload = {"kind": "family", "name": "contraction", "params": {"rate": 0.5}}
    seq_file = tmp_path / "seq.json"
    write_json(seq_file, payload)
    out = tmp_path / "na"
    argv = ["nonauto-run", "--sequence", str(seq_file), "--mode", "report", "--n", "8"]
    assert main([*argv, "--grid", "5,5", "--out", str(out)]) == 0
    seq = nonauto.sequence_from_dict(payload)
    rep = nonauto.pointwise_vs_uniform_report(seq, ((-1.0, 1.0), (-1.0, 1.0)), 8, grid=(5, 5))
    want = tmp_path / "want.csv"
    names = ["n", "sup_distance", "converged_fraction"]
    write_csv(want, names, [[getattr(r, f) for r in rep.rows] for f in names])
    assert (out / "pointwise.csv").read_text() == want.read_text()


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


def test_parser_keeps_no_state_between_runs(henon_file, tmp_path):
    # build_parser is built once per process; a value parsed in one run must
    # not become the default of the next
    assert build_parser() is build_parser()
    base = ["pullback", "--map", henon_file, "--seed-point", "1.4,1.4", "--mesh", "4,8"]
    assert main([*base, "--depth", "3", "--out", str(tmp_path / "d3")]) == 0
    assert main([*base, "--out", str(tmp_path / "d4")]) == 0
    for name, depth in (("d3", 3), ("d4", 4)):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["params"]["depth"] == depth
        assert json.loads((tmp_path / name / "cloud.json").read_text())["depth"] == depth


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


def test_sector_sets_defaults_give_disjoint_components(tmp_path, capsys):
    out = tmp_path / "ss"
    assert main(["sector-sets", "--z", "0.1,0", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "disjoint, min gap 0.00498\n"
    assert json.loads((out / "sector_sets.json").read_text())["membership"] == "Lx{0}"


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

ROOT = Path(__file__).resolve().parents[1]
MAPS = ROOT / "maps"
REQUIRED = "<required>"

HENON = str(MAPS / "henon075.json")
SEQUENCE = str(MAPS / "seq_planar_demo.json")

_OUT = {"--out": "out"}
_NEWTON = {"--map": REQUIRED, "--seed-point": None, "--tol": 1e-12}
_GRAPH = {**_NEWTON, "--delta": 0.1, "--mesh": "10,16", "--graph-tol": 1e-9, "--auto-shrink": False}
_TANGENT = {"--map": None}
_RANDOM = {"--epsilon": 0.02, "--seed": 0}

# Every option each subcommand accepts, with its default, written out by hand so
# that an edit to the subcommand registry cannot drop or change one unnoticed;
# subcommands in `report` order.
OPTIONS = {
    "fixed-point": {**_NEWTON, **_OUT},
    "stable-graph": {**_GRAPH, **_OUT},
    "pullback": {**_GRAPH, "--depth": 4, "--cumulative": False, "--threads": 1, **_OUT},
    "density": {
        **_GRAPH, "--depth": 4, "--cells": 10, "--box-min": -2.0, "--box-max": 2.0,
        "--plane": "re_x,re_y", **_OUT,
    },
    "stability": {
        **_NEWTON, "--delta": 0.1, "--mesh": "10,16", "--graph-tol": 1e-9,
        "--t-values": "1e-2,1e-3,1e-4", "--pullback-depth": 3, **_OUT,
    },
    "char-dirs": {**_TANGENT, "--c": 3.0, **_OUT},
    "normalize": {**_TANGENT, "--c": 3.0, **_OUT},
    "parabolic-graph": {
        **_TANGENT, "--c": 0.0, "--x-mesh": "-0.01", "--resolution": 1e-6,
        "--expansion-trials": 0, **_RANDOM, **_OUT,
    },
    "expansion-check": {**_TANGENT, "--c": 0.0, "--trials": 10000, **_RANDOM, **_OUT},
    "dichotomy": {**_NEWTON, "--r": 0.5, "--m-max": 50, "--samples": 512, "--seed": 0, **_OUT},
    "interior": {
        **_NEWTON, "--radius": 2.0, "--samples": 100000, "--max-iter": 500, "--conv-tol": 1e-3,
        "--seed": 0, "--threads": 1, **_OUT,
    },
    "bounded-set": {
        "--map": REQUIRED, "--box-min": -2.0, "--box-max": 2.0, "--grid": "64,64",
        "--max-iter": 200, "--threads": 1, **_OUT,
    },
    "gallery": {
        "--example": REQUIRED, "--z": "0.5", "--m": 3, "--theta": 3.141592653589793, **_OUT,
    },
    "nonauto-run": {
        "--sequence": REQUIRED, "--mode": "orbit", "--z": "0,0", "--n": 30,
        "--conv-tol": 1e-3, "--box-min": -1.0, "--box-max": 1.0, "--grid": "21,21",
        "--with-witnesses": False, **_OUT,
    },
    "sector-sets": {
        "--R": 2.0, "--epsilon": 0.1, "--delta": 0.005, "--z": None, "--check-samples": 2000,
        "--seed": 0, **_OUT,
    },
    "report": {"--list": False, **_OUT},
}
# Options accepted although the handler never reads them, kept for existing callers:
# acceptance criterion 12 passes --threads to pullback, and the saddle benchmark
# passes --mesh to stability (which graphs on its own default mesh).
KEPT_UNREAD = {("pullback", "--threads"), ("stability", "--mesh")}


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
        ["dichotomy", "--map", HENON, "--m-max", "8", "--samples", "32"],
        "dichotomy.json", ["r", "m_max", "largest_witnessed_m", "cutoff_m0"],
    ),
    "dichotomy-csv": (
        ["dichotomy", "--map", HENON, "--m-max", "8", "--samples", "32"],
        "witnesses.csv", "m,re_x,im_x,re_y,im_y",
    ),
    "stable-graph-auto-shrink": (
        ["stable-graph", "--map", HENON, "--mesh", "4,8", "--auto-shrink"],
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
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "orbit",
         "--n", "5"],
        "orbit.csv", "n,re_x,im_x,re_y,im_y",
    ),
    "nonauto-probe": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe",
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
    assert manifest["seed"] == (0 if "--seed" in OPTIONS[argv[0]] else None)


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


def _choices(name: str, flag: str) -> list[str]:
    sub = _subparsers(build_parser())[name]
    return next(a for a in sub._actions if flag in a.option_strings).choices


# Small runs that together reach every branch that reads an option.
_READ_RUNS = {
    "fixed-point": [["--map", HENON]],
    "stable-graph": [["--map", HENON, "--mesh", "4,8"]],
    "pullback": [["--map", HENON, "--mesh", "4,8", "--depth", "1"]],
    "density": [["--map", HENON, "--mesh", "4,8", "--depth", "1", "--cells", "4"]],
    "stability": [["--map", HENON, "--t-values", "1e-2", "--pullback-depth", "0"]],
    "char-dirs": [[]],
    "normalize": [[]],
    "parabolic-graph": [["--resolution", "1e-3", "--expansion-trials", "100"]],
    "expansion-check": [["--trials", "100"]],
    "dichotomy": [["--map", HENON, "--m-max", "4", "--samples", "16"]],
    "interior": [["--map", HENON, "--samples", "100", "--max-iter", "10"]],
    "bounded-set": [["--map", HENON, "--grid", "4,4", "--max-iter", "10"]],
    "gallery": [["--example", ex] for ex in _choices("gallery", "--example")],
    "nonauto-run": [
        ["--sequence", SEQUENCE, "--mode", mode, "--n", "4", "--grid", "3,3"]
        for mode in _choices("nonauto-run", "--mode")
    ],
    "sector-sets": [["--check-samples", "100"]],
    "report": [[]],
}


def _options_read(name: str, argv: list[str], out: Path) -> tuple[set[str], set[str]]:
    """(options parsed, options the handler read) for one run of `name`."""
    reads: set[str] = set()

    class Recorder(argparse.Namespace):
        recording = False

        def __getattribute__(self, attr):
            if type(self).recording:
                reads.add(attr)
            return super().__getattribute__(attr)

    parser = build_parser()
    sub = _subparsers(parser)[name]
    ns = parser.parse_args([name, *argv, "--out", str(out)], namespace=Recorder())
    handler = SUBCOMMANDS[name].handler
    Recorder.recording = True
    try:
        assert handler(Run(ns)) == 0
    finally:
        Recorder.recording = False
    options = {a.dest: a.option_strings[0] for a in sub._actions if a.dest != "help"}
    return set(options.values()), {options[d] for d in reads if d in options}


def test_every_accepted_option_is_read(tmp_path):
    assert set(_READ_RUNS) == set(SUBCOMMANDS)
    unread = set()
    for name, runs in _READ_RUNS.items():
        parsed, read = set(), set()
        for k, argv in enumerate(runs):
            p, r = _options_read(name, argv, tmp_path / f"{name}{k}")
            parsed |= p
            read |= r
        unread |= {(name, opt) for opt in parsed - read}
    assert unread == KEPT_UNREAD


BAD_VALUE = "bad value"
_DENSITY = ["density", "--map", HENON, "--seed-point", "1.4,1.4"]


def _one_map_list(tmp_path) -> str:
    """A list sequence file holding the Henon map once."""
    path = tmp_path / "one_map.json"
    path.write_text(json.dumps({"kind": "list", "maps": [json.loads(Path(HENON).read_text())]}))
    return str(path)


def _json_file(name: str, payload: dict):
    """A function of tmp_path that writes payload there as JSON (NaN as NaN)."""

    def write(tmp_path) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


_NAN = float("nan")
_NAN_SHEAR = {"steps": [{"kind": "shear_y", "coeffs": [[0.0, 0.0], [0.0, 0.0], [_NAN, 0.0]]}]}
_NAN_MAP = _json_file("nan_shear.json", _NAN_SHEAR)
_NAN_JET = _json_file(
    "nan_jet.json", {"steps": [{"kind": "quadratic_jet", "p": [1.0, 2.0, _NAN], "q": [0, -2, -1]}]}
)
_NAN_LIST = _json_file("nan_list.json", {"kind": "list", "maps": [_NAN_SHEAR]})
_BIG_INT_MAP = _json_file(
    "big_int.json", {"steps": [{"kind": "shear_y", "coeffs": [0, 0, 10**400]}]}
)
_BIG_INT_RATE = _json_file(
    "big_int_rate.json", {"kind": "family", "name": "contraction", "params": {"rate": 10**400}}
)
_NAN_RATE = _json_file(
    "nan_rate.json", {"kind": "family", "name": "contraction", "params": {"rate": _NAN}}
)
_HENON_DICT = json.loads(Path(HENON).read_text())
# the second member is not tangent to the identity, and a run of one step never asks for it
_TANGENT_THEN_HENON = _json_file(
    "tangent_then_henon.json",
    {
        "kind": "list",
        "maps": [map_to_dict(tangent_shear_chain(3.0)), _HENON_DICT],
        "tangency_required": True,
    },
)
_TWO_HENON = _json_file("two_henon.json", {"kind": "list", "maps": [_HENON_DICT] * 2})
_STEPS_NOT_LIST = _json_file("steps_not_list.json", {"steps": 5})
_STEP_NOT_OBJECT = _json_file("step_not_object.json", {"steps": [5]})
_MAPS_NOT_LIST = _json_file("maps_not_list.json", {"kind": "list", "maps": 5})
_LIST_STEP_NOT_OBJECT = _json_file(
    "list_step_not_object.json", {"kind": "list", "maps": [{"steps": [5]}]}
)
# 0.1 * 3 - 0.30000000000000004 is 0 in doubles, but not exactly
_SHEAR_W_V_NOT_ZERO = _json_file(
    "shear_w_v.json",
    {"steps": [
        {"kind": "shear", "coeffs": [0, 0, 1], "v": [3, 1], "w": [0.1, -0.30000000000000004]},
    ]},
)
STEPS_LIST = "map definition must be an object with a 'steps' list"
STEP_OBJECT = "malformed step 5"
TANGENCY = "sequence member 2 does not fix 0 with identity differential"
FINITE = "expected a finite number"
P2_FINITE = "P2 coefficients must be finite"
GALLERY_FINITE = "--z and --theta must be finite"
T_VALUES = "t_values must be nonempty and finite"
EPS_FINITE = "epsilon must be positive and finite"

# an argv entry that is a function of tmp_path writes the file it names
_CONFIG_ERRORS = {
    "bounded-set-grid-one": (["bounded-set", "--map", HENON, "--grid", "64"], BAD_VALUE),
    "bounded-set-grid-words": (["bounded-set", "--map", HENON, "--grid", "a,b"], BAD_VALUE),
    "nonauto-grid-one": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--grid", "64"], BAD_VALUE,
    ),
    "nonauto-grid-words": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--grid", "a,b"], BAD_VALUE,
    ),
    "mesh-one": (["stable-graph", "--map", HENON, "--mesh", "10"], BAD_VALUE),
    "x-mesh": (["parabolic-graph", "--x-mesh=abc"], BAD_VALUE),
    "t-values": (["stability", "--map", HENON, "--t-values", "x"], BAD_VALUE),
    "gallery-sphere-z": (["gallery", "--example", "sphere", "--z", "abc"], BAD_VALUE),
    "gallery-planar-z": (["gallery", "--example", "planar", "--z", "abc"], BAD_VALUE),
    "seed-point": (["fixed-point", "--map", HENON, "--seed-point", "1.4"], BAD_VALUE),
    # parameters outside their domain (InvalidParameter)
    "x-mesh-outside-sector": (["parabolic-graph", "--x-mesh=-0.02"], "x must satisfy"),
    "sector-sets-epsilon": (["sector-sets", "--epsilon=-0.1"], "delta, epsilon must be positive"),
    "pullback-depth": (
        ["pullback", "--map", HENON, "--seed-point", "1.4,1.4", "--depth", "-1"],
        "depth must be >= 0",
    ),
    "density-depth": ([*_DENSITY, "--depth", "-1"], "depths must be"),
    "density-cells": ([*_DENSITY, "--cells", "0"], "cells_per_axis must be positive"),
    # 60000**4 flat cell ids pass the intp range
    "density-cells-past-intp": (
        [*_DENSITY, "--depth", "0", "--cells", "60000"], "cells_per_axis**4 must fit in intp",
    ),
    "density-box-empty": ([*_DENSITY, "--box-min", "1", "--box-max", "1"], "box needs lo < hi"),
    "density-box-reversed": ([*_DENSITY, "--box-min", "2", "--box-max", "-2"], "box needs lo < hi"),
    "bounded-set-grid-negative": (["bounded-set", "--map", HENON, "--grid=-1,4"], "grid counts"),
    "nonauto-probe-grid-negative": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--grid=4,-1"], "grid counts",
    ),
    "nonauto-report-grid-empty": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "report", "--grid=0,3"],
        "the report needs at least one grid cell or witness",
    ),
    # a negative step count would give a verdict from zero steps
    "bounded-set-max-iter-negative": (
        ["bounded-set", "--map", HENON, "--max-iter=-1", "--grid", "4,4"], "step count must be >= 0",
    ),
    "nonauto-probe-n-negative": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--n=-1", "--grid", "4,4"],
        "step count must be >= 0",
    ),
    "nonauto-report-n-negative": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "report", "--n=-3"],
        "n_max must be >= 0",
    ),
    "dichotomy-m-max-negative": (
        ["dichotomy", "--map", HENON, "--seed-point", "1.4,1.4", "--m-max=-2"],
        "step count must be >= 0",
    ),
    # the pool needs at least the calling thread
    "interior-threads-zero": (
        ["interior", "--map", HENON, "--seed-point", "1.4,1.4", "--threads", "0", "--samples", "64"],
        "threads must be >= 1",
    ),
    "bounded-set-threads-negative": (
        ["bounded-set", "--map", HENON, "--threads=-1", "--grid", "4,4"], "threads must be >= 1",
    ),
    "interior-max-iter-negative": (
        ["interior", "--map", HENON, "--seed-point", "1.4,1.4", "--max-iter=-1", "--samples", "64"],
        "step count must be >= 0",
    ),
    # no pairs is no evidence: min_margin would be inf and regime_ok true
    "expansion-check-trials-zero": (["expansion-check", "--trials", "0"], "trials must be >= 1"),
    "parabolic-graph-expansion-trials-negative": (
        ["parabolic-graph", "--resolution", "1e-3", "--expansion-trials=-5"],
        "trials must be >= 1",
    ),
    # a search that cannot end, or has nothing to search
    "parabolic-graph-resolution-negative": (
        ["parabolic-graph", "--resolution=-1"], "resolution must be positive",
    ),
    "parabolic-graph-resolution-zero": (
        ["parabolic-graph", "--resolution", "0"], "resolution must be positive",
    ),
    "parabolic-graph-resolution-nan": (
        ["parabolic-graph", "--resolution", "nan"], "resolution must be positive",
    ),
    "expansion-check-epsilon-negative": (
        ["expansion-check", "--epsilon=-0.1"], "epsilon must be positive",
    ),
    "dichotomy-samples-negative": (
        ["dichotomy", "--map", HENON, "--seed-point", "1.4,1.4", "--samples=-5"],
        "samples must be >= 0",
    ),
    "stable-graph-mesh-no-ring": (
        ["stable-graph", "--map", HENON, "--seed-point", "1.4,1.4", "--mesh=0,16"], "mesh needs",
    ),
    "stable-graph-mesh-no-angle": (
        ["stable-graph", "--map", HENON, "--seed-point", "1.4,1.4", "--mesh=1,0"], "mesh needs",
    ),
    "pullback-mesh-negative": (
        ["pullback", "--map", HENON, "--seed-point", "1.4,1.4", "--mesh=-1,4"], "mesh needs",
    ),
    "density-mesh-no-ring": ([*_DENSITY, "--mesh=0,16"], "mesh needs"),
    # the step count is checked before an empty grid returns its empty image
    "bounded-set-empty-grid-max-iter-negative": (
        ["bounded-set", "--map", HENON, "--grid=0,0", "--max-iter=-1"], "step count must be >= 0",
    ),
    "nonauto-probe-empty-grid-n-negative": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--grid=0,3", "--n=-1"],
        "step count must be >= 0",
    ),
    # a ball, tolerance or box that no orbit can meet would report a vacuous result
    "dichotomy-r-negative": (
        ["dichotomy", "--map", HENON, "--seed-point", "1.4,1.4", "--r=-1"], "r must be positive",
    ),
    "dichotomy-r-nan": (
        ["dichotomy", "--map", HENON, "--seed-point", "1.4,1.4", "--r=nan"], "r must be positive",
    ),
    "stable-graph-delta-nan": (
        ["stable-graph", "--map", HENON, "--seed-point", "1.4,1.4", "--delta", "nan"],
        "delta and tol must be positive",
    ),
    "interior-radius-negative": (
        ["interior", "--map", HENON, "--seed-point", "1.4,1.4", "--samples", "64", "--radius=-1"],
        "radius and conv_tol must be positive",
    ),
    "interior-radius-nan": (
        ["interior", "--map", HENON, "--seed-point", "1.4,1.4", "--samples", "64", "--radius=nan"],
        "radius and conv_tol must be positive",
    ),
    "interior-conv-tol-nan": (
        ["interior", "--map", HENON, "--seed-point", "1.4,1.4", "--samples=64", "--conv-tol=nan"],
        "radius and conv_tol must be positive",
    ),
    "bounded-set-box-nan": (
        ["bounded-set", "--map", HENON, "--box-min", "nan", "--grid", "4,4"],
        "box bounds must be finite",
    ),
    "fixed-point-tol-nan": (
        ["fixed-point", "--map", HENON, "--seed-point", "1.4,1.4", "--tol", "nan"],
        "tol must be positive",
    ),
    "nonauto-probe-conv-tol-negative": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--conv-tol=-1"],
        "conv_tol must be positive",
    ),
    "nonauto-report-conv-tol-nan": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "report", "--conv-tol", "nan"],
        "conv_tol must be positive",
    ),
    # an infinite ball or tolerance gives nan samples and witnesses, or counts
    # every bounded orbit as converged
    "dichotomy-r-inf": (
        ["dichotomy", "--map", HENON, "--seed-point", "1.4,1.4", "--r", "inf"],
        "r must be positive and finite",
    ),
    "interior-radius-inf": (
        ["interior", "--map", HENON, "--seed-point", "1.4,1.4", "--samples", "64", "--radius", "inf"],
        "radius and conv_tol must be positive and finite",
    ),
    "interior-conv-tol-inf": (
        ["interior", "--map", str(MAPS / "attracting_linear.json"), "--samples", "64", "--conv-tol", "inf"],
        "radius and conv_tol must be positive and finite",
    ),
    "nonauto-probe-conv-tol-inf": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--conv-tol", "inf"],
        "conv_tol must be positive and finite",
    ),
    "nonauto-report-conv-tol-inf": (
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "report", "--conv-tol", "inf"],
        "conv_tol must be positive and finite",
    ),
    # the iteration would take no step and the residual would compare two maps
    "gallery-sphere-m-negative": (
        ["gallery", "--example", "sphere", "--m=-1"], "step count must be >= 0",
    ),
    # bad input exits 2 whichever file or option it comes from
    "interior-samples-zero": (
        ["interior", "--map", HENON, "--seed-point", "1.4,1.4", "--samples", "0"],
        "interior_probe needs at least one sample",
    ),
    "density-plane-one": ([*_DENSITY, "--plane", "re_x"], BAD_VALUE),
    "density-plane-three": ([*_DENSITY, "--plane", "re_x,re_y,im_x"], BAD_VALUE),
    "density-plane-unknown": ([*_DENSITY, "--plane", "re_x,z"], "bad --plane 're_x,z'"),
    "nonauto-orbit-list-shorter-than-n": (
        ["nonauto-run", "--sequence", _one_map_list, "--mode", "orbit", "--n", "3"],
        "sequence has 1 map(s), asked for map 2",
    ),
    "nonauto-probe-list-shorter-than-n": (
        ["nonauto-run", "--sequence", _one_map_list, "--mode", "probe", "--n", "3"],
        "sequence has 1 map(s), asked for map 2",
    ),
    # the orbit overflows at step 1, but the list still has no 3rd map
    "nonauto-orbit-overflow-before-list-ends": (
        ["nonauto-run", "--sequence", _TWO_HENON, "--mode", "orbit", "--z", "1e7,0", "--n", "5"],
        "sequence has 2 map(s), asked for map 3",
    ),
    # a sequence file is checked for tangency when it loads, not as maps are used
    "nonauto-orbit-tangency-unused-member": (
        ["nonauto-run", "--sequence", _TANGENT_THEN_HENON, "--mode", "orbit", "--n", "1"], TANGENCY,
    ),
    "nonauto-probe-tangency-unused-member": (
        ["nonauto-run", "--sequence", _TANGENT_THEN_HENON, "--mode", "probe", "--n", "1"], TANGENCY,
    ),
    # x = -0 has no blow-up chart, though the phase of -x is -0 and not pi
    "parabolic-graph-x-mesh-negative-zero": (["parabolic-graph", "--x-mesh=-0"], "x must satisfy"),
    # non-finite numbers are bad input wherever they enter
    "char-dirs-c-nan": (["char-dirs", "--c", "nan"], P2_FINITE),
    "char-dirs-c-inf": (["char-dirs", "--c", "inf"], P2_FINITE),
    "normalize-c-inf": (["normalize", "--c", "inf"], P2_FINITE),
    "parabolic-graph-c-nan": (["parabolic-graph", "--c", "nan"], P2_FINITE),
    "expansion-check-c-nan": (["expansion-check", "--c", "nan"], P2_FINITE),
    # an infinite epsilon leaves no arg condition on the sector
    "parabolic-graph-epsilon-inf": (["parabolic-graph", "--epsilon", "inf"], EPS_FINITE),
    "expansion-check-epsilon-inf": (["expansion-check", "--epsilon", "inf"], EPS_FINITE),
    "bounded-set-map-nan": (["bounded-set", "--map", _NAN_MAP, "--grid", "4,4"], FINITE),
    "char-dirs-map-jet-nan": (["char-dirs", "--map", _NAN_JET], FINITE),
    "nonauto-orbit-list-nan": (["nonauto-run", "--sequence", _NAN_LIST], FINITE),
    "nonauto-probe-rate-nan": (
        ["nonauto-run", "--sequence", _NAN_RATE, "--mode", "probe", "--grid", "5,5"],
        "family parameter rate must be finite",
    ),
    # an integer past the double range is as infinite as Infinity
    "bounded-set-map-int-past-double": (
        ["bounded-set", "--map", _BIG_INT_MAP, "--grid", "4,4"], "malformed step",
    ),
    "nonauto-probe-rate-int-past-double": (
        ["nonauto-run", "--sequence", _BIG_INT_RATE, "--mode", "probe"],
        "bad family parameter rate",
    ),
    # no t is no experiment, and a nan t would reach Newton
    "stability-t-values-empty": (["stability", "--map", HENON, "--t-values", ","], T_VALUES),
    "stability-t-values-nan": (["stability", "--map", HENON, "--t-values", "nan"], T_VALUES),
    # a cloud distance over no sample pair would be a number from nothing
    "stability-no-shared-sample": (
        ["stability", "--map", HENON, "--pullback-depth", "200"], "clouds keep no sample in common",
    ),
    # inf - inf in the sampled distances gave a verdict after a RuntimeWarning
    "sector-sets-R-inf": (["sector-sets", "--R", "inf"], "R, delta must be finite"),
    "sector-sets-delta-nan": (["sector-sets", "--delta", "nan"], "delta, epsilon must be positive"),
    # a nan start is not an overflow at step 1
    "nonauto-orbit-z-nan": (
        ["nonauto-run", "--sequence", SEQUENCE, "--z", "nan,0"], "point has non-finite coordinate",
    ),
    "gallery-sphere-z-nan": (["gallery", "--example", "sphere", "--z", "nan"], GALLERY_FINITE),
    "gallery-planar-z-nan": (["gallery", "--example", "planar", "--z", "nan"], GALLERY_FINITE),
    "gallery-psi-theta-nan": (["gallery", "--example", "psi", "--theta", "nan"], GALLERY_FINITE),
    # a malformed map or sequence file is bad input, not a crash
    "fixed-point-map-steps-not-list": (["fixed-point", "--map", _STEPS_NOT_LIST], STEPS_LIST),
    "fixed-point-map-step-not-object": (["fixed-point", "--map", _STEP_NOT_OBJECT], STEP_OBJECT),
    "nonauto-list-maps-not-list": (
        ["nonauto-run", "--sequence", _MAPS_NOT_LIST], "list sequence maps must be a list",
    ),
    "nonauto-list-step-not-object": (
        ["nonauto-run", "--sequence", _LIST_STEP_NOT_OBJECT], STEP_OBJECT,
    ),
    # a shear must leave its form w.z unchanged exactly
    "fixed-point-map-shear-w-v-not-zero": (
        ["fixed-point", "--map", _SHEAR_W_V_NOT_ZERO], "shear needs w.v = 0 exactly",
    ),
}


def test_tangency_violation_in_a_sequence_file_is_a_config_error(tmp_path, capsys):
    henon = json.loads(Path(HENON).read_text())
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"kind": "list", "maps": [henon], "tangency_required": True}))
    rc = main(["nonauto-run", "--sequence", str(seq), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "holodyn: config error: sequence member 1 does not fix 0 with identity differential\n"
    )


@pytest.mark.parametrize("plane", ["re_x", "re_x,re_y,im_x", "re_x,z"])
def test_density_checks_its_plane_before_any_work(plane, tmp_path, monkeypatch):
    def no_work(*args):
        raise AssertionError("density ran before its --plane was checked")

    monkeypatch.setattr(Run, "chain_and_fixed_point", no_work)
    out = tmp_path / "o"
    assert main([*_DENSITY, "--plane", plane, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bounded-set", "--map", HENON, "--grid=0,0"],
        ["bounded-set", "--map", HENON, "--grid=0,3"],
        ["nonauto-run", "--sequence", SEQUENCE, "--mode", "probe", "--grid=3,0"],
    ],
)
def test_zero_cell_grids_give_empty_images(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("0/0 cells")
    ppm = next(out.glob("*.ppm")).read_bytes()
    na, nb = argv[-1].split("=")[1].split(",")
    assert ppm == f"P6\n{na} {nb}\n255\n".encode("ascii")


@pytest.mark.parametrize("case", sorted(_CONFIG_ERRORS))
def test_malformed_values_are_config_errors(case, tmp_path, capsys):
    argv, message = _CONFIG_ERRORS[case]
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    rc = main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"holodyn: config error: {message}")
    assert "Traceback" not in err


# -- README ----------------------------------------------------------------------


def _readme_commands() -> list[str]:
    """The holodyn lines of README's "Command line" block, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("holodyn ")]


def test_readme_command_block_is_found():
    assert len(_readme_commands()) >= 7


@pytest.mark.parametrize("command", _readme_commands(), ids=lambda c: c.split()[1])
def test_readme_command_lines_run(command, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the README's map paths are relative to the repo root
    argv = shlex.split(command)[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
    assert main(argv) == 0
