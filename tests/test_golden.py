"""Golden artifacts: each experiment script reproduces its tracked out-* tree.

Every script writes into ./out-<name> relative to its working directory, so
each case runs it in a fresh temp directory and byte-compares the result
with the committed tree.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "run_saddle_pipeline.py": "out-saddle",
    "run_gallery.py": "out-gallery",
    "run_parabolic_suite.py": "out-parabolic",
}
SLOW = {"run_parabolic_suite.py"}  # the saddle and gallery scripts take under a second


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize(
    "script",
    [pytest.param(s, marks=[pytest.mark.slow] if s in SLOW else []) for s in sorted(SCRIPTS)],
)
def test_script_reproduces_golden_artifacts(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    golden = _tree(ROOT / SCRIPTS[script])
    produced = _tree(tmp_path / SCRIPTS[script])
    assert golden, f"no tracked artifacts under {SCRIPTS[script]}"
    assert sorted(produced) == sorted(golden)
    for name, data in golden.items():
        assert produced[name] == data, f"{SCRIPTS[script]}/{name} differs from the tracked copy"
