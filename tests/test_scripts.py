"""Smoke test of the command-line scripts and of `python -m psprsim`: each
one imports what it uses from the package and prints its usage, so a
renamed or removed package name fails here rather than on the first real
run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("command", [[str(p)] for p in SCRIPTS] + [["-m", "psprsim"]],
                         ids=[p.name for p in SCRIPTS] + ["-m psprsim"])
def test_help_exits_zero(command):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *command, "--help"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
