"""Smoke test: each demo script runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("contraction_demo.py", ["--steps", "2", "--samples", "2000"]),
    ("entropy_flow.py", ["--nodes", "501", "--particles", "2000"]),
    ("toeplitz_sections.py", ["--sizes", "8,16"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
