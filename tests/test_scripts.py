"""Smoke test: each demo script runs to completion on small inputs and
exits 4, as `lsicert verify` does, exactly when a printed check fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 501 nodes is a grid coarser than the dissipation check accepts, so its
# max_residual row fails: a correct verdict, and the script exits 4.
COARSE_FLOW = ["--nodes", "501", "--particles", "2000"]


@pytest.mark.parametrize("script, args", [
    ("contraction_demo.py", ["--steps", "2", "--samples", "2000"]),
    ("entropy_flow.py", COARSE_FLOW),
    ("toeplitz_sections.py", ["--sizes", "8,16"]),
    ("entropy_flow.py", ["--nodes", "5001", "--particles", "2000"]),
])
def test_script_runs(script, args):
    code = 4 if args is COARSE_FLOW else 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout
    assert ("FAIL" in proc.stdout) == (code != 0)
