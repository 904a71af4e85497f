"""Smoke test: each demo script runs to completion on small inputs and
exits 4, as `lsicert verify` does, exactly when a printed check fails."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
# The scripts run under the suite's warning policy (pyproject's
# filterwarnings): a numpy RuntimeWarning is an error.
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
           PYTHONWARNINGS="error::RuntimeWarning")


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
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout
    assert ("FAIL" in proc.stdout) == (code != 0)


def test_entropy_flow_writes_trace_csv(tmp_path):
    # one row per time node; the bound column is exp(-2 rho t) D0, which
    # starts at D0 and stays above the divergence
    path = tmp_path / "trace.csv"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "entropy_flow.py"),
                           "--nodes", "5001", "--particles", "2000",
                           "--csv", str(path)],
                          env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kl,fisher,bound"
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    assert rows.shape == (5001, 4)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 5.0
    assert rows[0, 3] == rows[0, 1] > 0.0
    assert np.all(np.diff(rows[:, 3]) < 0.0)
    assert np.all(rows[:, 1] <= rows[:, 3] * (1.0 + 1e-9) + 1e-12)
