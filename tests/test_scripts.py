"""Smoke test: the demo script runs to completion on small inputs and
exits 4, as `lsicert verify` does, exactly when a printed check fails; a
model `lsicert verify` refuses is refused with its stderr line and exit
code."""

import json

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsicert.instances import random_quartic_model
from lsicert.model import save_model

ROOT = Path(__file__).resolve().parents[1]
# The scripts run under the suite's warning policy (pyproject's
# filterwarnings): a numpy RuntimeWarning is an error.
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
           PYTHONWARNINGS="error::RuntimeWarning")


# 41 nodes on [0, 5] is a grid coarser than the dissipation check accepts
# (spacing 0.125 > 0.1), so its max_residual row fails: a correct
# verdict, and the script exits 4.
COARSE_FLOW = ["--nodes", "41", "--particles", "2000"]


# The ids are pinned so that adding or deleting a case renames no other.
@pytest.mark.parametrize("script, args", [
    pytest.param("entropy_flow.py", COARSE_FLOW,
                 id="entropy_flow.py-args1"),
    pytest.param("entropy_flow.py", ["--nodes", "5001", "--particles", "2000"],
                 id="entropy_flow.py-args2"),
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


def _refused_models(tmp_path):
    """(path, exit code, stderr line) of a model each refusal covers."""
    prec = np.full((3, 3), 0.55)
    np.fill_diagonal(prec, 1.0)
    nocert = tmp_path / "nocert.json"
    nocert.write_text(json.dumps({"dim": 3, "partition": [[0], [1], [2]],
                                  "precision": prec.tolist()}))
    quartic = tmp_path / "quartic4.json"
    save_model(random_quartic_model(np.random.default_rng(3), dim=4),
               quartic)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    return [(nocert, 3, "no certificate: delta <= 0"),
            (quartic, 1, "usage error: the closed-form verifiers need a "
                         "Gaussian model (quartic = 0)"),
            (bad, 2, "invalid model: model file is not valid JSON")]


@pytest.mark.parametrize("script", ["entropy_flow.py"])
def test_script_refuses_as_verify_does(script, tmp_path):
    for path, code, line in _refused_models(tmp_path):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                               str(path)], env=ENV, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(line), proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    pytest.param(["--nodes", "5_001"], id="underscore-nodes"),
    pytest.param(["--particles", "2_000"], id="underscore-particles"),
    pytest.param(["--seed", "\u0667"], id="arabic-indic-seed"),
    pytest.param(["--horizon", "5_0"], id="underscore-horizon"),
])
def test_entropy_flow_reads_numbers_as_lsicert_does(args):
    # int() read '5_001' as 5001 and Arabic-Indic digits as decimals, and
    # float() read '5_0' as 50: each is refused with exit 1, as lsicert
    # refuses --steps 1_000, in one stderr line
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "entropy_flow.py"),
                           "--particles", "2000", *args],
                          env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("args, line", [
    pytest.param(["--bogus"], "usage error: unrecognized arguments: --bogus",
                 id="unknown-option"),
    pytest.param(["--particles", "0"], "usage error: need an integer count "
                 "of at least 1000 particles", id="too-few-particles"),
    pytest.param(["--horizon", "1e999"], "usage error: --horizon must be "
                 "finite", id="infinite-horizon"),
    pytest.param(["--nodes", "100000000000"], "usage error: a grid of "
                 "100000000000 nodes needs", id="oversized-grid"),
    pytest.param(["--particles", "100000000000"], "usage error: a cloud of "
                 "100000000000 particles", id="oversized-cloud"),
])
def test_entropy_flow_refuses_before_printing(args, line):
    # argparse printed its usage and exited 2 on an unknown option; the
    # particle count was refused after the closed-form lines were printed,
    # an infinite horizon warned in np.linspace first, and an oversized
    # grid or cloud ended in a numpy allocation traceback
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "entropy_flow.py"), *args],
                          env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(line), proc.stderr
    assert proc.stderr.count("\n") == 1
