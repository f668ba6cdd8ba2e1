"""Cold start: importing the package and running commands that fit no
fringe load no scipy module.  Each check runs in a fresh interpreter,
because this process has scipy loaded by other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CLEAN_FIT = """
import numpy as np
from atomchip.fringes import (
    FringeModel, GaussianEnvelope, fit_modulated_gaussian, synthesize_fringes,
)
x = np.linspace(-80e-6, 80e-6, 641)
model = FringeModel(envelope=GaussianEnvelope(center=2e-6, sigma=25e-6, amplitude=3.0),
                    contrast=0.6, period=16e-6, phase=0.6)
phase = fit_modulated_gaussian(x, synthesize_fringes(model, x)).phase
"""


def fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter; then the scipy modules it loaded
    and the global ``phase`` (hex), if set."""
    report = ("\nimport json, sys\nprint(json.dumps({'scipy': sorted(m for m in sys.modules"
              " if m == 'scipy' or m.startswith('scipy.')),"
              " 'phase': globals().get('phase', 0.0).hex()}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert fresh("import atomchip.cli", tmp_path)["scipy"] == []


@pytest.mark.parametrize("args", [
    ["trap", "--seed-point=-42.5,150,0"],
    ["thermal", "--width-um", "100", "--current-A", "1.8"],
])
def test_commands_without_a_fit_load_no_scipy(tmp_path, args):
    code = f"from atomchip.cli import run\nassert run({args!r}) == 0"
    assert fresh(code, tmp_path)["scipy"] == []


def test_first_fit_loads_scipy_optimize(tmp_path):
    result = fresh(CLEAN_FIT, tmp_path)
    assert "scipy.optimize" in result["scipy"]
    here = {}
    exec(CLEAN_FIT, here)
    assert result["phase"] == here["phase"].hex()
