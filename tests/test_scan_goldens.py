"""Bit-for-bit goldens of the split scan and the trap search.

``tests/data/split_scan_goldens.json`` holds ``float.hex`` values recorded
before ``split_scan`` evaluated each slice's unit fields and dressing frame
once and before each Newton step took its gradient and Hessian from one
Jacobian batch.  Those changes reuse work without changing any arithmetic,
so every value must still match to the last bit.
"""

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from atomchip.cli import run
from atomchip.constants import GAUSS
from atomchip.fields import BiotSavartModel
from atomchip.geometry import builtin_paper_layout
from atomchip.reproduction import SPLIT_SCAN_AMPLITUDES, splitting_setup
from atomchip.rf import split_scan
from atomchip.trap import characterize_trap, find_trap_minimum, magnetic_potential

GOLDENS = Path(__file__).parent / "data" / "split_scan_goldens.json"
ROOT = Path(__file__).resolve().parents[1]
# the README command line, run from the repository root as the CI workflow
# runs it and checks it against the same sha256; the manifest line names
# the config path as given
README_COMMAND = ["split-scan", "--config", "configs/paper_split_scan.json"]
SPLIT_SEED = (0.0, 110e-6, 0.0)
RAMP = tuple(np.linspace(0.005, 0.030, 32).tolist())
PERTURBED_BIAS = (30.3 * GAUSS, 0.0, 1.7 * GAUSS)
PERTURBED_DETUNING = 4e3  # Hz
BUILTIN_SEED = (-42.5e-6, 150e-6, 0.0)
# 0.8 um above z2: the 1 um Hessian stencil of the first Newton step dips
# into the wire
NEAR_WIRE_SEED = (-40e-6, 0.8e-6, 10e-6)


def _hex(value):
    """float.hex of every float in a nested structure; ints and bools stay."""
    if isinstance(value, (bool, int)) or value is None:
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    return [_hex(v) for v in value]


def _scan(result):
    return _hex({"amplitudes": result.amplitudes,
                 "critical_amplitude": result.critical_amplitude,
                 "reports": [asdict(r) for r in result.reports]})


def _trap(tc):
    return _hex(asdict(tc))


def scan_paper():
    """c4's scan: the splitting setup over the reproduction ramp."""
    model, currents, species, drive = splitting_setup()
    return _scan(split_scan(model, currents, species, drive, SPLIT_SCAN_AMPLITUDES,
                            seed_point=SPLIT_SEED))


def scan_perturbed_ramp():
    """A 32-step 5-30 mA ramp at one perturbed bias and rf frequency."""
    model, currents, species, drive = splitting_setup()
    return _scan(split_scan(model, replace(currents, bias=PERTURBED_BIAS), species,
                            replace(drive, frequency=drive.frequency + PERTURBED_DETUNING),
                            RAMP, seed_point=SPLIT_SEED, halfwidth=12e-6, n_samples=1201))


def scan_refined():
    """Coarse slices, some of which the scan refines to 4n - 3 samples."""
    model, currents, species, drive = splitting_setup()
    return _scan(split_scan(model, currents, species, drive, [0.0, 0.002, 0.01, 0.02, 0.03],
                            seed_point=SPLIT_SEED, halfwidth=12e-6, n_samples=58))


def trap_builtin():
    """characterize_trap at the builtin operating point."""
    layout, currents, species = builtin_paper_layout()
    pdef = magnetic_potential(BiotSavartModel(layout), currents, species)
    return _trap(characterize_trap(pdef, BUILTIN_SEED))


def trap_near_wire_seed():
    """find_trap_minimum from a seed whose Hessian stencil meets a conductor."""
    layout, currents, species = builtin_paper_layout()
    pdef = magnetic_potential(BiotSavartModel(layout), currents, species)
    return _trap(find_trap_minimum(pdef, NEAR_WIRE_SEED))


CASES = {fn.__name__: fn for fn in (scan_paper, scan_perturbed_ramp, scan_refined,
                                     trap_builtin, trap_near_wire_seed)}


def readme_csv_sha256(out: Path) -> str:
    assert run(README_COMMAND + ["--out", str(out)]) == 0
    return hashlib.sha256((out / "split_scan.csv").read_bytes()).hexdigest()


def golden_values(out: Path) -> dict:
    """Every case's values, and the README CSV's sha256, as the goldens file
    stores them; run from the repository root, the CSV is written to ``out``."""
    return {**{name: fn() for name, fn in CASES.items()},
            "readme_csv_sha256": readme_csv_sha256(out)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bitwise_equal_to_goldens(case):
    assert CASES[case]() == json.loads(GOLDENS.read_text())[case]


def test_readme_split_scan_csv_keeps_its_sha256(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert readme_csv_sha256(tmp_path) == json.loads(GOLDENS.read_text())["readme_csv_sha256"]


def test_newton_step_falls_back_to_a_single_point_gradient_near_a_wire(monkeypatch):
    # the first stencil reaches into z2, so the step takes the 1-point
    # gradient and no Hessian, as it did before the stencil held the gradient
    points = []
    field_and_jacobian = BiotSavartModel.field_and_jacobian

    def counted(self, currents, p):
        points.append(len(np.atleast_2d(p)))
        return field_and_jacobian(self, currents, p)

    monkeypatch.setattr(BiotSavartModel, "field_and_jacobian", counted)
    assert trap_near_wire_seed() == json.loads(GOLDENS.read_text())["trap_near_wire_seed"]
    assert points[:2] == [7, 1]
