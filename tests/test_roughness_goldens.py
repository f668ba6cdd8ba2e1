"""Goldens of the roughness profiles, recorded before the straight
reference wire had its z-parallel runs merged.

``tests/data/roughness_goldens.json`` holds, per case, the ``float.hex`` of
each profile's ``delta_Bz``, ``delta_V`` and ``ratio_to_main``, and the
sha256 of the ``roughness.csv`` of each README command line.  A z-parallel
segment adds an exact 0 to B_z, so merging such runs keeps every
``delta_Bz`` and ``delta_V`` bit; only |B|, and with it ``ratio_to_main``,
may round differently, so that is compared at rtol 1e-12.  The CSV prints
the ratio to 9 digits and keeps its bytes.  The ``--kind random`` CSV was
recorded before the meandered wire's runs were merged too.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from atomchip.cli import run
from atomchip.geometry import builtin_paper_layout
from atomchip.reproduction import rb87_f2m2, roughness_test_wire
from atomchip.roughness import RandomDeviation, TriangleDeviation, _roughness_profiles

GOLDENS = Path(__file__).parent / "data" / "roughness_goldens.json"
# the README command lines, by the goldens key of their CSV's sha256, which
# the CI workflow also checks
README_COMMANDS = {
    "readme_csv_sha256": ["roughness", "--kind", "triangle", "--amplitude-nm", "20",
                          "--period-um", "800"],
    "readme_random_csv_sha256": ["roughness", "--kind", "random", "--seed", "7"],
}
Z = np.linspace(-800e-6, 800e-6, 161)


def _hex(profiles):
    return [{name: [v.hex() for v in getattr(p, name)]
             for name in ("delta_Bz", "delta_V", "ratio_to_main")} for p in profiles]


def c5_pair():
    """c5's two triangles, 20 and 40 nm per 800 um, on the 50 um test wire."""
    return _hex(_roughness_profiles(
        roughness_test_wire(), (TriangleDeviation(20e-9, 800e-6), TriangleDeviation(40e-9, 800e-6)),
        current=2.0, height=150e-6, z_values=Z, species=rb87_f2m2()))


def random_test_wire():
    """One seeded Gaussian-process meander on the test wire."""
    deviation = RandomDeviation(rms=20e-9, correlation_length=200e-6, seed=1,
                                z_min=-800e-6, z_max=800e-6)
    return _hex(_roughness_profiles(roughness_test_wire(), (deviation,), current=2.0,
                                    height=150e-6, z_values=Z, species=rb87_f2m2()))


def readme_z2_triangle():
    """The README command's profile: the builtin z2 with its diagonal leads."""
    layout, currents, species = builtin_paper_layout()
    wire = layout.wire("z2")
    return _hex(_roughness_profiles(wire, (TriangleDeviation(20e-9, 800e-6),),
                                    current=currents.dc_current(wire.channel), height=150e-6,
                                    z_values=Z, species=species))


CASES = {fn.__name__: fn for fn in (c5_pair, random_test_wire, readme_z2_triangle)}


def readme_csv_sha256(out: Path, key: str = "readme_csv_sha256") -> str:
    assert run(README_COMMANDS[key] + ["--out", str(out), "--force"]) == 0
    return hashlib.sha256((out / "roughness.csv").read_bytes()).hexdigest()


def golden_values(out: Path) -> dict:
    """Every case's values, and the CSVs' sha256, as the goldens file stores
    them; the CSVs are written to ``out``."""
    return {**{name: fn() for name, fn in CASES.items()},
            **{key: readme_csv_sha256(out, key) for key in README_COMMANDS}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_delta_bz_and_delta_v_bitwise_equal_to_goldens(case):
    got, golden = CASES[case](), json.loads(GOLDENS.read_text())[case]
    assert len(got) == len(golden)
    for profile, expected in zip(got, golden):
        assert profile["delta_Bz"] == expected["delta_Bz"]
        assert profile["delta_V"] == expected["delta_V"]
        np.testing.assert_allclose([float.fromhex(v) for v in profile["ratio_to_main"]],
                                   [float.fromhex(v) for v in expected["ratio_to_main"]],
                                   rtol=1e-12, atol=0.0)


def test_readme_roughness_csv_keeps_its_sha256(tmp_path):
    assert readme_csv_sha256(tmp_path) == json.loads(GOLDENS.read_text())["readme_csv_sha256"]


def test_readme_random_roughness_csv_keeps_its_sha256(tmp_path):
    key = "readme_random_csv_sha256"
    assert readme_csv_sha256(tmp_path, key) == json.loads(GOLDENS.read_text())[key]
