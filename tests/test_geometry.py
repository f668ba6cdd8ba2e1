import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from atomchip.errors import ConfigError, GeometryError
from atomchip.fields import BiotSavartModel
from atomchip.geometry import (
    ChipLayout, ConductorFrames, CurrentConfig, WireSegmentPath, builtin_paper_layout,
    discretize_wire, load_layout, parse_config, serialize_config,
)
from atomchip.reproduction import roughness_test_wire
from atomchip.roughness import RandomDeviation, perturb_wire

MINIMAL = {
    "wires": [{
        "name": "w1", "channel": "w1", "width_um": 50.0, "thickness_um": 3.0,
        "nodes_um": [[0.0, -1.5, -5000.0], [0.0, -1.5, 5000.0]],
    }],
}


def test_minimal_config_parses_to_si():
    layout, currents, species = parse_config(MINIMAL)
    assert len(layout.wires) == 1
    w = layout.wires[0]
    assert w.width == pytest.approx(50e-6, rel=1e-15)
    assert w.thickness == pytest.approx(3e-6, rel=1e-15)
    assert w.nodes[0][2] == pytest.approx(-5000e-6, rel=1e-15)
    assert currents.dc == {"w1": 0.0} or currents.dc == {}
    assert species.label.startswith("Rb87")


def test_unknown_key_rejected_with_path():
    bad = {"wires": MINIMAL["wires"], "extra_section": 1}
    with pytest.raises(ConfigError, match="extra_section"):
        parse_config(bad)
    bad_wire = {"wires": [dict(MINIMAL["wires"][0], typo_key=1)]}
    with pytest.raises(ConfigError, match=r"wires\[0\].*typo_key"):
        parse_config(bad_wire)


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        load_layout('{"wires": [,]}')


def test_missing_required_key():
    with pytest.raises(ConfigError, match="width_um"):
        parse_config({"wires": [{"name": "a", "nodes_um": [[0, 0, 0], [0, 0, 10]],
                                 "thickness_um": 3.0}]})


def test_unknown_current_channel_rejected():
    cfg = dict(MINIMAL, currents={"nope": 1.0})
    with pytest.raises(ConfigError, match="nope"):
        parse_config(cfg)


def test_rf_amplitude_without_frequency_rejected():
    cfg = dict(
        MINIMAL,
        rf={"frequency_kHz": 0.0,
            "channels": {"w1": {"amplitude_A": 0.01, "phase_deg": 0.0}}},
    )
    with pytest.raises(ConfigError, match="frequency"):
        parse_config(cfg)


def test_wire_invariants():
    with pytest.raises(GeometryError, match="2 nodes"):
        WireSegmentPath(name="a", channel="a", nodes=((0, 0, 0),),
                        width=1e-6, thickness=1e-6)
    with pytest.raises(GeometryError, match="1 nm"):
        WireSegmentPath(name="a", channel="a",
                        nodes=((0, 0, 0), (0, 0, 5e-10)),
                        width=1e-6, thickness=1e-6)
    with pytest.raises(GeometryError, match="width"):
        WireSegmentPath(name="a", channel="a",
                        nodes=((0, 0, 0), (0, 0, 1e-3)),
                        width=0.0, thickness=1e-6)


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_node_rejected(literal):
    doc = json.dumps(MINIMAL).replace("-1.5, 5000.0]", f"-1.5, {literal}]")
    assert literal in doc
    with pytest.raises(ConfigError, match=r"wires\[0\].*node coordinates must be finite"):
        load_layout(doc)


def _wire(nodes):
    return WireSegmentPath(name="a", channel="a", nodes=nodes, width=5e-6, thickness=1e-6)


def test_wire_nodes_are_a_read_only_copy():
    source = np.array([[0.0, -0.5e-6, -1e-3], [0.0, -0.5e-6, 1e-3]])
    wire = _wire(source)
    assert wire.nodes.dtype == np.float64 and wire.nodes.shape == (2, 3)
    with pytest.raises(ValueError):
        wire.nodes[0, 0] = 1.0
    source[0, 0] = 1.0
    assert wire.nodes[0, 0] == 0.0
    assert source.flags.writeable


def test_wire_equality_and_hash():
    nodes = [[0.0, -0.5e-6, -1e-3], [0.0, -0.5e-6, 1e-3]]
    a, b = _wire(nodes), _wire(tuple(map(tuple, nodes)))
    assert a == b and hash(a) == hash(b)
    assert _wire([[-0.0, -0.5e-6, -1e-3], [0.0, -0.5e-6, 1e-3]]) == a
    nudged = np.array(nodes)
    nudged[1, 2] = np.nextafter(nudged[1, 2], 1.0)
    assert _wire(nudged) != a
    assert replace(a, width=6e-6) != a


def test_replace_revalidates_nodes():
    wire = _wire([[0.0, -0.5e-6, -1e-3], [0.0, -0.5e-6, 1e-3]])
    with pytest.raises(GeometryError, match="1 nm"):
        replace(wire, nodes=np.zeros((2, 3)))
    with pytest.raises(GeometryError, match="finite"):
        replace(wire, nodes=np.array([[0.0, 0.0, np.nan], [0.0, 0.0, 1e-3]]))


def test_overlapping_footprints_error_names_both_wires():
    def straight(name, x, width):
        return {"name": name, "channel": name, "width_um": width,
                "thickness_um": 3.0,
                "nodes_um": [[x, -1.5, -1000.0], [x, -1.5, 1000.0]]}

    cfg = {"wires": [straight("a", 0.0, 50.0), straight("b", 30.0, 50.0)]}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "'a'" in str(err.value) and "'b'" in str(err.value)


def test_paper_layout_dimensions():
    layout, currents, _ = builtin_paper_layout()
    assert len(layout.wires) == 6
    z1, z2, z3, z4 = (layout.wire(n) for n in ("z1", "z2", "z3", "z4"))
    assert z1.width == pytest.approx(100e-6) and z4.width == pytest.approx(100e-6)
    assert z2.width == 50e-6 and z3.width == 50e-6
    # centre-to-centre separations of the central sections
    assert z4.nodes[1][0] - z1.nodes[1][0] == pytest.approx(300e-6)
    assert z3.nodes[1][0] - z2.nodes[1][0] == pytest.approx(85e-6)
    central = np.linalg.norm(np.asarray(z2.nodes[2]) - np.asarray(z2.nodes[1]))
    assert central == pytest.approx(7e-3, rel=1e-9)
    assert currents.dc_current("z2") == 2.0
    assert currents.bias[0] == pytest.approx(24.8e-4)
    # end wires run along x
    e1 = layout.wire("e1")
    d = np.asarray(e1.nodes[1]) - np.asarray(e1.nodes[0])
    assert abs(d[0]) > 0 and d[1] == 0 and d[2] == 0


def test_builtin_roundtrip_identity():
    layout, currents, species = builtin_paper_layout()
    l2, c2, s2 = load_layout(serialize_config(layout, currents, species))
    assert l2 == layout
    assert c2 == currents
    assert s2 == species


def test_roundtrip_property_random_layouts(rng):
    for _ in range(20):
        n_wires = rng.integers(1, 4)
        wires = []
        x = 0.0
        for k in range(n_wires):
            width = float(rng.uniform(10, 120))
            x += width + float(rng.uniform(20, 400))
            z_half = float(rng.uniform(100, 8000))
            wires.append({
                "name": f"w{k}", "channel": f"w{k}",
                "width_um": width, "thickness_um": float(rng.uniform(0.5, 6)),
                "nodes_um": [[x, -1.5, -z_half], [x, -1.5, z_half]],
            })
        cfg = {
            "wires": wires,
            "bias": [float(rng.uniform(-30, 30)) for _ in range(3)],
            "currents": {w["name"]: float(rng.uniform(-3, 3)) for w in wires},
        }
        layout, currents, species = parse_config(cfg)
        l2, c2, s2 = load_layout(serialize_config(layout, currents, species))
        assert (l2, c2, s2) == (layout, currents, species)


def test_discretize_single_filament_on_centerline(thin_wire):
    fils = discretize_wire(thin_wire, 1, 1)
    assert fils.shape == (1, len(thin_wire.nodes), 3)
    assert np.allclose(fils[0], thin_wire.nodes)


def test_discretize_two_across_width():
    wire = WireSegmentPath(name="a", channel="a",
                           nodes=((0, 0, -1e-3), (0, 0, 1e-3)),
                           width=100e-6, thickness=2e-6)
    fils = discretize_wire(wire, 2, 1)
    assert fils.shape == (2, 2, 3)
    assert fils[:, 0, 0] == pytest.approx([-25e-6, 25e-6])


def test_discretize_array_layout():
    # one row per filament, thickness outer and width inner
    wire = WireSegmentPath(name="a", channel="a",
                           nodes=((0, 0, -1e-3), (0, 0, 1e-3)),
                           width=100e-6, thickness=3e-6)
    fils = discretize_wire(wire, 8, 3)
    assert fils.shape == (24, 2, 3) and fils.dtype == np.float64
    grid = fils[:, 0].reshape(3, 8, 3)
    assert np.all(np.diff(grid[..., 0], axis=1) > 0)  # x steps along a width row
    assert np.all(grid[..., 1] == grid[:, :1, 1])  # one y per thickness layer
    assert np.all(np.diff(grid[:, 0, 1]) > 0)


def test_discretize_fraction_normalization():
    # the array carries no weights: the model gives every filament's segments
    # 1 / (n_width * n_thickness) of the current, and the shares sum to 1
    wire = WireSegmentPath(name="a", channel="a",
                           nodes=((0, 0, -1e-3), (0, 0, 1e-3)),
                           width=100e-6, thickness=3e-6)
    scale = BiotSavartModel(ChipLayout(wires=(wire,)), 8, 3)._channels["a"].scale
    assert scale.shape == (24, 1) and np.all(scale == 1e-7 * (1.0 / 24))
    assert abs(scale.sum() / 1e-7 - 1.0) < 1e-15


def test_discretize_centroid_on_centerline(rng):
    for _ in range(10):
        wire = WireSegmentPath(
            name="a", channel="a",
            nodes=((0, -2e-6, -1e-3), (0, -2e-6, 0.0), (300e-6, -2e-6, 4e-4)),
            width=float(rng.uniform(20, 100)) * 1e-6,
            thickness=float(rng.uniform(1, 5)) * 1e-6,
        )
        nw, nt = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        # every filament carries 1 / (nw * nt) of the current
        centroid = discretize_wire(wire, nw, nt).mean(axis=0)
        assert np.allclose(centroid, wire.nodes, atol=1e-12)


def test_discretize_validates_counts(thin_wire):
    with pytest.raises(GeometryError):
        discretize_wire(thin_wire, 0, 1)


def _offset_polyline_loop(wire, horizontal, vertical):
    """Reference offset: every node's miter computed again for each filament."""
    pts = wire.nodes
    d = np.diff(pts, axis=0)
    normals = np.cross(np.broadcast_to([0.0, 1.0, 0.0], d.shape), d)
    normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    out = pts.copy()
    n = len(pts)
    for i in range(n):
        if i == 0:
            m, denom = normals[0], 1.0
        elif i == n - 1:
            m, denom = normals[-1], 1.0
        else:
            m = normals[i - 1] + normals[i]
            m = m / np.linalg.norm(m)
            denom = float(np.dot(m, normals[i - 1]))
        out[i] = pts[i] + m * (horizontal / denom)
    out[:, 1] += vertical
    return out


def test_discretize_matches_per_node_offset_loop(rng):
    jitter = rng.uniform(-20e-6, 20e-6, (9, 3)) * [1.0, 0.05, 1.0]
    zigzag = WireSegmentPath(
        name="zz", channel="zz", width=40e-6, thickness=2e-6,
        nodes=np.column_stack(
            [np.tile([0.0, 150e-6], 5)[:9], np.full(9, -1e-6), np.arange(9) * 200e-6]) + jitter,
    )
    bent = perturb_wire(roughness_test_wire(), RandomDeviation(
        rms=30e-9, correlation_length=40e-6, seed=5, z_min=-3e-3, z_max=3e-3))
    wires = builtin_paper_layout()[0].wires + (zigzag, bent)
    for wire in wires:
        for nw, nt in ((8, 3), (3, 2)):
            fils = discretize_wire(wire, nw, nt)
            h = ((np.arange(nw) + 0.5) / nw - 0.5) * wire.width
            v = ((np.arange(nt) + 0.5) / nt - 0.5) * wire.thickness
            expected = [_offset_polyline_loop(wire, float(hh), float(vv)) for vv in v for hh in h]
            assert fils.shape == (len(expected), len(wire.nodes), 3)
            for fil, ref in zip(fils, expected):
                assert fil.tobytes() == ref.tobytes(), wire.name


def test_discretize_rejects_reversal_and_vertical_segment():
    reversal = WireSegmentPath(name="r", channel="r", width=10e-6, thickness=1e-6,
                               nodes=((0, 0, 0), (0, 0, 1e-3), (0, 0, 0)))
    with pytest.raises(GeometryError, match=r"wire 'r': 180-degree bend cannot be offset"):
        discretize_wire(reversal, 2, 1)
    vertical = WireSegmentPath(name="v", channel="v", width=10e-6, thickness=1e-6,
                               nodes=((0, 0, 0), (0, 1e-3, 0)))
    with pytest.raises(GeometryError,
                       match=r"wire 'v': segment parallel to y has no width direction"):
        discretize_wire(vertical, 2, 1)


def test_point_inside_wire():
    wire = WireSegmentPath(name="a", channel="a",
                           nodes=((0, -1.5e-6, -1e-3), (0, -1.5e-6, 1e-3)),
                           width=50e-6, thickness=3e-6)
    points = np.array([[0.0, -1.5e-6, 0.0], [24e-6, -0.2e-6, 0.0], [0.0, 5e-6, 0.0],
                       [26e-6, -1.5e-6, 0.0], [0.0, -1.5e-6, 1.2e-3]])
    inside = ConductorFrames((wire,)).first_containing(points) >= 0
    assert inside.tolist() == [True, True, False, False, False]


def test_builtin_layout_serializes_to_paper_chip_config():
    path = Path(__file__).resolve().parent.parent / "configs" / "paper_chip.json"
    assert json.loads(serialize_config(*builtin_paper_layout())) == json.loads(path.read_text())


def test_serialized_config_is_json(paper):
    layout, currents, species = paper
    doc = json.loads(serialize_config(layout, currents, species))
    assert set(doc) <= {"wires", "bias", "currents", "rf", "atom", "mirror_extent_um"}
