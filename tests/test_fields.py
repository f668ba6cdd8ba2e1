import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from atomchip import fields
from atomchip.constants import GAUSS, MU_0
from atomchip.errors import FieldDomainError
from atomchip.fields import (
    _LINE_MIN_POINTS, _LINE_POINT_SEGMENTS, BiotSavartModel, GridSpec, _SegmentTable,
    _segment_field, field_map, field_map_csv_rows,
)
from atomchip.geometry import (
    ChipLayout, ConductorFrames, CurrentConfig, WireSegmentPath, discretize_wire,
)
from atomchip.reproduction import roughness_test_wire, thin_wire_layout
from atomchip.rf import _slice_points
from atomchip.roughness import (
    RandomDeviation, SinusoidDeviation, TriangleDeviation, perturb_wire, roughness_field,
)
from atomchip.trap import _DEPTH_DIRECTIONS, _DEPTH_HALFWIDTH, magnetic_potential


def test_zero_currents_zero_bias(thin_model):
    B = thin_model.field(CurrentConfig(), (0, 150e-6, 0))
    assert B.tolist() == [[0.0, 0.0, 0.0]]


def test_bias_only(thin_model):
    cur = CurrentConfig(bias=(24.8 * GAUSS, 0.0, 0.0))
    B = thin_model.field(cur, (0, 150e-6, 0))
    assert B.tolist() == [[24.8 * GAUSS, 0.0, 0.0]]


def test_infinite_wire_oracle(thin_model):
    # analytic oracle: |B| = mu0 I / (2 pi r) for a wire much longer than r
    cur = CurrentConfig(dc={"w": 2.0})
    for r in (50e-6, 150e-6, 500e-6):
        magnitude = np.linalg.norm(thin_model.field(cur, (0.0, r, 0.0)))
        exact = MU_0 * 2.0 / (2.0 * np.pi * r)
        assert abs(magnitude - exact) / exact < 1e-3
    magnitude = np.linalg.norm(thin_model.field(cur, (0.0, 150e-6, 0.0)))
    assert abs(magnitude / GAUSS - 26.67) < 0.03  # 26.67 G at 150 um


def test_field_direction_above_wire(thin_model):
    # +z current, point above (+y): field along -x
    B = thin_model.field(CurrentConfig(dc={"w": 2.0}), (0.0, 150e-6, 0.0))[0]
    assert B[0] < 0
    assert abs(B[1]) < 1e-12 * abs(B[0])
    assert abs(B[2]) < 1e-12 * abs(B[0])


def test_jacobian_uniform_bias_is_zero(thin_model):
    _, J = thin_model.field_and_jacobian(CurrentConfig(bias=(10 * GAUSS, 5 * GAUSS, 0)),
                                         (0, 200e-6, 0))
    assert np.max(np.abs(J)) < 1e-12


def test_jacobian_thin_wire_oracle(thin_model):
    # analytic oracle: |dB/dr| = mu0 I / (2 pi r^2)
    cur = CurrentConfig(dc={"w": 2.0})
    r = 150e-6
    J = thin_model.field_and_jacobian(cur, (0.0, r, 0.0))[1][0]
    exact = MU_0 * 2.0 / (2.0 * np.pi * r**2)
    # B = -x_hat * mu0 I/(2 pi y) here, so dBx/dy carries the gradient
    assert abs(abs(J[0, 1]) - exact) / exact < 5e-3


def test_jacobian_mirror_symmetry():
    # two parallel wires, antisymmetric currents: J at the midpoint must
    # respect the mirror x -> -x
    wires = tuple(
        WireSegmentPath(name=n, channel=n,
                        nodes=((x, 0.0, -0.05), (x, 0.0, 0.05)),
                        width=1e-6, thickness=1e-6)
        for n, x in (("a", -50e-6), ("b", 50e-6))
    )
    model = BiotSavartModel(ChipLayout(wires=wires), 1, 1)
    cur = CurrentConfig(dc={"a": 1.0, "b": 1.0})
    p = np.array([0.0, 120e-6, 0.0])
    J, J_left, J_right = model.field_and_jacobian(
        cur, p + np.array([[0.0, 0, 0], [-10e-6, 0, 0], [10e-6, 0, 0]]))[1]
    # mirror: Bx even in x, By odd -> dBx/dx odd, dBy/dy odd around x=0
    assert J[0, 0] == pytest.approx(0.0, abs=1e-12 * np.linalg.norm(J))
    assert J_left[0, 0] == pytest.approx(-J_right[0, 0], rel=1e-6, abs=1e-8)


def test_superposition_and_scaling(paper_model, paper):
    _, currents, _ = paper
    p = np.array([10e-6, 180e-6, 40e-6])
    c1 = currents.with_dc(z2=1.3, z3=-0.4)
    c2 = currents.with_dc(z2=0.6, z3=0.9, e1=0.25)
    c12 = currents.with_dc(z2=1.9, z3=0.5, e1=0.25)
    b1 = paper_model.field(c1, p)[0]
    b2 = paper_model.field(c2, p)[0]
    b12 = paper_model.field(c12, p)[0]
    bias = np.asarray(currents.bias)
    assert np.max(np.abs(b12 - (b1 + b2 - bias))) / np.max(np.abs(b12)) < 1e-12

    doubled = paper_model.field(currents.with_dc(z2=4.0), p)[0]
    single = paper_model.field(currents, p)[0]
    assert np.max(np.abs((doubled - bias) - 2.0 * (single - bias))) \
        / np.max(np.abs(doubled)) < 1e-12


def test_discretization_convergence():
    wire = WireSegmentPath(name="a", channel="a",
                           nodes=((0, -1.5e-6, -0.05), (0, -1.5e-6, 0.05)),
                           width=100e-6, thickness=3e-6)
    layout = ChipLayout(wires=(wire,))
    cur = CurrentConfig(dc={"a": 2.0})
    p = (0.0, 150e-6, 0.0)
    coarse = np.linalg.norm(BiotSavartModel(layout, 8, 3).field(cur, p))
    fine = np.linalg.norm(BiotSavartModel(layout, 16, 6).field(cur, p))
    assert abs(coarse - fine) / fine < 1e-3


def test_field_map_single_point_matches_field(thin_model):
    cur = CurrentConfig(dc={"w": 2.0})
    grid = GridSpec.from_ranges([0.0], [150e-6], [0.0])
    B, J = field_map(thin_model, cur, grid)
    assert B.shape == (1, 3) and J is None
    assert B.tobytes() == thin_model.field(cur, (0.0, 150e-6, 0.0)).tobytes()


def test_field_map_thread_count_bitwise_identical(paper_model, paper):
    _, currents, _ = paper
    grid = GridSpec.from_ranges(
        np.linspace(-100e-6, 100e-6, 30), np.linspace(100e-6, 300e-6, 40), [0.0]
    )
    one, _ = field_map(paper_model, currents, grid, threads=1)
    four, _ = field_map(paper_model, currents, grid, threads=4)
    assert one.tobytes() == four.tobytes()


def test_field_map_rows_header(thin_model):
    cur = CurrentConfig(dc={"w": 2.0})
    grid = GridSpec.from_ranges([0.0], [150e-6], [0.0])
    rows = field_map_csv_rows(grid.points(), field_map(thin_model, cur, grid)[0])
    assert rows[0] == "x_um,y_um,z_um,Bx_G,By_G,Bz_G,Bmag_G"
    assert len(rows) == 2


def test_field_map_csv_matches_pointwise_samples(paper_model, paper):
    # 1,230 points: the map's second work item starts mid-row
    _, currents, _ = paper
    grid = GridSpec.from_ranges(np.linspace(-100e-6, 100e-6, 41),
                                np.linspace(50e-6, 300e-6, 30), [10e-6])
    B, _ = field_map(paper_model, currents, grid, threads=2)
    samples = [paper_model.field(currents, p)[0] for p in grid.points()]
    assert B.tobytes() == np.array(samples).tobytes()
    reference = ["x_um,y_um,z_um,Bx_G,By_G,Bz_G,Bmag_G"]
    for p, b in zip(grid.points(), samples):
        x, y, z = (float(c) * 1e6 for c in p)
        bx, by, bz = (float(c) * 1e4 for c in b)
        reference.append(f"{x:.9g},{y:.9g},{z:.9g},{bx:.9g},{by:.9g},{bz:.9g},"
                         f"{float(np.linalg.norm(b)) * 1e4:.9g}")
    assert field_map_csv_rows(grid.points(), B) == reference


def test_point_inside_conductor_rejected(paper_model, paper):
    _, currents, _ = paper
    with pytest.raises(FieldDomainError, match="z2"):
        paper_model.field(currents, (-42.5e-6, -1.5e-6, 0.0))


def test_jacobian_rejects_points_inside_a_conductor(paper_model, paper):
    _, currents, _ = paper
    # z2's top face is at y = 0: the closed-form Jacobian needs no clearance
    # above it, only a point outside the wire
    with pytest.raises(FieldDomainError, match=r"lies inside wire 'z2'"):
        paper_model.field_and_jacobian(currents, (-42.5e-6, -1.5e-6, 0.0))
    _, J = paper_model.field_and_jacobian(currents, (-42.5e-6, 0.3e-6, 0.0))
    assert np.all(np.isfinite(J))


def _wire_containing_loop(layout, p, pad):
    """Reference conductor test: one point, one segment at a time."""
    for wire in layout.wires:
        pts = wire.nodes
        d = np.diff(pts, axis=0)
        normals = np.cross(np.broadcast_to(np.array([0.0, 1.0, 0.0]), d.shape), d)
        normals = normals / np.linalg.norm(normals, axis=1)[:, None]
        hw = wire.width / 2.0 + pad
        ht = wire.thickness / 2.0 + pad
        for k in range(len(pts) - 1):
            a, b = pts[k], pts[k + 1]
            t_hat = (b - a) / np.linalg.norm(b - a)
            w = p - a
            s = np.clip(np.dot(w, t_hat), 0.0, np.linalg.norm(b - a))
            r = w - s * t_hat
            if abs(np.dot(w, t_hat) - s) > pad:
                continue
            if abs(np.dot(r, normals[k])) <= hw and abs(r[1]) <= ht:
                return wire.name
    return None


def _cloud_around_segments(layout, pad, rng, n_random=120):
    """Points around every centerline segment: seeded ones across and past
    each box and its ends (so bends too), plus the exact faces at +-pad."""
    points = []
    for wire in layout.wires:
        pts = wire.nodes
        hw, ht = wire.width / 2.0 + pad, wire.thickness / 2.0 + pad
        for a, b in zip(pts[:-1], pts[1:]):
            length = np.linalg.norm(b - a)
            t_hat = (b - a) / length
            n_hat = np.cross([0.0, 1.0, 0.0], t_hat)
            n_hat /= np.linalg.norm(n_hat)
            near_end = rng.choice([0.0, length], n_random) + rng.uniform(-1.5, 1.5, n_random) * hw
            along = np.concatenate([rng.uniform(0.0, length, n_random), near_end,
                                    [-pad, 0.0, length, length + pad]])
            across = np.concatenate([rng.uniform(-1.3, 1.3, 2 * n_random) * hw, [-hw, hw, 0.0, hw]])
            up = np.concatenate([rng.uniform(-1.5, 1.5, 2 * n_random) * ht, [ht, -ht, 0.0, ht]])
            points.append(a + along[:, None] * t_hat + across[:, None] * n_hat
                          + up[:, None] * np.array([0.0, 1.0, 0.0]))
            edges = np.array(np.meshgrid([-pad, length + pad], [-hw, hw], [-ht, ht])).reshape(3, -1)
            points.append(a + edges[0][:, None] * t_hat + edges[1][:, None] * n_hat
                          + edges[2][:, None] * np.array([0.0, 1.0, 0.0]))
    return np.concatenate(points)


@pytest.mark.parametrize("pad", [0.0, 1e-9, 0.5e-6])
def test_vectorized_conductor_test_matches_pointwise_loop(paper, pad):
    layout, _, _ = paper
    rng = np.random.default_rng(7)
    points = _cloud_around_segments(layout, pad, rng)
    expected = [_wire_containing_loop(layout, p, pad) for p in points]
    names = [w.name for w in layout.wires] + [None]  # index -1 -> None
    got = [names[k] for k in ConductorFrames(layout.wires).first_containing(points, pad)]
    assert sum(e is not None for e in expected) > len(points) // 4  # both sides sampled
    assert [k for k in range(len(points)) if got[k] != expected[k]] == []


def test_domain_error_names_first_point_and_its_wire(paper_model, paper):
    _, currents, _ = paper
    points = np.array([[0.0, 100e-6, 0.0],          # above the chip
                       [42.5e-6, -1.0e-6, 10e-6],   # inside z3
                       [-42.5e-6, -1.5e-6, 0.0]])   # inside z2
    with pytest.raises(FieldDomainError,
                       match=r"point \(42\.500, -1\.000, 10\.000\) um lies inside wire 'z3'"):
        paper_model.field(currents, points)


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_field_map_domain_error_independent_of_threads(paper_model, paper, with_jacobian):
    # 45 points per x: the first interior point, (-200, -3, 0) um on z1's
    # edge, has index 1,351, in the grid's second chunk of 1,024
    _, currents, _ = paper
    grid = GridSpec.from_ranges(np.linspace(-500e-6, 500e-6, 101),
                                np.linspace(-4e-6, 40e-6, 45), [0.0])
    messages = []
    for threads in (1, 2):
        with pytest.raises(FieldDomainError) as err:
            field_map(paper_model, currents, grid, threads=threads,
                      with_jacobian=with_jacobian)
        messages.append(str(err.value))
    assert messages == ["point (-200.000, -3.000, 0.000) um lies inside wire 'z1'"] * 2


def _einsum_segment_field(points, starts, ends, weights):
    """Reference kernel: whole (points x segments x 3) arrays, einsum sums."""
    seg = ends - starts
    d = seg / np.einsum("ij,ij->i", seg, seg)[:, None]
    a1 = points[:, None, :] - starts[None, :, :]
    a2 = points[:, None, :] - ends[None, :, :]
    f = np.empty_like(a1)
    np.subtract(a1[..., 1] * d[:, 2], a1[..., 2] * d[:, 1], out=f[..., 0])
    np.subtract(a1[..., 2] * d[:, 0], a1[..., 0] * d[:, 2], out=f[..., 1])
    np.subtract(a1[..., 0] * d[:, 1], a1[..., 1] * d[:, 0], out=f[..., 2])
    n1 = np.sqrt(np.add.reduce(a1 * a1, axis=2))
    n2 = np.sqrt(np.add.reduce(a2 * a2, axis=2))
    sine = np.einsum("sj,nsj->ns", d, a2) / n2 - np.einsum("sj,nsj->ns", d, a1) / n1
    s2 = np.einsum("nsj,nsj->ns", f, f)
    online = s2 < 1e-24
    s2 = np.where(online, 1.0, s2)
    coeff = np.where(online, 0.0, 1e-7 * weights[None, :] * sine / s2)
    return np.einsum("ns,nsj->nj", coeff, f)


def _channel_segments(layout, channel, n_width=8, n_thickness=3):
    """(starts, ends, weights) of one channel in the model's order: wires in
    layout order, filament rows in tiling order, segments along each row."""
    starts, ends = [], []
    for wire in layout.wires:
        if wire.channel == channel:
            for fil in discretize_wire(wire, n_width, n_thickness):
                starts.append(fil[:-1])
                ends.append(fil[1:])
    starts = np.concatenate(starts)
    return starts, np.concatenate(ends), np.full(len(starts), 1.0 / (n_width * n_thickness))


def _roughness_model(deviation):
    return BiotSavartModel(ChipLayout(wires=(perturb_wire(roughness_test_wire(), deviation),)))


_BENT = RandomDeviation(rms=30e-9, correlation_length=40e-6, seed=11, z_min=-3e-3, z_max=3e-3)
# segments with a y component: on the chip's planar wires every d_y is 0,
# which hides the pairing of the dot products' terms
_TILTED = ChipLayout(wires=(WireSegmentPath(
    name="t", channel="t", width=20e-6, thickness=1e-6,
    nodes=((0.0, -1e-6, -1e-3), (50e-6, 3e-6, -2e-4), (-20e-6, -2e-6, 3e-4), (0.0, 1e-6, 1e-3))),))


@pytest.mark.parametrize("bent", [False, True], ids=["builtin", "bent-1201"])
def test_model_segment_tables_match_filament_loop(paper_model, bent):
    # the model slices each wire's (filaments, nodes, 3) array at once; the
    # helper walks the filament rows one by one
    model = _roughness_model(_BENT) if bent else paper_model
    if bent:
        assert len(model.layout.wires[0].nodes) == 1201
    for channel in model.channels:
        starts, ends, weights = _channel_segments(model.layout, channel)
        expected = _SegmentTable.build(starts, ends, weights[0])
        got = model._channels[channel]
        assert got.scale.tobytes() == (1e-7 * weights)[:, None].tobytes()
        for name, array, ref in zip(_SegmentTable._fields, got, expected):
            assert array.tobytes() == ref.tobytes(), (channel, name)


def _index_built_layout(starts, ends, blocks):
    """A table's nodes and segment order built block by block from explicit
    index arrays of the position-by-position order."""
    columns = [(lo + length * np.arange(runs) + np.arange(length)[:, None]).ravel()
               for lo, _, runs, length in blocks]
    nodes = np.concatenate([rows for column, (*_, runs, _) in zip(columns, blocks)
                            for rows in (starts[column], ends[column[-runs:]])])
    return nodes, np.concatenate(columns)


@pytest.mark.parametrize("case", ["builtin", "bent-1201", "mixed runs"])
def test_segment_table_equal_to_index_built_layout(paper_model, case):
    # the table takes each block by reshapes, views where the block is in
    # segment order (one run, or runs of one segment)
    if case == "mixed runs":
        tables = [_random_runs(np.random.default_rng(5), _RUN_CASES["mixed"][0])]
    else:
        model = _roughness_model(_BENT) if case == "bent-1201" else paper_model
        tables = [_channel_segments(model.layout, c)[:2] for c in model.channels]
    for starts, ends in tables:
        table = _SegmentTable.build(starts, ends, 0.25)
        nodes, order = _index_built_layout(starts, ends, table.blocks.tolist())
        seg = ends - starts
        d = (seg / np.einsum("ij,ij->i", seg, seg)[:, None]).T[:, order]
        assert np.array_equal(table.nodes, nodes[:, [0, 1, 2, 0, 1]].T)
        assert np.array_equal(table.d, d[[0, 1, 2, 0, 1]])


def test_kernel_blocks_match_one_unchunked_call():
    # 28,800 segments in 113 blocks against one einsum over all of them
    model = _roughness_model(None)
    starts, ends, weights = _channel_segments(model.layout, "w")
    assert len(starts) == 28800
    points = np.column_stack([np.linspace(-30e-6, 30e-6, 20), np.full(20, 150e-6),
                              np.linspace(-1e-3, 1e-3, 20)])
    blocked = model.channel_unit_field("w", points)
    assert blocked.tobytes() == _einsum_segment_field(points, starts, ends, weights).tobytes()


def _kernel_points(layout, rng, n):
    """n seeded points above and around the layout; from n = 3 on, the last
    two are a filament's segment end and a point on that segment's line."""
    fil = discretize_wire(layout.wires[0], 8, 3)[0]
    lo = np.min([w.nodes.min(axis=0) for w in layout.wires], axis=0) - 200e-6
    hi = np.max([w.nodes.max(axis=0) for w in layout.wires], axis=0) + 200e-6
    points = rng.uniform(lo, hi, (n, 3))
    points[:, 1] = rng.uniform(2e-6, 400e-6, n)
    if n > 2:
        points[-2:] = fil[1], fil[0] + 0.5 * (fil[1] - fil[0])
    return points


@pytest.mark.parametrize("n", [1, 2, 9, 161, 1201])
def test_kernel_bitwise_equal_to_einsum_reference(paper, n):
    # the reference in the pieces of at most 2**18 point-segments that the
    # previous kernel took; 1201 points against 28,800 segments take ~6 s
    # there, so only the bent model runs at that size
    rng = np.random.default_rng(n)
    cases = [(paper[0], c) for c in paper[0].channels] + [(_TILTED, "t")]
    cases += [(_roughness_model(dev).layout, "w")
              for dev in ((_BENT,) if n > 161 else (None, _BENT))]
    for layout, channel in cases:
        starts, ends, weights = _channel_segments(layout, channel)
        points = _kernel_points(layout, rng, n)
        rows = max(1, 2**18 // len(starts))
        with np.errstate(invalid="ignore"):  # 0/0 at the segment end, masked
            expected = np.concatenate([
                _einsum_segment_field(points[lo:lo + rows], starts, ends, weights)
                for lo in range(0, n, rows)])
            got = _segment_field(points, _SegmentTable.build(starts, ends, weights[0]))
        assert got.tobytes() == expected.tobytes(), (channel, n)
        assert np.all(np.isfinite(got))


def _random_runs(rng, lengths):
    """(starts, ends) of random polylines below the chip surface with the
    given segment counts, one after another: a run of each length."""
    starts, ends = [], []
    for length in lengths:
        nodes = rng.uniform(-1e-4, 1e-4, 3) + np.cumsum(rng.normal(0.0, 2e-5, (length + 1, 3)),
                                                        axis=0)
        nodes[:, 1] = rng.uniform(-3e-6, 0.0, length + 1)
        starts.append(nodes[:-1])
        ends.append(nodes[1:])
    return np.concatenate(starts), np.concatenate(ends)


# blocks as [first segment, first node, runs, run length] at 256-segment
# blocks
_RUN_CASES = {
    # three runs longer than a block: every run is cut inside
    "3x300": ([300] * 3, [[0, 0, 1, 256], [256, 257, 1, 44], [300, 302, 1, 256],
                          [556, 559, 1, 44], [600, 604, 1, 256], [856, 861, 1, 44]]),
    # four runs in one block, runs of one segment, then a cut run
    "mixed": ([60] * 5 + [1] * 3 + [300], [[0, 0, 4, 60], [240, 244, 1, 60], [300, 305, 3, 1],
                                           [303, 311, 1, 256], [559, 568, 1, 44]]),
    "one segment": ([1], [[0, 0, 1, 1]]),
    # 300 random segments, no two chained
    "unchained": ([1] * 300, [[0, 0, 256, 1], [256, 512, 44, 1]]),
}


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_kernel_runs_bitwise_equal_to_einsum_reference(case, monkeypatch):
    monkeypatch.setattr(fields, "_SEGMENT_BLOCK", 256)
    lengths, blocks = _RUN_CASES[case]
    rng = np.random.default_rng(len(lengths))
    starts, ends = _random_runs(rng, lengths)
    table = _SegmentTable.build(starts, ends, 0.25)
    assert table.blocks.tolist() == blocks
    points = _kernel_points(_TILTED, rng, 40)
    expected = _einsum_segment_field(points, starts, ends, np.full(len(starts), 0.25))
    assert _segment_field(points, table).tobytes() == expected.tobytes()


def _kernel_paths(monkeypatch, arithmetic=None) -> dict[str, int]:
    """Points that each kernel path takes from here on, counted by piece,
    and in ``arithmetic``, if given, the point-blocks that take the planar
    and the full arithmetic; install once per test and zero the counts
    between calls."""
    counts = {"line": 0, "stacked": 0}
    for name, path in (("_line_piece_field", "line"), ("_piece_field", "stacked")):
        def counted(points, table, blocks, *rest, _kernel=getattr(fields, name), _path=path):
            counts[_path] += len(points)
            if arithmetic is not None:
                planar = sum(flag for _, flag in blocks)
                arithmetic["planar"] += len(points) * planar
                arithmetic["full"] += len(points) * (len(blocks) - planar)
            return _kernel(points, table, blocks, *rest)
        monkeypatch.setattr(fields, name, counted)
    return counts


def _line_cases(layout, wire, table, rng):
    """Point sets on and off axis lines above ``layout``, with the points
    each path should take: (name, points, line points, stacked points)."""
    rows = max(1, _LINE_POINT_SEGMENTS // int(table.blocks[:, 2:].prod(axis=1).max()))
    n = 2 * rows + 40  # three pieces, the last one on the line too
    cases = []
    for axis in range(3):
        points = np.repeat(_kernel_points(layout, rng, 1), n, axis=0)
        points[:, axis] = np.linspace(-1e-3, 1e-3, n) if axis != 1 else np.linspace(2e-6, 4e-4, n)
        cases.append((f"{'xyz'[axis]} line", points, n, 0))
    # the last piece is one point short of a line piece
    short = n - 41 + _LINE_MIN_POINTS
    cases.append(("short tail", cases[0][1][:short], 2 * rows, short - 2 * rows))
    # along a filament's first axis-parallel segment, through its nodes: 0/0
    # at the nodes and every point on the segment's line, all masked
    parallel = [(fil, k) for fil in discretize_wire(wire, 8, 3) for k in range(len(fil) - 1)
                if np.count_nonzero(fil[k + 1] == fil[k]) == 2]
    if parallel:
        fil, k = parallel[0]
        axis = int(np.argmax(fil[k + 1] != fil[k]))
        points = np.repeat(fil[k:k + 1], 100, axis=0)
        points[:, axis] = np.linspace(fil[k, axis] - 1e-4, fil[k + 1, axis], 100)
        points[1, axis] = fil[k, axis]
        cases.append(("on a filament", points, 100, 0))
    points = _kernel_points(layout, rng, 100)
    points[:, 1] = 150e-6
    cases.append(("one shared coordinate", points, 0, 100))
    cases.append(("identical", np.repeat(points[:1], 100, axis=0), 100, 0))
    return cases


def test_kernel_on_axis_lines_bitwise_equal_to_einsum_reference(paper, monkeypatch):
    rng = np.random.default_rng(23)
    mixed = _random_runs(rng, _RUN_CASES["mixed"][0])
    tables = [(paper[0], next(w for w in paper[0].wires if w.channel == c),
               *_channel_segments(paper[0], c))
              for c in paper[0].channels]
    tables += [(_TILTED, _TILTED.wires[0], *_channel_segments(_TILTED, "t")),
               (_TILTED, _TILTED.wires[0], *mixed, np.full(len(mixed[0]), 0.25))]
    cases = set()
    counts = _kernel_paths(monkeypatch)
    for layout, wire, starts, ends, weights in tables:
        table = _SegmentTable.build(starts, ends, weights[0])
        for name, points, line, stacked in _line_cases(layout, wire, table, rng):
            cases.add(name)
            counts.update(line=0, stacked=0)
            with np.errstate(invalid="ignore"):  # 0/0 at a segment end, masked
                expected = _einsum_segment_field(points, starts, ends, weights)
                got = _segment_field(points, table)
            assert got.tobytes() == expected.tobytes(), (len(starts), name)
            assert counts == {"line": line, "stacked": stacked}, (len(starts), name)
    assert len(cases) == 7


def test_kernel_on_the_roughness_profile_bitwise_equal_to_einsum_reference(monkeypatch):
    # the 161-point z line of roughness_field on the bent 28,800-segment model
    model = _roughness_model(_BENT)
    starts, ends, weights = _channel_segments(model.layout, "w")
    points = np.column_stack([np.zeros(161), np.full(161, 150e-6), np.linspace(-8e-4, 8e-4, 161)])
    rows = 2**18 // len(starts)
    expected = np.concatenate([_einsum_segment_field(points[lo:lo + rows], starts, ends, weights)
                               for lo in range(0, 161, rows)])
    counts = _kernel_paths(monkeypatch)
    assert model.channel_unit_field("w", points).tobytes() == expected.tobytes()
    assert counts == {"line": 161, "stacked": 0}


def test_kernel_path_chosen_from_the_points(paper_model, paper, species, monkeypatch):
    # the roughness profile and the split-scan slice lie on axis lines; the
    # trap search's stencils, single points and first depth round do not.
    # All of them take the planar arithmetic
    currents = paper[1]
    pdef = magnetic_potential(paper_model, currents, species)
    x0 = np.array([-42.5e-6, 150e-6, 0.0])
    calls = {
        "roughness profile": lambda: roughness_field(
            roughness_test_wire(), TriangleDeviation(20e-9, 8e-4), current=2.0, height=150e-6,
            z_values=np.linspace(-8e-4, 8e-4, 161), species=species),
        "split-scan slice": lambda: paper_model.field(
            currents, _slice_points(x0, (1.0, 0.0, 0.0), 12e-6, 1201)[1]),
        "7-point stencil": lambda: pdef.local(x0),
        "1 point": lambda: pdef.energy(x0),
        "first depth round": lambda: pdef.energy_batch(x0 + _DEPTH_HALFWIDTH * _DEPTH_DIRECTIONS),
    }
    arithmetic = {"planar": 0, "full": 0}
    counts = _kernel_paths(monkeypatch, arithmetic)
    for name, call in calls.items():
        counts.update(line=0, stacked=0)
        arithmetic.update(planar=0, full=0)
        call()
        on_line = name in ("roughness profile", "split-scan slice")
        assert (counts["line"] > 0, counts["stacked"] > 0) == (on_line, not on_line), name
        # every wire lies in the chip plane
        assert arithmetic["planar"] > 0 and arithmetic["full"] == 0, name


def _flat_runs(rng, lengths):
    """_random_runs with one y per run: in the chip's planes, as every wire
    of an atom chip is, so each segment's d_y is +0."""
    starts, ends = _random_runs(rng, lengths)
    for lo, hi in zip(np.cumsum([0] + lengths[:-1]), np.cumsum(lengths)):
        starts[lo:hi, 1] = ends[lo:hi, 1] = starts[lo, 1]
    return starts, ends


def test_chip_wires_have_planar_segment_tables(paper_model):
    # every filament of a chip wire keeps one y, so every block of every
    # builtin channel and of the roughness test wire, straight or meandered,
    # is planar; each segment of the tilted wire climbs or falls
    models = [paper_model, BiotSavartModel(_TILTED)]
    models += [_roughness_model(dev) for dev in (None, _BENT, TriangleDeviation(20e-9, 8e-4),
                                                 SinusoidDeviation(50e-9, 2e-4))]
    for model in models:
        for channel, table in model._channels.items():
            assert len(table.planar) == len(table.blocks), channel
            assert table.planar.all() == (channel != "t"), channel
            assert table.planar.any() == (channel != "t"), channel
    # a block is planar where each of its segments starts and ends at one
    # y: flat runs with a tilted one in between, and blocks of several runs
    rng = np.random.default_rng(3)
    flat, tilted = _flat_runs(rng, [60] * 4), _random_runs(rng, [60])
    starts, ends = (np.concatenate([flat[i][:120], tilted[i], flat[i][120:]]) for i in (0, 1))
    table = _SegmentTable.build(starts, ends, 0.25)
    expected = [bool(np.all(starts[lo:lo + runs * length, 1] == ends[lo:lo + runs * length, 1]))
                for lo, _, runs, length in table.blocks.tolist()]
    assert table.planar.tolist() == expected
    assert True in expected and False in expected and max(table.blocks[:, 2]) > 1


def _planar_point_sets(layout, wire, rng):
    """Named point sets above and in the plane of ``layout``'s wires for
    field-only calls, and centres for 7-point Jacobian stencils: a seeded
    cloud with a segment end and a point on that segment's line
    (_kernel_points), x, y and z lines, x and z lines at a filament's own y
    (a_y = 0 for its nodes) that cross its segments, and a line along a
    filament's axis-parallel segment through its nodes (every point on the
    segment's line, masked)."""
    fils = discretize_wire(wire, 8, 3)
    fil = fils[len(fils) // 2]
    cloud = _kernel_points(layout, rng, 40)
    sets = {"cloud": cloud}
    for axis in range(3):
        points = np.repeat(cloud[:1], 100, axis=0)
        points[:, axis] = (np.linspace(-1e-3, 1e-3, 100) if axis != 1
                           else np.linspace(2e-6, 4e-4, 100))
        sets[f"{'xyz'[axis]} line"] = points
        if axis != 1:
            at_y = points.copy()
            at_y[:, 1] = fil[0, 1]
            at_y[:, 2 - axis] = fil[len(fil) // 2, 2 - axis]
            sets[f"{'xyz'[axis]} line at a filament's y"] = at_y
    parallel = [k for k in range(len(fil) - 1) if np.count_nonzero(fil[k + 1] == fil[k]) == 2]
    if parallel:
        k = parallel[0]
        axis = int(np.argmax(fil[k + 1] != fil[k]))
        points = np.repeat(fil[k:k + 1], 100, axis=0)
        points[:, axis] = np.linspace(fil[k, axis] - 1e-4, fil[k + 1, axis], 100)
        sets["on a filament's line"] = points
    centres = np.concatenate([cloud[:3], sets["x line at a filament's y"][::33]])
    return sets, centres


def test_planar_arithmetic_bitwise_equal_to_the_full_one(paper, monkeypatch):
    # a planar table with its flag cleared takes every d_y product; the
    # bits must not change (the module docstring's signed-zero argument)
    rng = np.random.default_rng(24)
    layout = paper[0]
    tables = [(layout, next(w for w in layout.wires if w.channel == c),
               _SegmentTable.build(*_channel_segments(layout, c)[:2], 1.0 / 24))
              for c in layout.channels]
    flat = _flat_runs(rng, _RUN_CASES["mixed"][0])
    tables.append((layout, layout.wires[0], _SegmentTable.build(*flat, 0.25)))
    bent = _roughness_model(_BENT)
    tables.append((bent.layout, bent.layout.wires[0], bent._channels["w"]))
    stencil = np.vstack([np.zeros(3), np.eye(3), -np.eye(3)]) * 1e-6
    arithmetic = {"planar": 0, "full": 0}
    counts = _kernel_paths(monkeypatch, arithmetic)
    names = set()
    for layout_, wire, table in tables:
        assert table.planar.all()
        cleared = table._replace(planar=np.zeros_like(table.planar))
        sets, centres = _planar_point_sets(layout_, wire, rng)
        if len(table.d[0]) > 1000:  # the 28,800-segment model: the cloud and the z line
            sets = {name: sets[name] for name in ("cloud", "z line")}
        calls = [(name, points, False) for name, points in sets.items()]
        calls += [("stencil", centre + stencil, True) for centre in centres]
        for name, points, jacobian in calls:
            names.add(name)
            got = []
            for t in (table, cleared):
                arithmetic.update(planar=0, full=0)
                with np.errstate(divide="ignore", invalid="ignore"):  # at a node, masked
                    field = _segment_field(points, t, jacobian)
                got.append([v.hex() for v in field.ravel().tolist()])
                assert arithmetic[("planar", "full")[t is cleared]] > 0, name
            assert got[0] == got[1], (len(table.d[0]), name)
    assert counts["line"] > 0 and counts["stacked"] > 0
    assert len(names) == 8


def test_planar_blocks_read_no_d_y(paper):
    # a planar block leaves out every product with d_y, so a field-only
    # result of either path keeps its bits when the d_y rows are NaN.  The
    # Jacobian is left out: its coeff * d term reads d_y by design
    rng = np.random.default_rng(26)
    layout = paper[0]
    for channel in layout.channels:
        table = _SegmentTable.build(*_channel_segments(layout, channel)[:2], 1.0 / 24)
        assert table.planar.all()
        poisoned = table._replace(d=table.d.copy())
        poisoned.d[[1, 4]] = np.nan
        blocks = list(zip(table.blocks.tolist(), table.planar.tolist()))
        block = int(table.blocks[:, 2:].prod(axis=1).max())
        block_nodes = int((table.blocks[:, 2] * (table.blocks[:, 3] + 1)).max())
        cloud = _kernel_points(layout, rng, 40)
        line = np.repeat(cloud[:1], 40, axis=0)
        line[:, 2] = np.linspace(-1e-3, 1e-3, 40)
        got = []
        for t in (table, poisoned):
            # each result is a view of the workspace, so it is read at once
            with np.errstate(divide="ignore", invalid="ignore"):  # at a node, masked
                calls = [fields._piece_field(points, t, blocks, block, block_nodes,
                                             False).ravel().tolist()
                         for points in (cloud, line)]
                calls += [fields._line_piece_field(line, t, blocks, block, block_nodes, 2,
                                                   rows).ravel().tolist()
                          for rows in (fields._XYZ, fields._Z)]
            got.append([[v.hex() for v in c] for c in calls])
        assert got[0] == got[1], channel


def test_kernel_field_and_jacobian_independent_of_block_size(monkeypatch):
    # runs cut into many pieces, or few runs per block: the same bits
    rng = np.random.default_rng(7)
    starts, ends = _random_runs(rng, _RUN_CASES["mixed"][0])
    points = _kernel_points(_TILTED, rng, 40)
    results = []
    for block in (5, 64, 256):
        monkeypatch.setattr("atomchip.fields._SEGMENT_BLOCK", block)
        results.append(_segment_field(points, _SegmentTable.build(starts, ends, 0.25),
                                      jacobian=True).tobytes())
    assert results[0] == results[1] == results[2]


def test_kernel_memory_is_bounded():
    # 161 points against 28,800 segments: the profile that sets the peak
    # memory of roughness_field
    model = _roughness_model(_BENT)
    points = np.column_stack([np.zeros(161), np.full(161, 150e-6), np.linspace(-8e-4, 8e-4, 161)])
    tracemalloc.start()
    try:
        model.channel_unit_field("w", points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_div_curl_residuals_small_grid(thin_model):
    # curl-free only holds for effectively infinite current paths; the thin
    # fixture wire's endpoints are 50 mm away from this grid, where their
    # real curl mu0 I / 4 pi d^2 is up to ~5e-5 of ||J||
    cur = CurrentConfig(dc={"w": 2.0}, bias=(24.8 * GAUSS, 0.0, 0.0))
    grid = GridSpec.from_ranges(
        np.linspace(-150e-6, 80e-6, 12), np.linspace(60e-6, 400e-6, 12), [0.0, 35e-6]
    )
    _, J = field_map(thin_model, cur, grid, with_jacobian=True)
    norm = np.linalg.norm(J, axis=(1, 2))
    assert np.all(np.abs(np.trace(J, axis1=1, axis2=2)) <= 1e-12 * norm)
    # the off-diagonal entries of J - J^T are the curl components
    assert np.all(np.max(np.abs(J - J.transpose(0, 2, 1)), axis=(1, 2)) < 1e-4 * norm)


def test_divergence_free_even_with_open_leads(paper_model, paper):
    # div B = 0 holds for any segment superposition, leads included
    _, currents, _ = paper
    grid = GridSpec.from_ranges(
        np.linspace(-150e-6, 80e-6, 8), np.linspace(60e-6, 400e-6, 8), [0.0]
    )
    _, J = field_map(paper_model, currents, grid, with_jacobian=True)
    div = np.trace(J, axis1=1, axis2=2)
    assert np.all(np.abs(div) <= 1e-12 * np.linalg.norm(J, axis=(1, 2)))


def test_divergence_at_rounding_level_on_the_c2_grid():
    model = BiotSavartModel(thin_wire_layout(length=2.0), 1, 1)
    cur = CurrentConfig(dc={"w": 2.0}, bias=(24.8 * GAUSS, 0.0, 0.0))
    grid = GridSpec.from_ranges(np.linspace(-500e-6, 500e-6, 101),
                                np.linspace(50e-6, 1050e-6, 101), [0.0])
    _, J = model.field_and_jacobian(cur, grid.points())
    div = np.trace(J, axis1=1, axis2=2)
    assert np.all(np.abs(div) <= 1e-12 * np.linalg.norm(J, axis=(1, 2)))


def test_field_map_jacobian_bitwise_independent_of_threads(paper_model, paper):
    # 1,500 points: two work items of the map
    _, currents, _ = paper
    grid = GridSpec.from_ranges(np.linspace(-100e-6, 100e-6, 30),
                                np.linspace(50e-6, 300e-6, 25), [0.0, 40e-6])
    B1, J1 = field_map(paper_model, currents, grid, threads=1, with_jacobian=True)
    B2, J2 = field_map(paper_model, currents, grid, threads=2, with_jacobian=True)
    assert B1.tobytes() == B2.tobytes() and J1.tobytes() == J2.tobytes()
    B, J = paper_model.field_and_jacobian(currents, grid.points())
    assert B1.tobytes() == B.tobytes() and J1.tobytes() == J.tobytes()
    assert B.tobytes() == paper_model.field(currents, grid.points()).tobytes()


def test_symmetry_central_section_bz_zero(paper):
    # leads deliberately produce B_z (the Ioffe bottom); with the central
    # sections alone the wire field has no z component on the midplane
    layout, currents, _ = paper
    z2 = layout.wire("z2")
    model = BiotSavartModel(ChipLayout(wires=(replace(z2, nodes=z2.nodes[1:3]),)))
    cur = CurrentConfig(dc={"z2": 2.0})
    B = model.field(cur, (-42.5e-6, 160e-6, 0.0))[0]
    assert abs(B[2]) < 1e-12 * np.linalg.norm(B)


def test_symmetry_full_z_wire_by_zero_on_axis(paper_model):
    # the Z is symmetric under 180 deg rotation about the vertical axis
    # through its midpoint, which forces B_y = 0 there
    cur = CurrentConfig(dc={"z2": 2.0})
    B = paper_model.field(cur, (-42.5e-6, 160e-6, 0.0))[0]
    assert abs(B[1]) < 1e-9 * np.linalg.norm(B)
    assert abs(B[2]) > 1e-4 * np.linalg.norm(B)  # lead-generated Ioffe field


def _richardson_jacobian(model, currents, p, h):
    """Reference dB_i/dx_j: central differences at h and h/2, Richardson
    extrapolated (error ~ (h / distance)^4)."""
    def central(step):
        offsets = np.vstack([np.eye(3), -np.eye(3)]) * step
        B = model.field(currents, p + offsets)
        return ((B[:3] - B[3:]) / (2.0 * step)).T
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


_JACOBIAN_CHANNELS = ("thin", "z1", "z2", "z3", "z4", "e1", "e2")


@pytest.mark.parametrize("channel", _JACOBIAN_CHANNELS)
def test_analytic_jacobian_matches_richardson_fd(paper_model, thin_model, channel):
    # seeded points 50-400 um above the chip, all at least 50 um from a wire
    rng = np.random.default_rng(_JACOBIAN_CHANNELS.index(channel))
    if channel == "thin":
        model, cur = thin_model, CurrentConfig(dc={"w": 2.0})
    else:
        model, cur = paper_model, CurrentConfig(dc={channel: 1.0})
    points = rng.uniform([-400e-6, 50e-6, -2e-3], [400e-6, 400e-6, 2e-3], (12, 3))
    B, J = model.field_and_jacobian(cur, points)
    for p, j in zip(points, J):
        ref = _richardson_jacobian(model, cur, p, 0.5e-6)
        assert np.max(np.abs(j - ref)) <= 1e-8 * np.max(np.abs(ref)), (channel, p)
        assert np.array_equal(j, model.field_and_jacobian(cur, p)[1][0])


def test_field_and_jacobian_single_point_matches_field(thin_model):
    cur = CurrentConfig(dc={"w": 2.0})
    B, J = thin_model.field_and_jacobian(cur, (0.0, 140e-6, 10e-6))
    assert B.shape == (1, 3) and J.shape == (1, 3, 3)
    assert B.tobytes() == thin_model.field(cur, (0.0, 140e-6, 10e-6)).tobytes()


def _hex_rows(rows):
    return [[float(v).hex() for v in row] for row in np.reshape(rows, (len(rows), -1))]


@pytest.mark.parametrize("case", ["builtin/z1", "builtin/z2", "builtin/z3", "builtin/z4",
                                  "builtin/e1", "builtin/e2", "tilted/t"])
def test_field_and_jacobian_bitwise_equal_to_goldens(paper_model, case):
    # float.hex goldens of one channel at 1 A and 10 seeded points above the
    # layout, recorded before the kernel shared its filament nodes
    golden = json.loads((Path(__file__).parent / "data" / "jacobian_goldens.json").read_text())[case]
    model = paper_model if case.startswith("builtin/") else BiotSavartModel(_TILTED)
    points = np.array([[float.fromhex(v) for v in row] for row in golden["points"]])
    B, J = model.field_and_jacobian(CurrentConfig(dc={case.split("/")[1]: 1.0}), points)
    assert _hex_rows(B) == golden["B"]
    assert _hex_rows(J) == golden["J"]
