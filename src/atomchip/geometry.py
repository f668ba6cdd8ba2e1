"""Chip geometry, current settings and atom parameters.

Coordinate convention (fixed throughout the package): the chip surface is
the plane y = 0 with wires occupying the half-space y <= 0 and the trap
region at y > 0; z runs along the central wire sections and x is the
in-plane transverse direction.  Gravity defaults to -y.

All stored quantities are SI.  The JSON configuration format accepts the
convenience units documented in :func:`parse_config`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .constants import BOHR_MAGNETON, DEG, GAUSS, KHZ, RB87_MASS, STANDARD_GRAVITY, UM
from .errors import ConfigError, GeometryError

Vec3 = tuple[float, float, float]

_MIN_NODE_SEPARATION = 1e-9  # m
_ROUNDING_SLACK = 1e-12  # m, margin of the conductor test's height band
_CONDUCTOR_PIECE = 2**13  # points x segments per piece of the conductor test
_Y_HAT = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True, eq=False)
class WireSegmentPath:
    """A wire as a centerline polyline with a rectangular cross-section.

    ``nodes`` trace the centerline in metres as one read-only (N, 3) float
    array, copied from what the caller passes; ``width`` spans the in-plane
    direction perpendicular to the local segment, ``thickness`` spans y.
    """

    name: str
    channel: str
    nodes: np.ndarray
    width: float
    thickness: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise GeometryError(f"wire {self.name!r}: needs at least 2 nodes")
        if not (self.width > 0.0):
            raise GeometryError(f"wire {self.name!r}: width must be > 0")
        if not (self.thickness > 0.0):
            raise GeometryError(f"wire {self.name!r}: thickness must be > 0")
        pts = np.array(self.nodes, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise GeometryError(f"wire {self.name!r}: nodes must be 3-vectors")
        if not np.all(np.isfinite(pts)):
            raise GeometryError(f"wire {self.name!r}: node coordinates must be finite")
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(steps <= _MIN_NODE_SEPARATION):
            k = int(np.argmax(steps <= _MIN_NODE_SEPARATION))
            raise GeometryError(
                f"wire {self.name!r}: nodes {k} and {k + 1} closer than 1 nm"
            )
        pts.flags.writeable = False
        object.__setattr__(self, "nodes", pts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WireSegmentPath):
            return NotImplemented
        return ((self.name, self.channel, self.width, self.thickness)
                == (other.name, other.channel, other.width, other.thickness)
                and np.array_equal(self.nodes, other.nodes))

    def __hash__(self) -> int:
        # node bytes would split -0.0 from 0.0, which compare equal
        return hash((self.name, self.channel, self.width, self.thickness, len(self.nodes)))

    @property
    def path_length(self) -> float:
        return float(np.linalg.norm(np.diff(self.nodes, axis=0), axis=1).sum())

    @property
    def cross_section_area(self) -> float:
        return self.width * self.thickness


@dataclass(frozen=True)
class ChipLayout:
    """An immutable collection of wires on one chip.

    ``mirror_extent`` records the overall gold mirror size and is
    informational only.
    """

    wires: tuple[WireSegmentPath, ...]
    mirror_extent: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))
        names = [w.name for w in self.wires]
        if len(set(names)) != len(names):
            raise GeometryError("duplicate wire names in layout")
        _check_footprint_overlap(self.wires)

    def wire(self, name: str) -> WireSegmentPath:
        for w in self.wires:
            if w.name == name:
                return w
        raise GeometryError(f"no wire named {name!r} in layout")

    @property
    def channels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for w in self.wires:
            if w.channel not in seen:
                seen.append(w.channel)
        return tuple(seen)


@dataclass(frozen=True)
class RfChannelDrive:
    """One channel's rf current I(t) = amplitude * cos(omega t - phase).

    The channel adds amplitude * e^{i phase} times its unit field to the rf
    phasor B_1, whose field is Re(B_1 e^{-i omega t}): ``phase`` is a phase
    lag (see ``atomchip.rf``).
    """

    amplitude: float  # A
    phase: float      # rad

    def __post_init__(self) -> None:
        if not math.isfinite(self.amplitude) or not math.isfinite(self.phase):
            raise ConfigError("rf channel amplitude/phase must be finite")


@dataclass(frozen=True)
class CurrentConfig:
    """dc channel currents, uniform bias field and rf drive settings."""

    dc: Mapping[str, float] = field(default_factory=dict)
    bias: Vec3 = (0.0, 0.0, 0.0)
    rf: Mapping[str, RfChannelDrive] = field(default_factory=dict)
    rf_frequency: float = 0.0  # Hz

    def __post_init__(self) -> None:
        object.__setattr__(self, "dc", dict(self.dc))
        object.__setattr__(self, "rf", dict(self.rf))
        object.__setattr__(self, "bias", tuple(float(b) for b in self.bias))
        if len(self.bias) != 3:
            raise ConfigError("bias must be a 3-vector")
        for ch, amps in self.dc.items():
            if not math.isfinite(amps):
                raise ConfigError(f"dc current on channel {ch!r} must be finite")
        if not (self.rf_frequency >= 0.0):
            raise ConfigError("rf_frequency must be >= 0")

    def dc_current(self, channel: str) -> float:
        return float(self.dc.get(channel, 0.0))

    def with_dc(self, **channels: float) -> "CurrentConfig":
        dc = dict(self.dc)
        dc.update(channels)
        return replace(self, dc=dc)


@dataclass(frozen=True)
class AtomSpecies:
    """Trapped-state parameters: m_F*g_F*mu_B slope, mass and gravity vector."""

    label: str
    mass: float           # kg
    zeeman_slope: float   # J/T, > 0 for weak-field seekers
    gravity: Vec3 = (0.0, -STANDARD_GRAVITY, 0.0)

    def __post_init__(self) -> None:
        if not (self.mass > 0.0):
            raise ConfigError("species mass must be > 0")
        if not (self.zeeman_slope > 0.0):
            raise ConfigError("zeeman_slope must be > 0 for trapped states")
        object.__setattr__(self, "gravity", tuple(float(g) for g in self.gravity))


def rb87_f2m2() -> AtomSpecies:
    """Rb-87 in |F=2, m_F=2>: zeeman slope m_F*g_F*mu_B = mu_B."""
    return AtomSpecies(label="Rb87|F=2,mF=2", mass=RB87_MASS, zeeman_slope=BOHR_MAGNETON)


# ---------------------------------------------------------------------------
# cross-section discretization
# ---------------------------------------------------------------------------

def _segment_horizontal_normals(pts: np.ndarray, name: str) -> np.ndarray:
    d = np.diff(pts, axis=0)
    n = np.cross(np.broadcast_to(_Y_HAT, d.shape), d)
    lengths = np.linalg.norm(n, axis=1)
    if np.any(lengths < 1e-12 * np.linalg.norm(d, axis=1)):
        raise GeometryError(f"wire {name!r}: segment parallel to y has no width direction")
    return n / lengths[:, None]


def _miters(wire: WireSegmentPath) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the unit miter direction of a parallel offset of the
    centerline and its projection on the normal of the segment before it.

    An offset by ``h`` moves each node by ``miter * (h / denom)``; the end
    nodes move along their segment's normal (denom 1).
    """
    pts = wire.nodes
    normals = _segment_horizontal_normals(pts, wire.name)
    m = normals[:-1] + normals[1:]
    length = np.sqrt(_dot3(m, m))  # rounds as np.linalg.norm of each row
    if np.any(length < 1e-9):
        raise GeometryError(f"wire {wire.name!r}: 180-degree bend cannot be offset")
    miter = np.concatenate([normals[:1], m / length[:, None], normals[-1:]])
    denom = np.ones(len(pts))
    denom[1:-1] = _dot3(miter[1:-1], normals[:-1])
    return miter, denom


def discretize_wire(wire: WireSegmentPath, n_width: int, n_thickness: int) -> np.ndarray:
    """Tile the rectangular cross-section with n_width x n_thickness filaments.

    Returns the filament nodes as one (n_width * n_thickness, nodes, 3)
    array, thickness outer and width inner.  Each filament carries
    1 / (n_width * n_thickness) of the current and parallel-offsets the
    centerline with miter joins; a symmetric tiling keeps the centroid on
    the centerline.
    """
    if n_width < 1 or n_thickness < 1:
        raise GeometryError("n_width and n_thickness must be >= 1")
    h_offsets = ((np.arange(n_width) + 0.5) / n_width - 0.5) * wire.width
    v_offsets = ((np.arange(n_thickness) + 0.5) / n_thickness - 0.5) * wire.thickness
    miter, denom = _miters(wire)
    layer = wire.nodes + miter * (h_offsets[:, None] / denom)[..., None]  # one row per width
    fils = np.tile(layer, (n_thickness, 1, 1))
    fils[..., 1] += np.repeat(v_offsets, n_width)[:, None]
    return fils


# ---------------------------------------------------------------------------
# footprint overlap check
# ---------------------------------------------------------------------------

def _segment_distance_2d(p1, p2, q1, q2) -> float:
    """Min distance between 2D segments p1-p2 and q1-q2."""
    def point_seg(p, a, b):
        ab = b - a
        denom = float(np.dot(ab, ab))
        t = 0.0 if denom == 0.0 else float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
        return float(np.linalg.norm(p - (a + t * ab)))

    d1, d2 = p2 - p1, q2 - q1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(cross) > 1e-18:
        r = q1 - p1
        t = (r[0] * d2[1] - r[1] * d2[0]) / cross
        u = (r[0] * d1[1] - r[1] * d1[0]) / cross
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            return 0.0
    return min(
        point_seg(q1, p1, p2), point_seg(q2, p1, p2),
        point_seg(p1, q1, q2), point_seg(p2, q1, q2),
    )


def _y_interval(wire: WireSegmentPath) -> tuple[float, float]:
    ys = wire.nodes[:, 1]
    return float(ys.min() - wire.thickness / 2), float(ys.max() + wire.thickness / 2)


def _check_footprint_overlap(wires: Sequence[WireSegmentPath]) -> None:
    for i in range(len(wires)):
        for j in range(i + 1, len(wires)):
            a, b = wires[i], wires[j]
            alo, ahi = _y_interval(a)
            blo, bhi = _y_interval(b)
            if ahi < blo or bhi < alo:
                continue  # different layers
            pa = a.nodes[:, [0, 2]]
            pb = b.nodes[:, [0, 2]]
            clearance = (a.width + b.width) / 2.0
            for s in range(len(pa) - 1):
                for t in range(len(pb) - 1):
                    d = _segment_distance_2d(pa[s], pa[s + 1], pb[t], pb[t + 1])
                    if d < clearance * (1.0 - 1e-12):
                        raise GeometryError(
                            f"wire footprints overlap: {a.name!r} and {b.name!r} "
                            f"(centerline distance {d * 1e6:.3f} um < "
                            f"{clearance * 1e6:.3f} um)"
                        )


# ---------------------------------------------------------------------------
# conductor proximity
# ---------------------------------------------------------------------------

def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading ones.

    numpy evaluates each (1,3) @ (3,1) product with the same dot routine as
    ``np.dot`` on two 3-vectors, so every product rounds as it would point
    by point and boundary points are decided the same way; an elementwise
    sum can differ in the last bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class ConductorFrames:
    """Segment frames of ``wires``, compiled once for the conductor test.

    Each centerline segment keeps its start, unit tangent, length,
    horizontal normal and cross-section half-extents, in layout order.
    """

    def __init__(self, wires: Sequence[WireSegmentPath]):
        def stack(per_wire) -> np.ndarray:
            return np.concatenate([np.empty((0, 3)), *per_wire])

        self.n_wires = len(wires)
        counts = [len(w.nodes) - 1 for w in wires]
        d = stack(np.diff(w.nodes, axis=0) for w in wires)
        self.wire_index = np.repeat(np.arange(self.n_wires), counts)
        self.start = stack(w.nodes[:-1] for w in wires)
        self.length = np.sqrt(_dot3(d, d))
        self.tangent = d / self.length[:, None]
        self.normal = stack(_segment_horizontal_normals(w.nodes, w.name) for w in wires)
        self.half_width = np.repeat([w.width / 2.0 for w in wires], counts)
        self.half_thickness = np.repeat([w.thickness / 2.0 for w in wires], counts)
        # a point inside a wire is within half a thickness in y of a point
        # between two of its nodes, so it lies in this band; the slack keeps
        # rounding from cutting off a point the exact test puts inside
        ys = np.array([_y_interval(w) for w in wires]).reshape(-1, 2)
        self.y_band = (float(ys[:, 0].min(initial=np.inf)) - _ROUNDING_SLACK,
                       float(ys[:, 1].max(initial=-np.inf)) + _ROUNDING_SLACK)

    def first_containing(self, points, pad: float = 0.0) -> np.ndarray:
        """Per point, the index of the first wire whose volume (padded by
        ``pad``) contains it, or -1.

        Only points in ``y_band`` (padded by ``pad``) are tested, in pieces
        of at most _CONDUCTOR_PIECE point-segments.  A segment's box is
        clipped along its tangent, so a point beyond a segment end counts
        only within ``pad`` of the end face.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        index = np.full(len(points), -1)
        y = points[:, 1]
        suspect = ((y >= self.y_band[0] - pad) & (y <= self.y_band[1] + pad)).nonzero()[0]
        rows = max(1, _CONDUCTOR_PIECE // max(len(self.start), 1))
        for lo in range(0, len(suspect), rows):
            piece = suspect[lo:lo + rows]
            w = points[piece, None, :] - self.start[None, :, :]
            proj = _dot3(w, self.tangent)
            s = np.clip(proj, 0.0, self.length)
            r = w - s[..., None] * self.tangent
            inside = (
                (np.abs(proj - s) <= pad)  # nonzero only beyond the ends
                & (np.abs(_dot3(r, self.normal)) <= self.half_width + pad)
                & (np.abs(r[..., 1]) <= self.half_thickness + pad)
            )
            # segments run in layout order, so the lowest hit index is the first wire
            first = np.where(inside, self.wire_index, self.n_wires).min(axis=1)
            index[piece] = np.where(first < self.n_wires, first, -1)
        return index


def wire_containing(layout: ChipLayout, point: np.ndarray, pad: float = 0.0) -> str | None:
    """Name of the first wire in layout order containing ``point``, or None."""
    k = int(ConductorFrames(layout.wires).first_containing(point, pad)[0])
    return None if k < 0 else layout.wires[k].name


# ---------------------------------------------------------------------------
# configuration parsing / serialization
# ---------------------------------------------------------------------------

_WIRE_KEYS = {"name", "channel", "width_um", "thickness_um", "nodes_um"}
_RF_KEYS = {"frequency_kHz", "channels"}
_RF_CH_KEYS = {"amplitude_A", "phase_deg"}
_ATOM_KEYS = {"label", "mass_kg", "zeeman_slope_J_per_T", "gravity_m_per_s2"}
_TOP_KEYS = {"wires", "bias", "currents", "rf", "atom", "mirror_extent_um"}


def _reject_unknown(obj: Mapping, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_wire(obj, index: int) -> WireSegmentPath:
    where = f"wires[{index}]"
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where}: expected an object")
    _reject_unknown(obj, _WIRE_KEYS, where)
    name = _require(obj, "name", where)
    nodes_um = _require(obj, "nodes_um", where)
    if not isinstance(nodes_um, Sequence) or isinstance(nodes_um, str):
        raise ConfigError(f"{where}.nodes_um: expected a list of 3-vectors")
    nodes = []
    for k, node in enumerate(nodes_um):
        if not isinstance(node, Sequence) or len(node) != 3:
            raise ConfigError(f"{where}.nodes_um[{k}]: expected [x, y, z] in um")
        nodes.append([_as_number(c, f"{where}.nodes_um[{k}]") * UM for c in node])
    try:
        return WireSegmentPath(
            name=str(name),
            channel=str(obj.get("channel", name)),
            nodes=nodes,
            width=_as_number(_require(obj, "width_um", where), f"{where}.width_um") * UM,
            thickness=_as_number(_require(obj, "thickness_um", where), f"{where}.thickness_um") * UM,
        )
    except GeometryError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_atom(obj) -> AtomSpecies:
    if not isinstance(obj, Mapping):
        raise ConfigError("atom: expected an object")
    _reject_unknown(obj, _ATOM_KEYS, "atom")
    default = rb87_f2m2()
    label = str(obj.get("label", default.label))
    if set(obj) <= {"label"} and label.lower().startswith("rb87"):
        return replace(default, label=label)
    gravity = obj.get("gravity_m_per_s2", default.gravity)
    if not isinstance(gravity, Sequence) or len(gravity) != 3:
        raise ConfigError("atom.gravity_m_per_s2: expected [gx, gy, gz]")
    return AtomSpecies(
        label=label,
        mass=_as_number(_require(obj, "mass_kg", "atom"), "atom.mass_kg"),
        zeeman_slope=_as_number(
            _require(obj, "zeeman_slope_J_per_T", "atom"), "atom.zeeman_slope_J_per_T"
        ),
        gravity=tuple(_as_number(g, "atom.gravity_m_per_s2") for g in gravity),
    )


def parse_config(obj: Mapping) -> tuple[ChipLayout, CurrentConfig, AtomSpecies]:
    """Build (layout, currents, species) from a parsed JSON config tree.

    Sections: ``wires`` (required), ``bias`` [G], ``currents`` {channel: A},
    ``rf`` {frequency_kHz, channels: {name: {amplitude_A, phase_deg}}},
    ``atom`` (defaults to Rb87 |2,2>).  Lengths are in um.  Unknown keys are
    rejected with the offending path.
    """
    if not isinstance(obj, Mapping):
        raise ConfigError("config root: expected an object")
    _reject_unknown(obj, _TOP_KEYS, "config root")

    wires_obj = _require(obj, "wires", "config root")
    if not isinstance(wires_obj, Sequence):
        raise ConfigError("wires: expected a list")
    if len(wires_obj) == 0:
        raise ConfigError("wires: at least one wire is required")
    wires = tuple(_parse_wire(w, i) for i, w in enumerate(wires_obj))

    mirror = obj.get("mirror_extent_um")
    if mirror is not None:
        if not isinstance(mirror, Sequence) or len(mirror) != 2:
            raise ConfigError("mirror_extent_um: expected [x_extent, z_extent]")
        mirror = tuple(_as_number(v, "mirror_extent_um") * UM for v in mirror)
    try:
        layout = ChipLayout(wires=wires, mirror_extent=mirror)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc

    bias_obj = obj.get("bias", [0.0, 0.0, 0.0])
    if not isinstance(bias_obj, Sequence) or len(bias_obj) != 3:
        raise ConfigError("bias: expected [Bx, By, Bz] in G")
    bias = tuple(_as_number(b, "bias") * GAUSS for b in bias_obj)

    currents_obj = obj.get("currents", {})
    if not isinstance(currents_obj, Mapping):
        raise ConfigError("currents: expected {channel: amperes}")
    known = set(layout.channels)
    dc = {}
    for ch, amps in currents_obj.items():
        if ch not in known:
            raise ConfigError(f"currents: unknown channel {ch!r}")
        dc[str(ch)] = _as_number(amps, f"currents[{ch!r}]")

    rf_obj = obj.get("rf", {})
    if not isinstance(rf_obj, Mapping):
        raise ConfigError("rf: expected an object")
    _reject_unknown(rf_obj, _RF_KEYS, "rf")
    rf_frequency = _as_number(rf_obj.get("frequency_kHz", 0.0), "rf.frequency_kHz") * KHZ
    rf = {}
    channels_obj = rf_obj.get("channels", {})
    if not isinstance(channels_obj, Mapping):
        raise ConfigError("rf.channels: expected an object")
    for ch, drive in channels_obj.items():
        if ch not in known:
            raise ConfigError(f"rf.channels: unknown channel {ch!r}")
        if not isinstance(drive, Mapping):
            raise ConfigError(f"rf.channels[{ch!r}]: expected an object")
        _reject_unknown(drive, _RF_CH_KEYS, f"rf.channels[{ch!r}]")
        rf[str(ch)] = RfChannelDrive(
            amplitude=_as_number(drive.get("amplitude_A", 0.0), f"rf.channels[{ch!r}].amplitude_A"),
            phase=_as_number(drive.get("phase_deg", 0.0), f"rf.channels[{ch!r}].phase_deg") * DEG,
        )
    if any(d.amplitude != 0.0 for d in rf.values()) and rf_frequency <= 0.0:
        raise ConfigError("rf.frequency_kHz must be > 0 when any rf amplitude is nonzero")

    currents = CurrentConfig(dc=dc, bias=bias, rf=rf, rf_frequency=rf_frequency)
    species = _parse_atom(obj.get("atom", {}))
    return layout, currents, species


def load_layout(text: str) -> tuple[ChipLayout, CurrentConfig, AtomSpecies]:
    """Parse the JSON configuration document in ``text``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(obj)


def load_layout_file(path) -> tuple[ChipLayout, CurrentConfig, AtomSpecies]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return load_layout(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _in_unit(value: float, factor: float) -> float:
    """Divide by ``factor`` preferring a result that multiplies back exactly."""
    u = value / factor
    if u * factor == value:
        return u
    for cand in (math.nextafter(u, -math.inf), math.nextafter(u, math.inf)):
        if cand * factor == value:
            return cand
    return u


def serialize_config(layout: ChipLayout, currents: CurrentConfig, species: AtomSpecies) -> str:
    """Emit the JSON config document; inverse of :func:`load_layout`."""
    obj = {
        "wires": [
            {
                "name": w.name,
                "channel": w.channel,
                "width_um": _in_unit(w.width, UM),
                "thickness_um": _in_unit(w.thickness, UM),
                "nodes_um": [[_in_unit(c, UM) for c in node] for node in w.nodes.tolist()],
            }
            for w in layout.wires
        ],
        "bias": [_in_unit(b, GAUSS) for b in currents.bias],
        "currents": {ch: amps for ch, amps in currents.dc.items()},
        "rf": {
            "frequency_kHz": _in_unit(currents.rf_frequency, KHZ),
            "channels": {
                ch: {"amplitude_A": d.amplitude, "phase_deg": _in_unit(d.phase, DEG)}
                for ch, d in currents.rf.items()
            },
        },
        "atom": {
            "label": species.label,
            "mass_kg": species.mass,
            "zeeman_slope_J_per_T": species.zeeman_slope,
            "gravity_m_per_s2": list(species.gravity),
        },
    }
    if layout.mirror_extent is not None:
        obj["mirror_extent_um"] = [_in_unit(v, UM) for v in layout.mirror_extent]
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# builtin layout
# ---------------------------------------------------------------------------

# Central sections (published): outer pair 100 um wide at 300 um
# centre-to-centre, inner pair 50 um wide at 85 um, all 7 mm long, 3 um thick
# gold.  Lead routing and the end wires are NOT published; these are
# placeholders (leads fan out as parallel ~60 degree diagonals so the four
# Z's never overlap; end wires sit at z = +-5.8 mm spanning +-2 mm along x).
_CENTRAL_LENGTH = 7e-3
_INNER_WIDTH = 50e-6
_INNER_SEPARATION = 85e-6
_OUTER_WIDTH = 100e-6
_OUTER_SEPARATION = 300e-6
_THICKNESS = 3e-6
_LEAD_DX = 1.0e-3
_LEAD_DZ = 1.732e-3
_END_WIRE_Z = 5.8e-3
_END_WIRE_HALFSPAN = 2.0e-3
_END_WIRE_WIDTH = 100e-6
# operating point: 2 A on inner wire "z2" with a 24.8 G x bias
_BIAS_X = 24.8 * GAUSS
_LOADED_CHANNEL = "z2"
_LOADED_CURRENT = 2.0


def builtin_paper_layout() -> tuple[ChipLayout, CurrentConfig, AtomSpecies]:
    """Six-wire trapping layout: four parallel Z-wires plus two end wires.

    The dimensions and the operating point are the module constants above;
    every channel but the loaded one carries 0 A.  The layout is built
    through :func:`parse_config` from a um-valued config tree, so
    serialize_config/load_layout round-trips it exactly.
    """
    def um(v: float) -> float:
        return _in_unit(v, UM)

    y = -um(_THICKNESS) / 2.0
    c = um(_CENTRAL_LENGTH) / 2.0
    dx, dz = um(_LEAD_DX), um(_LEAD_DZ)
    hspan, z_e = um(_END_WIRE_HALFSPAN), um(_END_WIRE_Z)

    def z_wire(name: str, x0: float, width: float) -> dict:
        return {
            "name": name, "channel": name,
            "width_um": um(width), "thickness_um": um(_THICKNESS),
            "nodes_um": [
                [x0 - dx, y, -c - dz],
                [x0, y, -c],
                [x0, y, c],
                [x0 + dx, y, c + dz],
            ],
        }

    def end_wire(name: str, z0: float) -> dict:
        return {
            "name": name, "channel": name,
            "width_um": um(_END_WIRE_WIDTH), "thickness_um": um(_THICKNESS),
            "nodes_um": [[-hspan, y, z0], [hspan, y, z0]],
        }

    wires = [
        z_wire("z1", -um(_OUTER_SEPARATION) / 2.0, _OUTER_WIDTH),
        z_wire("z2", -um(_INNER_SEPARATION) / 2.0, _INNER_WIDTH),
        z_wire("z3", um(_INNER_SEPARATION) / 2.0, _INNER_WIDTH),
        z_wire("z4", um(_OUTER_SEPARATION) / 2.0, _OUTER_WIDTH),
        end_wire("e1", -z_e),
        end_wire("e2", z_e),
    ]
    config = {
        "wires": wires,
        "bias": [_in_unit(_BIAS_X, GAUSS), 0.0, 0.0],
        "currents": {w["channel"]: 0.0 for w in wires},
        "rf": {"frequency_kHz": 0.0, "channels": {}},
        "mirror_extent_um": [24000.0, 26000.0],
    }
    config["currents"][_LOADED_CHANNEL] = _LOADED_CURRENT
    return parse_config(config)
