"""Static magnetic fields from discretized wires plus a uniform bias.

Each wire is replaced by ``n_width x n_thickness`` thin filaments; each
filament polyline segment contributes the closed-form Biot-Savart field of
a finite straight current.  Evaluation is linear in every channel current,
and per-point summation order is fixed (wires in layout order, filaments in
tiling order, segments along the path) so results are reproducible bit for
bit regardless of how map evaluations are distributed over workers.

The kernel's roundings are fixed too, whatever the number of points or the
block sizes:

* a channel's field at a point is the sum of its segment terms taken one
  after another in segment order, starting from 0: ``((0 + t0) + t1) + ...``;
* the squared norms |a|^2 of the vectors from the segment ends to the point
  add as ``(x*x + y*y) + z*z``;
* the dot products d.a and the squared norm |a1 x d|^2 add as
  ``(x*x' + z*z') + y*y'``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FieldDomainError
from .geometry import ChipLayout, ConductorFrames, CurrentConfig, discretize_wire
from .geometry import wire_containing  # noqa: F401  (bench/tracing.py spans it here)

DEFAULT_N_WIDTH = 8
DEFAULT_N_THICKNESS = 3
DEFAULT_JACOBIAN_STEP = 0.5e-6  # m

# Documented finite-difference tolerance for the div/curl invariants of
# field_jacobian at the default step: residuals stay below
#   REL_FD_TOL * ||J||_F + ABS_FD_TOL
# for points at least ~100 steps (50 um) from any conductor; the truncation
# error scales as (step/distance)^2, so halve the step (or use Richardson)
# to probe closer.  div B vanishes for
# any superposition of segments; curl B additionally requires the current
# path to be closed or effectively infinite (a finite OPEN polyline models a
# truncated circuit whose non-conserved endpoints contribute a real curl
# ~ mu0 I / 4 pi d^2 at distance d, not a solver error).  Validate curl on
# layouts whose endpoints are far from the probe region.
REL_FD_TOL = 2e-4
ABS_FD_TOL = 1e-6  # T/m

# Points per field_map work item.  Per-point arithmetic does not depend on
# how points are chunked, so results do not either; the chunk only bounds
# memory and is the unit handed to workers.
_CHUNK = 1024
_SEGMENT_BLOCK = 256  # segments per kernel block
# points x segments per kernel block or conductor-test piece; a kernel block
# holds ~28 doubles per point-segment, 1.8 MB at this size, which fits a 2 MB
# L2 cache (at 2**14 a 1201-point slice of the builtin chip took ~1.5x longer)
_KERNEL_POINT_SEGMENTS = 2**13
# point coordinates in the kernel's layout, see _SegmentTable.ends_starts
_AXES = np.array([0, 1, 2, 0, 1, 0, 1, 2, 0, 1])
_DOMAIN_PAD = 1e-9  # m, default padding of the conductor test
_ROUNDING_SLACK = 1e-12  # m, margin of the conductor test's height prefilter
_ONLINE_EPS = 1e-24  # (rho/L)^2 threshold: point on a segment's line contributes 0


@dataclass(frozen=True)
class FieldSample:
    """Field vector (and optionally its Jacobian) at one point, SI units."""

    point: tuple[float, float, float]
    B: tuple[float, float, float]
    magnitude: float
    grad_B: tuple[tuple[float, float, float], ...] | None = None  # dB_i/dx_j

    @classmethod
    def make(cls, point, B, grad=None) -> "FieldSample":
        B = tuple(float(b) for b in B)
        return cls(
            point=tuple(float(c) for c in point),
            B=B,
            magnitude=float(np.linalg.norm(B)),
            grad_B=None if grad is None else tuple(tuple(float(v) for v in row) for row in grad),
        )

    @property
    def divergence(self) -> float:
        if self.grad_B is None:
            raise ValueError("sample has no Jacobian")
        g = np.asarray(self.grad_B)
        return float(np.trace(g))

    @property
    def curl(self) -> tuple[float, float, float]:
        if self.grad_B is None:
            raise ValueError("sample has no Jacobian")
        g = np.asarray(self.grad_B)
        return (
            float(g[2, 1] - g[1, 2]),
            float(g[0, 2] - g[2, 0]),
            float(g[1, 0] - g[0, 1]),
        )


class _SegmentTable(NamedTuple):
    """One channel's segments, laid out for the kernel: one row per
    coordinate, one column per segment."""

    ends_starts: np.ndarray  # (2, 5, S): each end, then each start, as (x, y, z, x, y)
    d_xzy: np.ndarray  # (3, S): segment vector / squared length, as (x, z, y)
    d_zxy: np.ndarray  # (3, S): the same as (z, x, y)
    d_yzx: np.ndarray  # (3, S): the same as (y, z, x)
    scale: np.ndarray  # (S, 1): 1e-7 * current fraction; 1e-7 == mu_0 / 4 pi

    @classmethod
    def build(cls, starts: np.ndarray, ends: np.ndarray,
              weights: np.ndarray) -> "_SegmentTable":
        seg = ends - starts
        d = (seg / np.einsum("ij,ij->i", seg, seg)[:, None]).T
        return cls(
            ends_starts=np.ascontiguousarray(
                np.concatenate([ends, ends[:, :2], starts, starts[:, :2]], axis=1).T
            ).reshape(2, 5, -1),
            d_xzy=d[[0, 2, 1]], d_zxy=d[[2, 0, 1]], d_yzx=d[[1, 2, 0]],
            scale=(1e-7 * weights)[:, None],
        )


def _segment_field(points: np.ndarray, table: _SegmentTable) -> np.ndarray:
    """Biot-Savart field of weighted straight segments at unit current.

    Closed-form finite-segment expression; (N,3) result for (N,3) points.
    Takes the points in pieces of at most _KERNEL_POINT_SEGMENTS // block
    points (see _piece_field).
    """
    rows = max(1, _KERNEL_POINT_SEGMENTS // min(_SEGMENT_BLOCK, len(table.scale)))
    out = np.empty((len(points), 3))
    for lo in range(0, len(points), rows):
        out[lo:lo + rows] = _piece_field(points[lo:lo + rows], table).T
    return out


def _piece_field(points: np.ndarray, table: _SegmentTable) -> np.ndarray:
    """(3, N) field of ``table``'s segments at ``points``, _segment_field's
    arithmetic on blocks of _SEGMENT_BLOCK segments at a time, each quantity
    one contiguous (segments x points) plane; each block's terms are added to
    a running per-point sum in segment order (module docstring)."""
    n_seg = len(table.scale)
    block = min(_SEGMENT_BLOCK, n_seg)
    p = points[:, _AXES].T.reshape(2, 5, 1, -1)
    n = p.shape[-1]
    a_buf = np.empty((2, 5, block, n))
    r_buf = np.empty((4, 3, block, n))
    f_buf = np.empty((3, block, n))
    terms = np.empty((block + 1, 3, n))  # running sum, then one row per segment
    terms[0] = 0.0
    for lo in range(0, n_seg, block):
        hi = min(lo + block, n_seg)
        b = hi - lo
        # a2 = point - end, a1 = point - start, each as (x, y, z, x, y)
        a = np.subtract(p, table.ends_starts[:, :, lo:hi, None], out=a_buf[:, :, :b])
        # products: a2 * a2 and a1 * a1 as (x, y, z), a2 * d and a1 * d as (x, z, y)
        r = r_buf[:, :, :b]
        np.multiply(a[:, :3], a[:, :3], out=r[:2])
        np.multiply(a[:, ::2], table.d_xzy[:, lo:hi, None], out=r[2:])
        sums = np.add(r[:, 0], r[:, 1], out=r[:, 0])
        sums += r[:, 2]  # |a2|^2, |a1|^2, d.a2, d.a1
        np.sqrt(sums[:2], out=sums[:2])
        sums[2:] /= sums[:2]
        sine = np.subtract(sums[2], sums[3], out=sums[2])
        # f = a1 x d
        a1 = a[1]
        f = np.multiply(a1[1:4], table.d_zxy[:, lo:hi, None], out=f_buf[:, :b])
        f -= np.multiply(a1[2:5], table.d_yzx[:, lo:hi, None], out=r[0])
        ff = np.multiply(f, f, out=r[0])
        s2 = np.add(ff[0], ff[2], out=ff[0])
        s2 += ff[1]
        online = s2 < _ONLINE_EPS
        any_online = np.count_nonzero(online) > 0
        if any_online:
            s2[online] = 1.0
        coeff = np.multiply(table.scale[lo:hi], sine, out=sine)
        coeff /= s2
        if any_online:
            coeff[online] = 0.0
        np.multiply(coeff, f, out=terms[1:b + 1].transpose(1, 0, 2))
        # numpy sums pairwise along a contiguous reduced axis (a segments
        # axis of a single point would be one); reduced over its first
        # axis, this (segments, 3, points) array is added row after row
        terms[0] = np.add.reduce(terms[:b + 1], axis=0)
    return terms[0]


class BiotSavartModel:
    """Compiled per-channel segment arrays for one layout + discretization."""

    def __init__(self, layout: ChipLayout, n_width: int = DEFAULT_N_WIDTH,
                 n_thickness: int = DEFAULT_N_THICKNESS):
        self.layout = layout
        self.n_width = n_width
        self.n_thickness = n_thickness
        # points above every conductor need no per-wire inside test; the cut
        # sits _ROUNDING_SLACK higher so that a point the exact test's
        # arithmetic puts inside is never cut off by rounding of its own
        self._y_clearance = max(
            (w.points[:, 1].max() + w.thickness / 2.0 for w in layout.wires),
            default=0.0,
        ) + _ROUNDING_SLACK
        self._frames = ConductorFrames(layout.wires)
        self._channels: dict[str, _SegmentTable] = {}
        for channel in layout.channels:
            starts, ends, weights = [], [], []
            for wire in layout.wires:
                if wire.channel != channel:
                    continue
                for fil in discretize_wire(wire, n_width, n_thickness):
                    pts = fil.points
                    starts.append(pts[:-1])
                    ends.append(pts[1:])
                    weights.append(np.full(len(pts) - 1, fil.fraction))
            self._channels[channel] = _SegmentTable.build(
                np.concatenate(starts), np.concatenate(ends), np.concatenate(weights))

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(self._channels)

    def channel_unit_field(self, channel: str, points: np.ndarray) -> np.ndarray:
        """Field of one channel per ampere at ``points`` (N,3) -> (N,3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return _segment_field(points, self._channels[channel])

    def field(self, currents: CurrentConfig, points: np.ndarray,
              check_domain: bool = True) -> np.ndarray:
        """B = bias + sum over channels of I_ch * unit field, (N,3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if check_domain:
            _assert_outside_conductors(self, points)
        B = np.tile(np.asarray(currents.bias, dtype=float), (len(points), 1))
        for channel in self._channels:
            amps = currents.dc_current(channel)
            if amps != 0.0:
                B = B + amps * self.channel_unit_field(channel, points)
        if not np.isfinite(B).all():
            raise FieldDomainError("non-finite field value (point too close to a filament)")
        return B

    def conductor_index(self, points: np.ndarray, pad: float = _DOMAIN_PAD) -> np.ndarray:
        """Per point, the index into ``layout.wires`` of the first wire that
        contains it (padded by ``pad``), or -1 outside every conductor."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        index = np.full(len(points), -1)
        suspect = (points[:, 1] <= self._y_clearance + pad).nonzero()[0]
        rows = max(1, _KERNEL_POINT_SEGMENTS // max(len(self._frames.start), 1))
        for lo in range(0, len(suspect), rows):
            piece = suspect[lo:lo + rows]
            index[piece] = self._frames.first_containing(points[piece], pad)
        return index


def _assert_outside_conductors(model: BiotSavartModel, points: np.ndarray) -> None:
    """Raise FieldDomainError naming the first point inside a wire."""
    if not (points[:, 1] <= model._y_clearance + _DOMAIN_PAD).any():
        return  # every point is above every conductor
    index = model.conductor_index(points)
    hits = (index >= 0).nonzero()[0]
    if len(hits):
        p = points[hits[0]]
        raise FieldDomainError(
            f"point ({p[0] * 1e6:.3f}, {p[1] * 1e6:.3f}, {p[2] * 1e6:.3f}) um "
            f"lies inside wire {model.layout.wires[index[hits[0]]].name!r}"
        )


def field_at(model: BiotSavartModel, currents: CurrentConfig, point) -> FieldSample:
    """Field sample (B only) at one point; errors if inside a conductor."""
    B = model.field(currents, np.asarray(point, dtype=float))[0]
    return FieldSample.make(point, B)


def field_jacobian(model: BiotSavartModel, currents: CurrentConfig, point,
                   step: float = DEFAULT_JACOBIAN_STEP, richardson: bool = False) -> np.ndarray:
    """Central-difference Jacobian dB_i/dx_j (3x3, T/m).

    The point must clear every conductor by at least ``step``.  With
    ``richardson`` a second pass at step/2 removes the leading h^2 error.
    """
    p = np.asarray(point, dtype=float)
    index = model.conductor_index(p[None], pad=step)[0]
    if index >= 0:
        raise FieldDomainError(
            f"Jacobian point within one step ({step * 1e6:.2f} um) "
            f"of wire {model.layout.wires[index].name!r}"
        )

    def jac(h: float) -> np.ndarray:
        offsets = np.zeros((6, 3))
        for j in range(3):
            offsets[2 * j, j] = h
            offsets[2 * j + 1, j] = -h
        B = model.field(currents, p[None, :] + offsets, check_domain=False)
        J = np.empty((3, 3))
        for j in range(3):
            J[:, j] = (B[2 * j] - B[2 * j + 1]) / (2.0 * h)
        return J

    J = jac(step)
    if richardson:
        J = (4.0 * jac(step / 2.0) - J) / 3.0
    return J


def sample_with_jacobian(model: BiotSavartModel, currents: CurrentConfig, point,
                         step: float = DEFAULT_JACOBIAN_STEP) -> FieldSample:
    B = model.field(currents, np.asarray(point, dtype=float))[0]
    J = field_jacobian(model, currents, point, step=step)
    return FieldSample.make(point, B, grad=J)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned lattice; points iterate row-major (x slowest, z fastest)."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    z: tuple[float, ...]

    @classmethod
    def from_ranges(cls, x, y, z) -> "GridSpec":
        return cls(tuple(map(float, np.atleast_1d(x))),
                   tuple(map(float, np.atleast_1d(y))),
                   tuple(map(float, np.atleast_1d(z))))

    def points(self) -> np.ndarray:
        xs, ys, zs = np.meshgrid(self.x, self.y, self.z, indexing="ij")
        return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])


def field_map(model: BiotSavartModel, currents: CurrentConfig, grid: GridSpec,
              threads: int = 1, with_jacobian: bool = False,
              jacobian_step: float = DEFAULT_JACOBIAN_STEP) -> list[FieldSample]:
    """Evaluate the field over a grid; identical to pointwise field_at.

    Results are ordered row-major over the grid and are bitwise independent
    of ``threads`` (fixed chunk size, per-point reduction order unchanged).
    """
    points = grid.points()
    _assert_outside_conductors(model, points)
    if with_jacobian:
        bad = model.conductor_index(points, pad=jacobian_step) >= 0
        if np.any(bad):
            p = points[np.argmax(bad)]
            raise FieldDomainError(
                f"grid point ({p[0] * 1e6:.3f}, {p[1] * 1e6:.3f}, {p[2] * 1e6:.3f}) um "
                f"within one Jacobian step of a conductor"
            )

    chunks = [(lo, min(lo + _CHUNK, len(points)))
              for lo in range(0, len(points), _CHUNK)]

    def eval_chunk(bounds):
        lo, hi = bounds
        B = model.field(currents, points[lo:hi], check_domain=False)
        if not with_jacobian:
            return lo, B, None
        J = np.empty((hi - lo, 3, 3))
        h = jacobian_step
        shifted = {}
        for j in range(3):
            for sign in (1.0, -1.0):
                off = np.zeros(3)
                off[j] = sign * h
                shifted[(j, sign)] = model.field(currents, points[lo:hi] + off,
                                                 check_domain=False)
        for j in range(3):
            J[:, :, j] = (shifted[(j, 1.0)] - shifted[(j, -1.0)]) / (2.0 * h)
        return lo, B, J

    results: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for lo, B, J in pool.map(eval_chunk, chunks):
                results[lo] = (B, J)
    else:
        for bounds in chunks:
            lo, B, J = eval_chunk(bounds)
            results[lo] = (B, J)

    samples: list[FieldSample] = []
    for lo, hi in chunks:
        B, J = results[lo]
        for k in range(hi - lo):
            grad = None if J is None else J[k]
            samples.append(FieldSample.make(points[lo + k], B[k], grad=grad))
    return samples


def field_map_csv_rows(samples: list[FieldSample]) -> list[str]:
    """Rows for the field-map CSV: x_um,y_um,z_um,Bx_G,By_G,Bz_G,Bmag_G."""
    rows = ["x_um,y_um,z_um,Bx_G,By_G,Bz_G,Bmag_G"]
    for s in samples:
        x, y, z = (c * 1e6 for c in s.point)
        bx, by, bz = (b * 1e4 for b in s.B)
        rows.append(
            f"{x:.9g},{y:.9g},{z:.9g},{bx:.9g},{by:.9g},{bz:.9g},{s.magnitude * 1e4:.9g}"
        )
    return rows
