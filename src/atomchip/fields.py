"""Static magnetic fields from discretized wires plus a uniform bias.

Each wire is replaced by ``n_width x n_thickness`` thin filaments; each
filament polyline segment contributes the closed-form Biot-Savart field of
a finite straight current.  Evaluation is linear in every channel current,
and per-point summation order is fixed (wires in layout order, filaments in
tiling order, segments along the path) so results are reproducible bit for
bit regardless of how map evaluations are distributed over workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import FieldDomainError
from .geometry import (
    ChipLayout, ConductorFrames, CurrentConfig, discretize_wire, wire_containing,
)

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

# Points per field_map work item and per conductor-test piece.  Per-point
# arithmetic does not depend on how points are chunked, so results do not
# either; the chunk only bounds memory and is the unit handed to workers.
_CHUNK = 1024
_KERNEL_POINT_SEGMENTS = 2**18  # points x segments per kernel or conductor-test call
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


def _segment_directions(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per segment, its vector divided by its squared length, (S,3)."""
    seg = ends - starts
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    return seg / seg_len2[:, None]


def _segment_field(points: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                   weights: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Biot-Savart field of weighted straight segments at unit current.

    Closed-form finite-segment expression; (N,3) result for (N,3) points.
    ``d`` is ``_segment_directions(starts, ends)``, passed by callers that
    evaluate the same segments many times.
    """
    if d is None:
        d = _segment_directions(starts, ends)
    a1 = points[:, None, :] - starts[None, :, :]
    a2 = points[:, None, :] - ends[None, :, :]
    # a1 x d, written out: the same products and differences as np.cross,
    # without its per-call overhead, straight into one C-ordered array
    f = np.empty_like(a1)
    np.subtract(a1[..., 1] * d[:, 2], a1[..., 2] * d[:, 1], out=f[..., 0])
    np.subtract(a1[..., 2] * d[:, 0], a1[..., 0] * d[:, 2], out=f[..., 1])
    np.subtract(a1[..., 0] * d[:, 1], a1[..., 1] * d[:, 0], out=f[..., 2])
    # the arithmetic of np.linalg.norm(a, axis=2), without its checks
    n1 = np.sqrt(np.add.reduce(a1 * a1, axis=2))
    n2 = np.sqrt(np.add.reduce(a2 * a2, axis=2))
    sine = np.einsum("sj,nsj->ns", d, a2) / n2 - np.einsum("sj,nsj->ns", d, a1) / n1
    s2 = np.einsum("nsj,nsj->ns", f, f)
    online = s2 < _ONLINE_EPS
    any_online = online.any()
    if any_online:
        s2 = np.where(online, 1.0, s2)
    coeff = 1e-7 * weights[None, :] * sine / s2  # 1e-7 == mu_0 / 4 pi
    if any_online:
        coeff = np.where(online, 0.0, coeff)
    return np.einsum("ns,nsj->nj", coeff, f)


def _rows_per_call(n_segments: int) -> int:
    """Points per (points x segments) array: at most _CHUNK, and few enough
    that the array stays under _KERNEL_POINT_SEGMENTS elements."""
    return max(1, min(_CHUNK, _KERNEL_POINT_SEGMENTS // max(n_segments, 1)))


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
        self._channels: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._directions: dict[str, np.ndarray] = {}
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
            starts, ends = np.concatenate(starts), np.concatenate(ends)
            self._channels[channel] = (starts, ends, np.concatenate(weights))
            self._directions[channel] = _segment_directions(starts, ends)

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(self._channels)

    def channel_unit_field(self, channel: str, points: np.ndarray) -> np.ndarray:
        """Field of one channel per ampere at ``points`` (N,3) -> (N,3)."""
        starts, ends, weights = self._channels[channel]
        directions = self._directions[channel]
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rows = _rows_per_call(len(starts))
        if len(points) <= rows:
            return _segment_field(points, starts, ends, weights, directions)
        out = np.empty_like(points)
        for lo in range(0, len(points), rows):
            out[lo:lo + rows] = _segment_field(points[lo:lo + rows], starts, ends, weights,
                                               directions)
        return out

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
        rows = _rows_per_call(len(self._frames.start))
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
    name = wire_containing(model.layout, p, pad=step)
    if name is not None:
        raise FieldDomainError(
            f"Jacobian point within one step ({step * 1e6:.2f} um) of wire {name!r}"
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
