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

The Jacobian dB_i/dx_j is closed form per segment too and is summed in
the same blocked segment order, so it does not depend on chunking or
threads either.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FieldDomainError
from .geometry import ChipLayout, ConductorFrames, CurrentConfig, _dot3, discretize_wire
from .geometry import wire_containing  # noqa: F401  (bench/tracing.py spans it here)

DEFAULT_N_WIDTH = 8
DEFAULT_N_THICKNESS = 3

# Points per field_map work item.  Per-point arithmetic does not depend on
# how points are chunked, so results do not either; the chunk only bounds
# memory and is the unit handed to workers.
_CHUNK = 1024
_SEGMENT_BLOCK = 256  # segments per kernel block
# points x segments per kernel block; a block holds ~28 doubles per
# point-segment, 1.8 MB at this size, which fits a 2 MB L2 cache (at 2**14 a
# 1201-point slice of the builtin chip took ~1.5x longer)
_KERNEL_POINT_SEGMENTS = 2**13
# point coordinates in the kernel's layout, see _SegmentTable.ends_starts
_AXES = np.array([0, 1, 2, 0, 1, 0, 1, 2, 0, 1])
DOMAIN_PAD = 1e-9  # m, padding of the conductor test
_ONLINE_EPS = 1e-24  # (rho/L)^2 threshold: point on a segment's line contributes 0


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
              fraction: float) -> "_SegmentTable":
        seg = ends - starts
        d = (seg / np.einsum("ij,ij->i", seg, seg)[:, None]).T
        return cls(
            ends_starts=np.ascontiguousarray(
                np.concatenate([ends, ends[:, :2], starts, starts[:, :2]], axis=1).T
            ).reshape(2, 5, -1),
            d_xzy=d[[0, 2, 1]], d_zxy=d[[2, 0, 1]], d_yzx=d[[1, 2, 0]],
            scale=np.full((len(seg), 1), 1e-7 * fraction),
        )


def _segment_field(points: np.ndarray, table: _SegmentTable,
                   jacobian: bool = False) -> np.ndarray:
    """Biot-Savart field of weighted straight segments at unit current.

    Closed-form finite-segment expression; (N,3) result for (N,3) points,
    or with ``jacobian`` (N,12): the field, then dB_i/dx_j row by row.
    Takes the points in pieces of at most _KERNEL_POINT_SEGMENTS // block
    points (see _piece_field).
    """
    rows = max(1, _KERNEL_POINT_SEGMENTS // min(_SEGMENT_BLOCK, len(table.scale)))
    out = np.empty((len(points), 12 if jacobian else 3))
    for lo in range(0, len(points), rows):
        out[lo:lo + rows] = _piece_field(points[lo:lo + rows], table, jacobian).T
    return out


def _piece_field(points: np.ndarray, table: _SegmentTable,
                 jacobian: bool = False) -> np.ndarray:
    """(3, N) field of ``table``'s segments at ``points``, _segment_field's
    arithmetic on blocks of _SEGMENT_BLOCK segments at a time, each quantity
    one contiguous (segments x points) plane; each block's terms are added to
    a running per-point sum in segment order (module docstring).

    With ``jacobian`` the result is (12, N): the field, then the closed-form
    dB_i/dx_j of each segment term coeff * f (f = a1 x d), summed the same
    way: d(coeff f)/dx = f (x) grad(coeff) - coeff [d]x, where
    grad(d.a / |a|) = d / |a| - (d.a) a / |a|^3 and grad |f|^2 = 2 d x f.
    """
    n_seg = len(table.scale)
    block = min(_SEGMENT_BLOCK, n_seg)
    p = points[:, _AXES].T.reshape(2, 5, 1, -1)
    n = p.shape[-1]
    a_buf = np.empty((2, 5, block, n))
    r_buf = np.empty((4, 3, block, n))
    f_buf = np.empty((3, block, n))
    terms = np.empty((block + 1, 3, n))  # running sum, then one row per segment
    terms[0] = 0.0
    if jacobian:
        # f (x) grad(coeff) as 9 rows, then coeff * d as 3 rows
        jterms = np.empty((block + 1, 12, n))
        jterms[0] = 0.0
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
        if jacobian:
            d = table.d_xzy[[0, 2, 1], lo:hi, None]
            inv = 1.0 / sums[:2]
            along = sums[2:] * inv * inv
            grad_sine = d * (inv[0] - inv[1]) - along[0] * a[0, :3] + along[1] * a[1, :3]
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
        if jacobian:
            grad_coeff = table.scale[lo:hi] * grad_sine
            grad_coeff -= 2.0 * coeff * np.cross(d, f, axis=0)
            grad_coeff /= s2
            if any_online:
                grad_coeff[:, online] = 0.0
            seg_terms = jterms[1:b + 1].transpose(1, 0, 2)
            seg_terms[:9] = (f[:, None] * grad_coeff).reshape(9, b, n)
            np.multiply(coeff, d, out=seg_terms[9:])
            jterms[0] = np.add.reduce(jterms[:b + 1], axis=0)
    if not jacobian:
        return terms[0]
    # J = sum of f (x) grad(coeff), minus [v]x with v = sum of coeff * d
    J = jterms[0, :9].reshape(3, 3, n)
    v = jterms[0, 9:]
    J[[2, 0, 1], [1, 2, 0]] -= v
    J[[1, 2, 0], [2, 0, 1]] += v
    return np.concatenate([terms[0], J.reshape(9, n)])


class BiotSavartModel:
    """Compiled per-channel segment arrays for one layout + discretization."""

    def __init__(self, layout: ChipLayout, n_width: int = DEFAULT_N_WIDTH,
                 n_thickness: int = DEFAULT_N_THICKNESS):
        self.layout = layout
        self.n_width = n_width
        self.n_thickness = n_thickness
        self.frames = ConductorFrames(layout.wires)
        self._channels: dict[str, _SegmentTable] = {}
        for channel in layout.channels:
            # (filaments, nodes, 3) per wire: segments run along each filament
            fils = [discretize_wire(wire, n_width, n_thickness)
                    for wire in layout.wires if wire.channel == channel]
            self._channels[channel] = _SegmentTable.build(
                np.concatenate([f[:, :-1].reshape(-1, 3) for f in fils]),
                np.concatenate([f[:, 1:].reshape(-1, 3) for f in fils]),
                1.0 / (n_width * n_thickness))

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(self._channels)

    def channel_unit_field(self, channel: str, points: np.ndarray) -> np.ndarray:
        """Field of one channel per ampere at ``points`` (N,3) -> (N,3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return _segment_field(points, self._channels[channel])

    def field(self, currents: CurrentConfig, points: np.ndarray) -> np.ndarray:
        """B = bias + sum over channels of I_ch * unit field, (N,3); raises
        FieldDomainError naming the first point inside a conductor."""
        return self._superpose(currents, points, currents.bias, self.channel_unit_field)

    def field_and_jacobian(self, currents: CurrentConfig,
                           points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B (N,3), dB_i/dx_j (N,3,3) in T/m), both closed form; B has the
        bits of ``field``, and the points are checked as there."""
        out = self._superpose(
            currents, points, tuple(currents.bias) + (0.0,) * 9,
            lambda channel, pts: _segment_field(pts, self._channels[channel], jacobian=True))
        return out[:, :3], out[:, 3:].reshape(-1, 3, 3)

    def _superpose(self, currents, points, bias, unit) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        index = self.frames.first_containing(points, DOMAIN_PAD)
        if index.max(initial=-1) >= 0:
            k = int(np.argmax(index >= 0))
            x, y, z = points[k] * 1e6
            raise FieldDomainError(f"point ({x:.3f}, {y:.3f}, {z:.3f}) um lies inside "
                                   f"wire {self.layout.wires[index[k]].name!r}")
        B = np.tile(np.asarray(bias, dtype=float), (len(points), 1))
        for channel in self._channels:
            amps = currents.dc_current(channel)
            if amps != 0.0:
                B = B + amps * unit(channel, points)
        if not np.isfinite(B).all():
            raise FieldDomainError("non-finite field value (point too close to a filament)")
        return B


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
              threads: int = 1, with_jacobian: bool = False
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Evaluate the field (and optionally its closed-form Jacobian) over a
    grid: (B (N,3) in T, dB_i/dx_j (N,3,3) in T/m or None), rows in the
    grid's row-major point order, each row bitwise equal to the model's
    field / field_and_jacobian at that point alone.

    Work items of _CHUNK points go to up to ``threads`` workers; results are
    bitwise independent of ``threads`` (per-point reduction order unchanged).
    Each chunk checks its own points; chunks run in row-major order and the
    earliest failing one raises, so a FieldDomainError names the grid's first
    point inside a conductor whatever ``threads`` is.
    """
    points = grid.points()
    B = np.empty((len(points), 3))
    J = np.empty((len(points), 3, 3)) if with_jacobian else None

    def eval_chunk(lo: int) -> None:
        hi = lo + _CHUNK
        if with_jacobian:
            B[lo:hi], J[lo:hi] = model.field_and_jacobian(currents, points[lo:hi])
        else:
            B[lo:hi] = model.field(currents, points[lo:hi])

    starts = range(0, len(points), _CHUNK)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(eval_chunk, starts))  # re-raises a worker's error
    else:
        for lo in starts:
            eval_chunk(lo)
    return B, J


def field_map_csv_rows(points: np.ndarray, B: np.ndarray) -> list[str]:
    """Rows for the field-map CSV: x_um,y_um,z_um,Bx_G,By_G,Bz_G,Bmag_G.

    |B| is sqrt(_dot3(B, B)), which rounds as the single-point norm does.
    """
    rows = ["x_um,y_um,z_um,Bx_G,By_G,Bz_G,Bmag_G"]
    magnitude = np.sqrt(_dot3(B, B))
    for (x, y, z), (bx, by, bz), b in zip((points * 1e6).tolist(), (B * 1e4).tolist(),
                                          (magnitude * 1e4).tolist()):
        rows.append(f"{x:.9g},{y:.9g},{z:.9g},{bx:.9g},{by:.9g},{bz:.9g},{b:.9g}")
    return rows
