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

Consecutive segments of a filament share a node.  The kernel finds these
node runs (each segment starting at the previous one's end, bit for bit)
and computes the vector a from each node to each point, |a|^2 and |a|, and
for the Jacobian 1/|a|, once per node; a segment reads them at its start
and at its end.  They are the bits the segment would compute itself, so
sharing them changes no result.

Points on a line along a coordinate axis share two of their coordinates,
so a node's or segment's values in those two are the same for every point.
A field-only piece of at least _LINE_MIN_POINTS such points, chosen from
the points' bits alone, goes to a line path that computes those values
once per node or segment as columns and only the rest per point.  The
roughness profile and the split-scan slice are such lines.  The line path
applies the same operations to the same operands in the orders above, so a
point's bits do not depend on the path it takes.

The line path forms and sums only the field rows its caller keeps: the
roughness profile keeps B_z alone of its meandered wire
(BiotSavartModel._field_z).  f, |f|^2 and the coefficient still take all
three components, and each row is its own sum in the order above, so B_z
keeps every bit.  The sum runs over a view of the kept rows whose inner
axis is the points (numpy would sum a single point's view pairwise, and a
line piece has at least _LINE_MIN_POINTS of them).

Every wire on an atom chip lies in the chip plane and every filament keeps
one y, so the segment vectors d of a block usually all have d_y == 0; the
table marks such blocks planar (_SegmentTable.planar).  A planar block
leaves out every product with d_y: the a_y * d_y term of both d.a sums, the
a_z * d_y part of f_x (so f_x = a_y * d_z) and the a_x * d_y part of f_z (so
f_z = -(a_y * d_x)), and in the Jacobian d_y * (1/|a2| - 1/|a1|) in the
gradient of the sine and the d_y * f parts of d x f.  A sum keeps its other
products; a difference that loses its first product negates the second or
subtracts it from +0.  A block on a z line then makes about 25 passes over
(nodes or segments x points) planes instead of about 31.  Blocks with a
d_y != 0 take every product.

This changes no bit of B or J.  For finite inputs a left-out product is
+0 or -0, and adding +-0 to a value (x - y is x + (-y)), or starting from
+0 instead of +-0, changes at most the sign of a zero result.  So only the
sign of a zero d.a, f component, sine, coefficient or term can differ, and
a product, quotient or sum with such a zero again differs in a zero's sign
only.  |a|^2, |f|^2 = s2 and with it the online mask are sums of squares,
so they keep their bits.  Every per-point sum starts at +0, and a sum that
starts at +0 never becomes -0 under round-to-nearest, so adding +-0 leaves
it as it is: B and J keep every bit.  Where a point sits on a node, a
left-out Jacobian product would be 0 * inf; the point lies on the segment's
line there, and the online mask zeroes that segment's term in both
arithmetics.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from math import prod
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
# segments per kernel block.  At 128 the 161-point roughness profile is one
# line piece (_LINE_POINT_SEGMENTS); at 256 it needs a 2**16 piece, whose
# 2.3 MB of planes spill out of a 2 MB L2 cache (timings below)
_SEGMENT_BLOCK = 128
# points x segments per kernel block; a block holds 21 (long runs) to 30
# (single segments) doubles per point-segment, at most 1.9 MB at this size,
# which fits a 2 MB L2 cache (at 2**14 a 1201-point slice of the builtin
# chip took ~1.5x longer)
_KERNEL_POINT_SEGMENTS = 2**13
# points x segments per piece of an axis line (_line_piece_field): its
# blocks hold ~7 doubles per point-segment, 1.2 MB for the 161-point
# roughness profile.  That profile's B_z alone on the two meandered (triangle
# and random) 28,800-segment roughness models took per model, median of 15
# rounds on a 2-core x86_64 host, numpy 2.4.6: 64-68 ms at 128-segment
# blocks and 2**15 or 2**16, 77-79 ms at 2**14 (two pieces); 64-71 ms at
# 256-segment blocks and 2**15 or 2**16, 75-78 ms at 2**14 (all three rows:
# 75-84 ms at 128 and 2**15).  The 1201-point split-scan slice with every
# builtin unit field took 9.7 ms at 2**15, 10.1 ms at 2**16 and 10.5 ms at
# 2**14 (three, two and six pieces per 72-segment channel)
_LINE_POINT_SEGMENTS = 2**15
# the fewest points a piece takes to an axis line.  Against the stacked path
# on the 72-segment z2 channel (same host, best of 600 calls), an x or z
# line took +6 to +8% at 16 points, -1 to +1% at 24, -7 to -8% at 32 and
# -26% at 113: the per-block cost of the line path's column operations only
# pays from ~30 points on
_LINE_MIN_POINTS = 32
# point coordinates in the kernel's layout, see _SegmentTable.nodes
_AXES = np.array([0, 1, 2, 0, 1])
# field rows a line piece sums (_line_piece_field): all three, or B_z alone
_XYZ = slice(0, 3)
_Z = slice(2, 3)
DOMAIN_PAD = 1e-9  # m, padding of the conductor test
# each thread's kernel buffers, kept between calls: freed and allocated
# again, buffers of a few 100 kB come back as fresh pages, and their page
# faults took over half the time of a 113-point call on a 72-segment channel
_WORKSPACE = threading.local()
_VIEW_SETS = 64  # sets of buffer shapes whose views _buffers keeps
_ONLINE_EPS = 1e-24  # (rho/L)^2 threshold: point on a segment's line contributes 0


class _SegmentTable(NamedTuple):
    """One channel's segments, laid out for the kernel: one row per
    coordinate, one column per segment or node.

    The segments come in node runs: inside a run each segment starts at the
    previous one's end, bit for bit, so a run of L segments has L + 1 nodes
    and the kernel computes each node's distance to a point once.  A kernel
    block holds ``runs`` whole runs of one length, at most _SEGMENT_BLOCK
    segments, or one piece of a longer run; two pieces of a run both hold
    the node at their boundary.  Inside a block, segments and nodes go
    position by position along the runs, run by run within a position: the
    starts are then the block's first ``runs * length`` nodes and the ends
    the same count from node ``runs`` on, both contiguous.
    """

    nodes: np.ndarray  # (5, M): the blocks' nodes as (x, y, z, x, y)
    blocks: np.ndarray  # (B, 4): first segment, first node, runs, run length
    planar: np.ndarray  # (B,): whether every segment of the block has d_y == 0
    d: np.ndarray  # (5, S): segment vector / squared length, as (x, y, z, x, y)
    scale: np.ndarray  # (S, 1): 1e-7 * current fraction; 1e-7 == mu_0 / 4 pi

    @classmethod
    def build(cls, starts: np.ndarray, ends: np.ndarray,
              fraction: float) -> "_SegmentTable":
        seg = ends - starts
        d = (seg / np.einsum("ij,ij->i", seg, seg)[:, None]).T
        # a run goes on while a segment starts at the previous one's end
        chained = np.all(np.ascontiguousarray(starts[1:]).view(np.int64)
                         == np.ascontiguousarray(ends[:-1]).view(np.int64), axis=1)
        blocks = []  # [first segment, first node, runs, run length]
        lo = extra = 0  # extra: the nodes so far beyond one per segment
        for hi in np.append(np.flatnonzero(~chained) + 1, len(seg)).tolist():
            last = blocks[-1] if blocks else None
            if last and last[3] == hi - lo and (last[2] + 1) * last[3] <= _SEGMENT_BLOCK:
                last[2] += 1
                extra += 1
            else:
                for s in range(lo, hi, _SEGMENT_BLOCK):
                    blocks.append([s, s + extra, 1, min(_SEGMENT_BLOCK, hi - s)])
                    extra += 1
            lo = hi
        # each block's segments position by position, run by run; its nodes
        # are their starts, then the ends of the last position.  Where that
        # is segment order (one run, or runs of one segment) the reshapes
        # are views and only the concatenations copy
        spans = [(lo, lo + runs * length, runs, length) for lo, _, runs, length in blocks]
        nodes = np.concatenate([
            rows for lo, hi, runs, length in spans
            for rows in (starts[lo:hi].reshape(runs, length, 3).transpose(1, 0, 2).reshape(-1, 3),
                         ends[lo + length - 1:hi:length])])
        d = np.concatenate([d[:, lo:hi].reshape(3, runs, length).transpose(0, 2, 1).reshape(3, -1)
                            for lo, hi, runs, length in spans], axis=1)
        return cls(
            nodes=np.ascontiguousarray(nodes[:, _AXES].T),
            blocks=np.array(blocks),
            planar=~np.logical_or.reduceat(d[1] != 0, [lo for lo, *_ in blocks]),
            d=d[_AXES],
            scale=np.full((len(seg), 1), 1e-7 * fraction),
        )


def _buffers(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Contiguous float arrays of ``shapes``, views of this thread's
    workspace: they hold whatever the last call left there.  The views are
    kept for the next call with the same shapes."""
    views = getattr(_WORKSPACE, "views", {})
    if shapes not in views:
        sizes = [prod(shape) for shape in shapes]
        flat = getattr(_WORKSPACE, "flat", np.empty(0))
        if len(flat) < sum(sizes) or len(views) >= _VIEW_SETS:
            views = _WORKSPACE.views = {}
        if len(flat) < sum(sizes):
            flat = _WORKSPACE.flat = np.empty(sum(sizes))
        out, lo = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(flat[lo:lo + size].reshape(shape))
            lo += size
        views[shapes] = out
    return views[shapes]


def _segment_field(points: np.ndarray, table: _SegmentTable,
                   jacobian: bool = False) -> np.ndarray:
    """Biot-Savart field of weighted straight segments at unit current.

    Closed-form finite-segment expression; (N,3) result for (N,3) points,
    or with ``jacobian`` (N,12): the field, then dB_i/dx_j row by row.

    Takes the points in pieces.  A field-only piece of up to
    _LINE_POINT_SEGMENTS // block points that lies on a line along a
    coordinate axis (_line_axis) goes to _line_piece_field; every other
    piece, of at most _KERNEL_POINT_SEGMENTS // block points, to
    _piece_field.  Both make the module docstring's roundings, so the path
    a point takes does not show in its bits.
    """
    # ([first segment, first node, runs, run length], planar) per block
    blocks = list(zip(table.blocks.tolist(), table.planar.tolist()))
    block = max(runs * length for (_, _, runs, length), _ in blocks)
    block_nodes = max(runs * (length + 1) for (_, _, runs, length), _ in blocks)
    rows = max(1, _KERNEL_POINT_SEGMENTS // block)
    line_rows = max(1, _LINE_POINT_SEGMENTS // block)
    out = np.empty((len(points), 12 if jacobian else 3))
    lo = 0
    while lo < len(points):
        axis = None if jacobian else _line_axis(points[lo:lo + line_rows])
        if axis is None:
            piece = _piece_field(points[lo:lo + rows], table, blocks, block, block_nodes,
                                 jacobian)
        else:
            piece = _line_piece_field(points[lo:lo + line_rows], table, blocks, block,
                                      block_nodes, axis)
        out[lo:lo + piece.shape[1]] = piece.T
        lo += piece.shape[1]
    return out


def _segment_field_z(points: np.ndarray, table: _SegmentTable) -> np.ndarray:
    """(N, 1) B_z column of ``_segment_field(points, table)``, bit for bit.

    Takes the points in line pieces: one that lies on an axis line
    (_line_axis) sums its z row alone (_line_piece_field's ``rows``); any
    other goes to _segment_field, whose z row it keeps.  A function of its
    own, so that _segment_field, which every trap search calls, does no
    more work per call.
    """
    blocks = list(zip(table.blocks.tolist(), table.planar.tolist()))
    block = max(runs * length for (_, _, runs, length), _ in blocks)
    block_nodes = max(runs * (length + 1) for (_, _, runs, length), _ in blocks)
    line_rows = max(1, _LINE_POINT_SEGMENTS // block)
    out = np.empty((len(points), 1))
    for lo in range(0, len(points), line_rows):
        piece = points[lo:lo + line_rows]
        axis = _line_axis(piece)
        out[lo:lo + line_rows] = (
            _segment_field(piece, table)[:, 2:] if axis is None else
            _line_piece_field(piece, table, blocks, block, block_nodes, axis, _Z).T)
    return out


def _line_axis(points: np.ndarray) -> int | None:
    """The axis of the line ``points`` lie on, if there are at least
    _LINE_MIN_POINTS of them and they share the other two coordinates bit
    for bit; else None.  The coordinates the first and last points share
    are tested first: most pieces that are no line stop there, at a fifth
    of the cost of testing every point."""
    if len(points) < _LINE_MIN_POINTS:
        return None
    bits = points.view(np.int64)
    shared = bits[-1] == bits[0]
    if np.count_nonzero(shared) < 2 or not (bits[:, shared] == bits[0, shared]).all():
        return None
    return int(np.argmin(shared))


def _mul(x: np.ndarray | None, y: np.ndarray | None, free) -> np.ndarray | None:
    """x * y: into the next of the ``free`` planes where x or y is a whole
    (rows x points) plane, a new (rows, 1) column where both are columns.
    None, a product left out, where x or y is None: a planar block's d_y."""
    if x is None or y is None:
        return None
    return np.multiply(x, y, out=next(free)) if max(x.shape[1], y.shape[1]) > 1 else x * y


def _acc(ufunc: np.ufunc, x: np.ndarray | None, y: np.ndarray | None) -> np.ndarray:
    """ufunc (np.add or np.subtract) of x and y, written over x, or else y,
    where that is a whole plane; a new column where both are columns.  A
    None operand is a product left out (_mul): x + None and x - None are x,
    None + y is y and None - y is -y."""
    if y is None:
        return x
    if x is None:
        return y if ufunc is np.add else np.negative(y, out=y if y.shape[1] > 1 else None)
    out = x if x.shape[1] > 1 else y if y.shape[1] > 1 else None
    return ufunc(x, y, out=out)


def _line_piece_field(points: np.ndarray, table: _SegmentTable, blocks: list, block: int,
                      block_nodes: int, axis: int, rows: slice = _XYZ) -> np.ndarray:
    """(k, N) field rows ``rows`` (a slice of x, y, z) of ``table``'s
    segments at N > 1 points that share all coordinates but ``axis``: those
    rows of _piece_field's result, bit for bit.

    The shared coordinates give each node and segment one value, so their
    node differences, products and the components of f = a1 x d that do not
    involve the ``axis`` coordinate are (rows, 1) columns, and only the rest
    are (rows x points) planes.  Every value is made by the same operation
    on the same operands, in the order the module docstring gives, as in
    _piece_field; broadcasting spreads a column over the points without
    changing a bit.  A planar block leaves out its d_y products (module
    docstring): its d_y is None, which _mul and _acc pass through.  Only the
    kept rows' terms are formed and summed; f and s2 take all three
    components, as the coefficient does.

    The result is a view of this thread's workspace (_buffers), valid until
    the thread's next call.
    """
    n = len(points)
    line = points[:, axis]
    # a = point - node and a * a of every node as (3, M, 1) columns; each
    # block replaces the line's coordinate by planes
    a_nodes = (points[0, :, None] - table.nodes[:3])[:, :, None]
    sq_nodes = a_nodes * a_nodes
    # planes: a, then f * f; |a|, then f; d.a1, then f, and d.a2, then the
    # sine; the terms as in _piece_field, whose rows first hold f * f
    a_buf, r_buf, dots, terms = _buffers((block_nodes, n), (block_nodes, n), (2, block, n),
                                         (block + 1, 3, n))
    spare = terms[1:].reshape(3, block, n)[0]
    terms[0] = 0.0
    for (lo, node, runs, length), planar in blocks:
        b = runs * length
        m = b + runs
        hi = lo + b
        a, sq = list(a_nodes[:, node:node + m]), list(sq_nodes[:, node:node + m])
        a[axis] = np.subtract(line, table.nodes[axis, node:node + m, None], out=a_buf[:m])
        r = sq[axis] = np.multiply(a[axis], a[axis], out=r_buf[:m])
        np.sqrt(_acc(np.add, _acc(np.add, sq[0], sq[1]), sq[2]), out=r)
        # a at the segments' starts and ends: the block's first b nodes and
        # the b from node ``runs`` on (_SegmentTable)
        ends = [[x[e * runs:e * runs + b] for x in a] for e in (0, 1)]
        dx, dy, dz = table.d[:3, lo:hi, None]
        d = (dx, None if planar else dy, dz)
        for (ax, ay, az), dot, norm in zip(ends, dots[:, :b], (r[:b], r[runs:runs + b])):
            # d.a is a column where a planar block's segments cross a y line
            free = repeat(dot)
            np.divide(_acc(np.add, _acc(np.add, _mul(ax, dx, free), _mul(az, dz, free)),
                           _mul(ay, d[1], free)), norm, out=dot)
        sine = np.subtract(dots[1, :b], dots[0, :b], out=dots[1, :b])
        # f = a1 x d, then f * f
        a1 = ends[0]
        free = iter((r_buf[:b], dots[0, :b]))
        f = [_acc(np.subtract, _mul(a1[u], d[v], free), _mul(a1[v], d[u], free))
             for u, v in ((1, 2), (2, 0), (0, 1))]
        free = iter((a_buf[:b], spare[:b]))
        ff = [_mul(fc, fc, free) for fc in f]
        s2 = _acc(np.add, _acc(np.add, ff[0], ff[2]), ff[1])
        online = s2 < _ONLINE_EPS
        any_online = np.count_nonzero(online) > 0
        if any_online:
            s2[online] = 1.0
        coeff = np.multiply(table.scale[lo:hi], sine, out=sine)
        coeff /= s2
        if any_online:
            coeff[online] = 0.0
        # the kept rows' terms go in segment order, run by run; a view of
        # some rows of ``terms`` is still added row after row (_piece_field),
        # as its points axis, of N > 1 points, is the inner one
        seg_terms = terms[1:b + 1].reshape(runs, length, 3, n).transpose(2, 1, 0, 3)
        for fc, out in zip(f[rows], seg_terms[rows]):
            np.multiply(coeff.reshape(length, runs, n), fc.reshape(length, runs, -1), out=out)
        terms[0, rows] = np.add.reduce(terms[:b + 1, rows], axis=0)
    return terms[0, rows]


def _piece_field(points: np.ndarray, table: _SegmentTable, blocks: list, block: int,
                 block_nodes: int, jacobian: bool) -> np.ndarray:
    """(3, N) field of ``table``'s segments at ``points``, _segment_field's
    arithmetic one block at a time, each quantity one contiguous (segments
    or nodes x points) plane; each block's terms are added to a running
    per-point sum in segment order (module docstring).

    A block computes a = point - node, |a|^2 and |a| once per node; its
    segments read a1 = a at their start and a2 = a at their end, and |a1|
    and |a2|, as views of those node planes (_SegmentTable).  Vectors go as
    (x, y, z, x, y), so the rows a product takes are a slice: every second
    row from x for d.a as (x, z, y), three consecutive rows for each product
    of a cross product.  A planar block leaves out its d_y products (module
    docstring) by slicing off the y row.

    With ``jacobian`` the result is (12, N): the field, then the closed-form
    dB_i/dx_j of each segment term coeff * f (f = a1 x d), summed the same
    way: d(coeff f)/dx = f (x) grad(coeff) - coeff [d]x, where
    grad(d.a / |a|) = d / |a| - (d.a) a / |a|^3 and grad |f|^2 = 2 d x f.

    The result is a view of this thread's workspace (_buffers), valid until
    the thread's next call.
    """
    p = points.T[_AXES][:, None]
    n = p.shape[-1]
    d = table.d
    # per node: a as (x, y, z, x, y), |a|, and with ``jacobian`` 1 / |a|;
    # f as (x, y, z), and with ``jacobian`` (x, y, z, x, y); terms: the
    # running sum, then one row per segment, and jterms the same for
    # f (x) grad(coeff) as 9 rows, then coeff * d as 3 rows; g_buf holds the
    # Jacobian's per-segment quantities
    a_buf, r_buf, f_buf, terms, jterms, g_buf = _buffers(
        (7 if jacobian else 6, block_nodes, n), (3, block_nodes + 2 * block, n),
        (5 if jacobian else 3, block, n), (block + 1, 3, n),
        *(((block + 1, 12, n), (9, block, n)) if jacobian else ((0,), (0,))))
    terms[0] = 0.0
    if jacobian:
        jterms[0] = 0.0
    for (lo, node, runs, length), planar in blocks:
        b = runs * length
        m = b + runs
        hi = lo + b
        # d.a takes d's rows as (x, z, y), and each product of a cross
        # product three consecutive rows with y first or last: a planar
        # block takes the k = 2 of them without y
        k = 2 if planar else 3
        xzy = slice(0, 2 * k - 1, 2)
        a = np.subtract(p, table.nodes[:, node:node + m, None], out=a_buf[:5, :m])
        # each node quantity at the segments' starts, then at their ends
        step = a_buf.strides[1]
        at_ends = np.ndarray((len(a_buf), 2, b, n), buffer=a_buf,
                             strides=(a_buf.strides[0], runs * step, step, 8))
        a1, a2 = at_ends[:5, 0], at_ends[:5, 1]  # point - start, point - end
        # products: a * a as (x, y, z) per node, then a1 * d and a2 * d as
        # (x, z, y) per segment
        r = r_buf[:, :m + 2 * b]
        np.multiply(a[:3], a[:3], out=r[:, :m])
        np.multiply(at_ends[xzy], d[xzy, None, lo:hi, None], out=r[:k, m:].reshape(k, 2, b, n))
        sums = np.add(r[0], r[1], out=r[0])
        y = m if planar else m + 2 * b
        sums[:y] += r[2, :y]  # |a|^2 per node, then d.a1 and d.a2 per segment
        np.sqrt(sums[:m], out=a_buf[5, :m])
        dots = sums[m:].reshape(2, b, n)
        dots /= at_ends[5]
        if jacobian:
            np.divide(1.0, a_buf[5, :m], out=a_buf[6, :m])
            inv = at_ends[6]
            g = g_buf[:, :b]
            # along = dots * inv * inv in rows 0-1, then grad_sine =
            # d * (inv[1] - inv[0]) - along[1] * a2 + along[0] * a1 in rows
            # 3-5, whose y row starts from +0 where there is no d_y
            along = np.multiply(dots, inv, out=g[:2])
            along *= inv
            grad_sine = g[3:6]
            grad_sine[1] = 0.0
            xyz = slice(0, 3, 2 if planar else 1)
            np.multiply(d[xyz, lo:hi, None], np.subtract(inv[1], inv[0], out=g[2]),
                        out=grad_sine[xyz])
            grad_sine -= np.multiply(along[1], a2[:3], out=g[6:9])
            grad_sine += np.multiply(along[0], a1[:3], out=g[6:9])
        sine = np.subtract(dots[1], dots[0], out=dots[1])
        # f = a1 x d = (a_y d_z, a_z d_x, a_x d_y) - (a_z d_y, a_x d_z, a_y d_x):
        # without d_y the first product keeps its first two rows, f_z starts
        # from +0, and the second product keeps its last two rows
        f = f_buf[:3, :b]
        scratch = r_buf[1, :3 * b].reshape(3, b, n)  # free once the products are summed
        np.multiply(a1[1:1 + k], d[2:2 + k, lo:hi, None], out=f[:k])
        f[k:] = 0.0
        f[3 - k:] -= np.multiply(a1[5 - k:5], d[4 - k:4, lo:hi, None], out=scratch[3 - k:])
        ff = np.multiply(f, f, out=scratch)
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
        # the terms go in segment order, run by run
        np.multiply(coeff.reshape(length, runs, n), f.reshape(3, length, runs, n),
                    out=terms[1:b + 1].reshape(runs, length, 3, n).transpose(2, 1, 0, 3))
        # numpy sums pairwise along a contiguous reduced axis (a segments
        # axis of a single point would be one); reduced over its first
        # axis, this (segments, 3, points) array is added row after row
        terms[0] = np.add.reduce(terms[:b + 1], axis=0)
        if jacobian:
            grad_coeff = np.multiply(table.scale[lo:hi], grad_sine, out=grad_sine)
            # grad_coeff -= 2 coeff (d x f) with np.cross's products and
            # roundings: d x f = (d_y f_z, d_z f_x, d_x f_y) - (d_z f_y, d_x f_z,
            # d_y f_x), in rows 6-8; without d_y the first product keeps its
            # last two rows, the x row starts from +0, and the second product
            # keeps its first two rows
            f5 = f_buf[:, :b]
            f5[3:] = f5[:2]
            cross = g[6:9]
            np.multiply(d[4 - k:4, lo:hi, None], f5[5 - k:5], out=cross[3 - k:])
            cross[:3 - k] = 0.0
            cross[:k] -= np.multiply(d[2:2 + k, lo:hi, None], f5[1:1 + k], out=g[:k])
            cross *= np.multiply(2.0, coeff, out=g[0])
            grad_coeff -= cross
            grad_coeff /= s2
            if any_online:
                grad_coeff[:, online] = 0.0
            seg_terms = jterms[1:b + 1].reshape(runs, length, 12, n).transpose(2, 1, 0, 3)
            np.multiply(f.reshape(3, 1, length, runs, n),
                        grad_coeff.reshape(1, 3, length, runs, n),
                        out=seg_terms[:9].reshape(3, 3, length, runs, n))
            np.multiply(coeff.reshape(length, runs, n), d[:3, lo:hi].reshape(3, length, runs, 1),
                        out=seg_terms[9:])
            jterms[0] = np.add.reduce(jterms[:b + 1], axis=0)
    if not jacobian:
        return terms[0]
    # J = sum of f (x) grad(coeff), minus [v]x with v = sum of coeff * d
    J = jterms[0, :9].reshape(3, 3, n)
    v = jterms[0, 9:]
    J[[2, 0, 1], [1, 2, 0]] -= v
    J[[1, 2, 0], [2, 0, 1]] += v
    return np.concatenate([terms[0], J.reshape(9, n)])


def _point_um(x) -> str:
    """A point in m as "point (x, y, z) um", the form error messages give."""
    return "point ({:.3f}, {:.3f}, {:.3f}) um".format(*(np.asarray(x) * 1e6))


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
        return self.field_and_unit_fields(currents, points)[0]

    def field_and_unit_fields(self, currents: CurrentConfig, points: np.ndarray,
                              channels=()) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """(B, unit fields): B as ``field`` gives it, and the unit field of
        every channel it used or that ``channels`` names, each evaluated once.

        The field is linear in each channel current, so a caller that
        rescales some currents (the rf drive of a split scan) superposes
        these unit fields again instead of evaluating them anew.
        """
        return self._superpose(currents, points, currents.bias, self.channel_unit_field,
                               channels)

    def field_and_jacobian(self, currents: CurrentConfig,
                           points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B (N,3), dB_i/dx_j (N,3,3) in T/m), both closed form; B has the
        bits of ``field``, and the points are checked as there."""
        out, _ = self._superpose(
            currents, points, tuple(currents.bias) + (0.0,) * 9,
            lambda channel, pts: _segment_field(pts, self._channels[channel], jacobian=True))
        return out[:, :3], out[:, 3:].reshape(-1, 3, 3)

    def _field_z(self, currents: CurrentConfig, points: np.ndarray) -> np.ndarray:
        """(N,) B_z of ``field``, bit for bit, from each channel's z row
        alone (_segment_field_z); the points are checked as there."""
        B, _ = self._superpose(
            currents, points, currents.bias[2:],
            lambda channel, pts: _segment_field_z(pts, self._channels[channel]))
        return B[:, 0]

    def _superpose(self, currents, points, bias, unit, channels=()):
        """(bias + sum over channels of I_ch * ``unit(channel, points)``, the
        unit values computed for the channels with a current or in
        ``channels``); raises FieldDomainError as ``field`` documents."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        index = self.frames.first_containing(points, DOMAIN_PAD)
        if index.max(initial=-1) >= 0:
            k = int(np.argmax(index >= 0))
            raise FieldDomainError(f"{_point_um(points[k])} lies inside "
                                   f"wire {self.layout.wires[index[k]].name!r}")
        B = np.tile(np.asarray(bias, dtype=float), (len(points), 1))
        units = {}
        for channel in self._channels:
            amps = currents.dc_current(channel)
            if amps != 0.0 or channel in channels:
                units[channel] = unit(channel, points)
            if amps != 0.0:
                B = B + amps * units[channel]
        if not np.isfinite(B).all():
            raise FieldDomainError("non-finite field value (point too close to a filament)")
        return B, units


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
