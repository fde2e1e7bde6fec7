"""Planar geometric primitives for box interaction and map distance features.

Sign conventions used throughout:

* Box-to-box distance is positive separation, zero at contact, and the
  negative penetration depth (minimum translation to separate) when the box
  polygons overlap.  The kernels read boxes from a :class:`BoxTable`, six
  contiguous columns per box: centre x and y, cosine and sine of the heading,
  half length and half width.  The public entry points also take arrays of
  [center_x, center_y, heading, length, width] boxes and convert them.
* Polyline queries report which side of the nearest segment a point falls on,
  taken from the cross product with the segment direction: left is positive.

All interaction geometry is top-down 2D; callers gate on z separately.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance for degeneracy tests (touching boxes, points on a line).
ABS_TOL = 1e-9


class BoxTable:
    """N boxes as the rows of one (6, N) array ``cols``: centre x, centre y,
    cosine and sine of the heading, half length and half width.

    The trigonometry and halving are done once per box, so the pair kernels
    read every quantity from a contiguous row and compute none of them per pair.
    """

    __slots__ = ("cols",)

    def __init__(self, cols: np.ndarray):
        self.cols = cols

    @classmethod
    def of(cls, cx, cy, heading, length, width) -> "BoxTable":
        """The table of boxes given as broadcastable arrays, flattened in C order."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in (cx, cy, heading, length, width)))
        cols = np.empty((6, *shape))
        cols[0], cols[1] = cx, cy
        np.cos(heading, out=cols[2, ...])  # ``...`` keeps a 0-d row an array
        np.sin(heading, out=cols[3, ...])
        np.divide(length, 2.0, out=cols[4, ...])
        np.divide(width, 2.0, out=cols[5, ...])
        return cls(cols.reshape(6, -1))

    def take(self, rows) -> "BoxTable":
        """The boxes at ``rows``, in that order."""
        return BoxTable(np.take(self.cols, rows, axis=1))


def _corners_xy(cx, cy, c, s, half_l, half_w) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the four corners of boxes, each stacked on a new leading axis of 4.

    ``c`` and ``s`` are the cosine and sine of the heading, ``half_l`` and
    ``half_w`` half the length and width; all broadcast, so ``_corners_xy(*table.cols)``
    gives the corners of a :class:`BoxTable`.  Corners go round the box:
    front-left, front-right, back-right, back-left.
    """
    lx, ly = c * half_l, s * half_l  # half the length along the heading
    wx, wy = -s * half_w, c * half_w  # half the width across it
    fx, fy, bx, by = cx + lx, cy + ly, cx - lx, cy - ly
    # ``np.array`` stacks equal-shape arrays as ``np.stack`` does, at a
    # fraction of its per-call cost, which counts for small batches.
    return (
        np.array([fx + wx, fx - wx, bx - wx, bx + wx]),
        np.array([fy + wy, fy - wy, by - wy, by + wy]),
    )


_NEXT_CORNER = np.array([1, 2, 3, 0])


def _corner_squares(px, py, sx, sy):
    """For each of the 4 corners ``px[i]``, ``py[i]``, the (4, M) squared
    distances to the 4 edges of the polygon with corners ``sx``, ``sy``; all (4, M).

    Every yielded array is new; the other temporaries are reused (4, M) buffers.
    """
    m = px.shape[-1]
    dx = sx[_NEXT_CORNER] - sx
    dy = sy[_NEXT_CORNER] - sy
    l2 = dx * dx
    l2 += dy * dy
    np.maximum(l2, 1e-300, out=l2)
    t, ry, qx = np.empty((3, 4, m))
    for cx, cy in zip(px, py):
        np.subtract(cx, sx, out=t)
        t *= dx
        np.subtract(cy, sy, out=ry)
        ry *= dy
        t += ry
        t /= l2
        np.clip(t, 0.0, 1.0, out=t)
        np.multiply(t, dx, out=qx)
        np.add(sx, qx, out=qx)
        np.subtract(cx, qx, out=qx)  # px - (sx + t * dx)
        qy = np.multiply(t, dy, out=ry)
        np.add(sy, qy, out=qy)
        np.subtract(cy, qy, out=qy)
        qx *= qx
        qy *= qy
        yield qx + qy


def _nearest_corner_squares(px, py, sx, sy) -> np.ndarray:
    """Least of :func:`_corner_squares`: each pair's least squared corner-to-edge distance.

    A running minimum over the corners gives every value its bits, since a
    minimum is one of its inputs.
    """
    squares = _corner_squares(px, py, sx, sy)
    near = next(squares)
    for q in squares:
        np.minimum(near, q, out=near)
    return near.min(axis=0)


def _disjoint_rect_distance(ax, ay, bx, by) -> np.ndarray:
    """Exact distance between disjoint rectangles from the (4, M) x and y of their corners.

    The nearest points of two disjoint convex polygons include a corner of
    one, so the distance is the least of the 32 corner-to-edge distances.
    The least squared distance goes through a single ``sqrt``: a correctly
    rounded square root is monotone, so this equals the least distance.
    """
    return np.sqrt(np.minimum(_nearest_corner_squares(ax, ay, bx, by),
                              _nearest_corner_squares(bx, by, ax, ay)))


def _pair_tables(a, b) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The (6, N) table columns of pairs of boxes, and the shape of the result.

    ``a`` and ``b`` are two :class:`BoxTable` of N boxes, or broadcastable
    (..., 5) arrays of [center_x, center_y, heading, length, width], whose
    result takes the shape of ``...``.
    """
    if isinstance(a, BoxTable):
        return a.cols, b.cols, a.cols.shape[1:]
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    ta, tb = (BoxTable.of(*np.moveaxis(v, -1, 0)) for v in (a, b))
    return ta.cols, tb.cols, a.shape[:-1]


def separating_gap(a, b) -> np.ndarray:
    """Largest separating-axis gap of boxes over their 4 distinct edge normals.

    ``a`` and ``b`` are two :class:`BoxTable` of N boxes, or broadcastable
    arrays of shape (..., 5) holding [center_x, center_y, heading, length,
    width].  Where the gap is negative it is the signed distance: the boxes
    overlap, and it is minus the least shift that parts them.  Elsewhere it
    is a lower bound of the distance, the gap between the boxes' shadows on
    one axis, which no pair of their points can beat.  Every quantity is a
    separate x or y array, so every sum has two terms.
    """
    a, b, shape = _pair_tables(a, b)
    ca, sa = a[2], a[3]
    cb, sb = b[2], b[3]
    # The four edge normals, (4, N): a's two box axes, then b's.
    ux = np.array([ca, -sa, cb, -sb])
    uy = np.array([sa, ca, sb, cb])

    def extent(c, s, half_l, half_w):
        """Half the shadow of a box on each normal."""
        return np.abs(ux * c + uy * s) * half_l + np.abs(ux * -s + uy * c) * half_w

    proj = np.abs(ux * (b[0] - a[0]) + uy * (b[1] - a[1]))
    gap = proj - extent(ca, sa, a[4], a[5]) - extent(cb, sb, b[4], b[5])
    return gap.max(axis=0).reshape(shape)


def box_signed_distance_batch(a, b, gap: np.ndarray) -> np.ndarray:
    """Vectorized signed box distance from the pairs' :func:`separating_gap`.

    ``a`` and ``b`` are as for :func:`separating_gap` and ``gap`` is its
    result for them.  Overlapping pairs (gap < 0) read their gap; disjoint
    pairs (gap >= 0) get the exact corner-to-edge minimum.  So the signed
    distance of boxes is ``box_signed_distance_batch(a, b, separating_gap(a, b))``,
    and a caller that needs the gaps first computes them once.
    """
    a, b, shape = _pair_tables(a, b)
    dist = np.array(gap, dtype=float).reshape(-1)
    hit = np.flatnonzero(dist >= 0.0)
    if len(hit):
        if len(hit) < len(dist):
            a, b = a[:, hit], b[:, hit]
        dist[hit] = _disjoint_rect_distance(*_corners_xy(*a), *_corners_xy(*b))
    return dist.reshape(shape)


def _segment_terms(s: np.ndarray, e: np.ndarray):
    """(S,) start x, start y, direction x, y and floored squared length of segments."""
    dx = e[:, 0] - s[:, 0]
    dy = e[:, 1] - s[:, 1]
    return s[:, 0], s[:, 1], dx, dy, np.maximum(dx * dx + dy * dy, 1e-300)


def _squared_distance(px, py, sx, sy, dx, dy, l2) -> np.ndarray:
    """Squared distance from points to segments, for any shapes that broadcast.

    ``px``, ``py`` are point coordinates and the rest :func:`_segment_terms`:
    (P, 1) points against (S,) segments give a (P, S) block, and (P,) points
    against one segment's floats give (P,).  Both evaluate the same operations
    in the same order, so a point-segment pair gets the same bits either way.
    """
    rx = px - sx
    ry = py - sy
    t = rx * dx
    u = ry * dy
    t += u
    t /= l2
    np.clip(t, 0.0, 1.0, out=t)
    rx -= np.multiply(t, dx, out=u)  # rx - t * dx
    ry -= np.multiply(t, dy, out=t)
    rx *= rx
    ry *= ry
    rx += ry
    return rx


def _segment_squared_distances(p: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(P, S) squared distances of (P, 2) points to (S, 2) segments from ``s`` to ``e``."""
    return _squared_distance(p[:, 0:1], p[:, 1:2], *_segment_terms(s, e))


def _nearest_segment_block(p, terms) -> tuple[np.ndarray, np.ndarray]:
    """Least squared distance of each point and its segment, from one (P, S) block.

    ``terms`` are the segments' :func:`_segment_terms`.
    """
    d2 = _squared_distance(p[:, 0:1], p[:, 1:2], *terms)
    k = np.argmin(d2, axis=1)  # argmin keeps the first (lowest-index) minimum
    return d2[np.arange(len(p)), k], k


def _nearest_segment_loop(p, terms) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_nearest_segment_block`, one segment at a time with (P,) temporaries.

    A strict ``<`` keeps the running minimum, so a later equal segment never
    displaces an earlier one: the lowest-index minimum stays, as ``argmin``
    keeps it.  The two agree wherever every squared distance is finite,
    which coordinates within the pose envelope (1e7 m) ensure.  The point
    columns are copied only when ``p`` is not the transpose of a C-ordered (2, P) array.
    """
    px, py = np.ascontiguousarray(p.T)
    best = np.full(len(p), np.inf)
    k = np.zeros(len(p), dtype=np.intp)
    nearer = np.empty(len(p), dtype=bool)
    for j, seg in enumerate(zip(*(a.tolist() for a in terms))):
        d2 = _squared_distance(px, py, *seg)
        np.less(d2, best, out=nearer)
        np.minimum(best, d2, out=best)
        np.copyto(k, j, where=nearer)
    return best, k


#: Batches of at least this many points walk the segments one at a time;
#: smaller ones take the (P, S) block, which is memory-bound when tall and
#: narrow.  Microseconds per nearest-segment search, block vs loop, on random
#: segments (2-core Xeon, numpy 2.4):
#:
#:   S    P = 640        P = 2,560       P = 4,096       P = 40,960
#:   2    114 vs 70      306 vs 111      464 vs 141      4,522 vs 2,034
#:   8     97 vs 168     374 vs 336      565 vs 430      9,854 vs 3,797
#:   64   527 vs 1,759   2,595 vs 2,669  4,515 vs 3,450  80,690 vs 26,355
#:
#: The loop wins from about 4k points for every S up to 64.
_SEGMENT_LOOP_MIN_POINTS = 4096


def polyline_distance_batch(
    points: np.ndarray, seg_starts: np.ndarray, seg_ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distance and side of many points against one pool of segments.

    Returns ``(dist, side)`` with ``dist >= 0`` and ``side`` in {-1, 0, +1}
    (+1 left of the nearest segment, -1 right, 0 on it).  Ties between
    equidistant segments resolve to the lowest segment index.  Every
    coordinate must lie within the pose envelope, 1e7 m, as a map's and a
    scene's do (:class:`~simreal.scene.MapFeature`,
    :class:`~simreal.features.SceneStates`).  Tall batches
    (:data:`_SEGMENT_LOOP_MIN_POINTS`) walk the segments one at a time,
    others take one (P, S) block; inside the envelope both give the same
    bits.  ``points`` may be any (P, 2) float array; the transpose of a (2, P)
    array, whose two columns are contiguous, is read without a copy.
    """
    p = np.asarray(points, dtype=float)
    s = np.asarray(seg_starts, dtype=float)
    e = np.asarray(seg_ends, dtype=float)
    tall = len(p) >= _SEGMENT_LOOP_MIN_POINTS and len(s) > 0
    terms = _segment_terms(s, e)
    d2, k = (_nearest_segment_loop if tall else _nearest_segment_block)(p, terms)
    sx, sy, dx, dy, _ = terms
    cross = dx[k] * (p[:, 1] - sy[k]) - dy[k] * (p[:, 0] - sx[k])
    side = (cross > ABS_TOL).astype(int)
    side -= cross < -ABS_TOL
    return np.sqrt(d2), side
