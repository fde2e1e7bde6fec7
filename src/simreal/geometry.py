"""Planar geometric primitives for box interaction and map distance features.

Sign conventions used throughout:

* Box-to-box distance is positive separation, zero at contact, and the
  negative penetration depth (minimum translation to separate) when the box
  polygons overlap.  Boxes are arrays of [center_x, center_y, heading,
  length, width].
* Polyline queries report which side of the nearest segment a point falls on,
  taken from the cross product with the segment direction: left is positive.

All interaction geometry is top-down 2D; callers gate on z separately.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance for degeneracy tests (touching boxes, points on a line).
ABS_TOL = 1e-9


def _corners_xy(cx, cy, c, s, half_l, half_w) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the four corners of boxes, each stacked on a new leading axis of 4.

    ``c`` and ``s`` are the cosine and sine of the heading, ``half_l`` and
    ``half_w`` half the length and width; all broadcast.  Corners go round the
    box: front-left, front-right, back-right, back-left.
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


def _boxes_corners(boxes: np.ndarray) -> np.ndarray:
    """(..., 4, 2) corner points of boxes given as (..., 5) [cx, cy, heading, length, width]."""
    h = boxes[..., 2]
    x, y = _corners_xy(
        boxes[..., 0], boxes[..., 1], np.cos(h), np.sin(h), boxes[..., 3] / 2.0, boxes[..., 4] / 2.0
    )
    return np.stack([np.moveaxis(x, 0, -1), np.moveaxis(y, 0, -1)], axis=-1)


_NEXT_CORNER = np.array([1, 2, 3, 0])


def _disjoint_rect_distance(ax, ay, bx, by) -> np.ndarray:
    """Exact distance between disjoint rectangles from the (4, M) x and y of their corners.

    The nearest points of two disjoint convex polygons include a corner of
    one, so the distance is the least of the 32 corner-to-edge distances.
    The least squared distance goes through a single ``sqrt``: a correctly
    rounded square root is monotone, so this equals the least distance.
    """
    m = ax.shape[-1]
    cx, cy = np.array([ax, bx]), np.array([ay, by])  # (2, 4, M)
    px, py = cx[:, :, None], cy[:, :, None]  # a's corners, then b's
    sx, sy = cx[::-1, None], cy[::-1, None]  # b's edges, then a's
    dx = cx[::-1][:, _NEXT_CORNER][:, None] - sx
    dy = cy[::-1][:, _NEXT_CORNER][:, None] - sy
    l2 = np.maximum(dx * dx + dy * dy, 1e-300)
    t = px - sx
    t *= dx
    ry = py - sy
    ry *= dy
    t += ry
    t /= l2
    np.clip(t, 0.0, 1.0, out=t)
    qx = t * dx
    np.add(sx, qx, out=qx)
    np.subtract(px, qx, out=qx)  # px - (sx + t * dx)
    qy = np.multiply(t, dy, out=ry)
    np.add(sy, qy, out=qy)
    np.subtract(py, qy, out=qy)
    qx *= qx
    qy *= qy
    qx += qy
    # Each pair's 16 values per side are reduced as one contiguous row: the
    # sign numpy's reduction leaves on a NaN (from an infinite centre) depends
    # on the layout, and this is the one of the reference kernel in the tests.
    near = np.ascontiguousarray(qx.reshape(2, 16, m).transpose(0, 2, 1)).min(axis=2)
    return np.sqrt(np.minimum(near[0], near[1]))


def _pair_columns(a, b) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Broadcast (..., 5) boxes ``a`` and ``b`` to (5, N) columns, with the shape of ``...``."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return a.reshape(-1, 5).T, b.reshape(-1, 5).T, a.shape[:-1]


def separating_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest separating-axis gap of boxes over their 4 distinct edge normals.

    ``a`` and ``b`` are broadcastable arrays of shape (..., 5) holding
    [center_x, center_y, heading, length, width].  Where the gap is negative
    it is the signed distance: the boxes overlap, and it is minus the least
    shift that parts them.  Elsewhere it is a lower bound of the distance,
    the gap between the boxes' shadows on one axis, which no pair of their
    points can beat.  Every quantity is a separate x or y array, so every
    sum has two terms.
    """
    a, b, shape = _pair_columns(a, b)
    ca, sa = np.cos(a[2]), np.sin(a[2])
    cb, sb = np.cos(b[2]), np.sin(b[2])
    # The four edge normals, (4, N): a's two box axes, then b's.
    ux = np.array([ca, -sa, cb, -sb])
    uy = np.array([sa, ca, sb, cb])

    def extent(c, s, half_l, half_w):
        """Half the shadow of a box on each normal."""
        return np.abs(ux * c + uy * s) * half_l + np.abs(ux * -s + uy * c) * half_w

    proj = np.abs(ux * (b[0] - a[0]) + uy * (b[1] - a[1]))
    gap = proj - extent(ca, sa, a[3] / 2.0, a[4] / 2.0) - extent(cb, sb, b[3] / 2.0, b[4] / 2.0)
    return gap.max(axis=0).reshape(shape)


def box_signed_distance_batch(a: np.ndarray, b: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Vectorized signed box distance from the pairs' :func:`separating_gap`.

    ``a`` and ``b`` are as for :func:`separating_gap` and ``gap`` is its
    result for them.  Overlapping pairs (gap < 0, or NaN) read their gap; disjoint
    pairs (gap >= 0) get the exact corner-to-edge minimum.  So the signed
    distance of boxes is ``box_signed_distance_batch(a, b, separating_gap(a, b))``,
    and a caller that needs the gaps first computes them once.
    """
    a, b, shape = _pair_columns(a, b)
    dist = np.array(gap, dtype=float).reshape(-1)
    hit = np.flatnonzero(dist >= 0.0)
    if len(hit):
        if len(hit) < len(dist):
            a, b = a[:, hit], b[:, hit]
        ax, ay = _corners_xy(a[0], a[1], np.cos(a[2]), np.sin(a[2]), a[3] / 2.0, a[4] / 2.0)
        bx, by = _corners_xy(b[0], b[1], np.cos(b[2]), np.sin(b[2]), b[3] / 2.0, b[4] / 2.0)
        dist[hit] = _disjoint_rect_distance(ax, ay, bx, by)
    return dist.reshape(shape)


def _segment_offsets(p: np.ndarray, s: np.ndarray, e: np.ndarray):
    """Offsets of (P, 2) points from the nearest point of each of (S, 2) segments.

    Returns ``(ex, ey, rx, ry, dx, dy)``: the (P, S) offset and the offset
    from the segment start, then the (S,) segment direction.
    """
    dx = e[:, 0] - s[:, 0]
    dy = e[:, 1] - s[:, 1]
    l2 = np.maximum(dx * dx + dy * dy, 1e-300)
    rx = p[:, 0:1] - s[None, :, 0]
    ry = p[:, 1:2] - s[None, :, 1]
    frac = np.clip((rx * dx + ry * dy) / l2, 0.0, 1.0)
    return rx - frac * dx, ry - frac * dy, rx, ry, dx, dy


def polyline_distance_batch(
    points: np.ndarray, seg_starts: np.ndarray, seg_ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distance and side of many points against one pool of segments.

    Returns ``(dist, side)`` with ``dist >= 0`` and ``side`` in {-1, 0, +1}
    (+1 left of the nearest segment, -1 right, 0 on it).  Ties between
    equidistant segments resolve to the lowest segment index.
    """
    p = np.asarray(points, dtype=float)
    s = np.asarray(seg_starts, dtype=float)
    e = np.asarray(seg_ends, dtype=float)
    ex, ey, rx, ry, dx, dy = _segment_offsets(p, s, e)
    d2 = ex * ex + ey * ey
    k = np.argmin(d2, axis=1)  # argmin keeps the first (lowest-index) minimum
    rows = np.arange(len(p))
    best = np.sqrt(d2[rows, k])
    cross = dx[k] * ry[rows, k] - dy[k] * rx[rows, k]
    side = np.where(cross > ABS_TOL, 1, np.where(cross < -ABS_TOL, -1, 0))
    return best, side.astype(int)
