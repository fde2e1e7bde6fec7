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


def _point_segment_distance(p: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Distance from points to segments; all arguments broadcast, last axis xy."""
    d = e - s
    l2 = (d * d).sum(axis=-1)
    t = ((p - s) * d).sum(axis=-1) / np.maximum(l2, 1e-300)
    t = np.clip(t, 0.0, 1.0)
    proj = s + t[..., None] * d
    return np.linalg.norm(p - proj, axis=-1)


def _boxes_corners(boxes: np.ndarray) -> np.ndarray:
    """Corner points of boxes given as (..., 5) [cx, cy, heading, length, width]."""
    c, s = np.cos(boxes[..., 2]), np.sin(boxes[..., 2])
    dx = np.stack([c, s], axis=-1) * (boxes[..., 3:4] / 2.0)
    dy = np.stack([-s, c], axis=-1) * (boxes[..., 4:5] / 2.0)
    ctr = boxes[..., 0:2]
    return np.stack([ctr + dx + dy, ctr + dx - dy, ctr - dx - dy, ctr - dx + dy], axis=-2)


def _disjoint_rect_distance(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Exact distance between disjoint rectangles from their corners (N, 4, 2)."""

    def corner_to_edges(points, poly):
        p = points[:, :, None, :]
        s = poly[:, None, :, :]
        e = np.roll(poly, -1, axis=1)[:, None, :, :]
        return _point_segment_distance(p, s, e).min(axis=(1, 2))

    return np.minimum(corner_to_edges(pa, pb), corner_to_edges(pb, pa))


def box_signed_distance_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized signed box distance.

    ``a`` and ``b`` are broadcastable arrays of shape (..., 5) holding
    [center_x, center_y, heading, length, width].  Overlap and penetration
    come from separating-axis projections over the 4 distinct edge normals;
    disjoint pairs get the exact corner-to-edge minimum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    shape = a.shape[:-1]
    a2 = np.ascontiguousarray(a.reshape(-1, 5))
    b2 = np.ascontiguousarray(b.reshape(-1, 5))

    def unit_axes(h):
        c, s = np.cos(h), np.sin(h)
        return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], axis=1)

    axa = unit_axes(a2[:, 2])
    axb = unit_axes(b2[:, 2])
    axes = np.concatenate([axa, axb], axis=1)  # (N, 4, 2)
    half_a = a2[:, 3:5] / 2.0
    half_b = b2[:, 3:5] / 2.0

    def extents(box_axes, half):
        dots = np.abs(np.einsum("nkc,njc->nkj", axes, box_axes))
        return np.einsum("nkj,nj->nk", dots, half)

    d = b2[:, 0:2] - a2[:, 0:2]
    proj = np.abs(np.einsum("nkc,nc->nk", axes, d))
    sep = proj - extents(axa, half_a) - extents(axb, half_b)
    gap = sep.max(axis=1)

    out = gap.copy()
    disjoint = gap >= 0.0
    if np.any(disjoint):
        pa = _boxes_corners(a2[disjoint])
        pb = _boxes_corners(b2[disjoint])
        out[disjoint] = _disjoint_rect_distance(pa, pb)
    return out.reshape(shape)


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
