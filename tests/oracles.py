"""Independent brute-force oracles used to check the geometry implementation.

Everything here is deliberately written as plain loops over the original box
polygons (no Minkowski construction, no vectorization) so it shares no code
path with the library.
"""

from __future__ import annotations

import math

import numpy as np


def box_corners(cx, cy, heading, length, width):
    c, s = math.cos(heading), math.sin(heading)
    out = []
    for sx, sy in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
        lx, ly = sx * length / 2.0, sy * width / 2.0
        out.append((cx + c * lx - s * ly, cy + s * lx + c * ly))
    return out


def _edge_normals(corners):
    normals = []
    n = len(corners)
    for i in range(n):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        normals.append((ey / norm, -ex / norm))
    return normals


def _project(corners, axis):
    dots = [cx * axis[0] + cy * axis[1] for cx, cy in corners]
    return min(dots), max(dots)


def sat_overlap(corners_a, corners_b) -> bool:
    """True when the convex polygons overlap (touching counts as overlap=False
    only if a separating axis with zero gap exists, i.e. gap >= 0)."""
    for axis in _edge_normals(corners_a) + _edge_normals(corners_b):
        lo_a, hi_a = _project(corners_a, axis)
        lo_b, hi_b = _project(corners_b, axis)
        if hi_a <= lo_b or hi_b <= lo_a:
            return False
    return True


def penetration_depth(corners_a, corners_b) -> float:
    """Minimum translation magnitude over the two boxes' edge normals.

    Along each axis the translation that separates the intervals is
    min(hi_a - lo_b, hi_b - lo_a); the plain projection overlap would
    understate it when one interval contains the other.
    """
    best = math.inf
    for axis in _edge_normals(corners_a) + _edge_normals(corners_b):
        lo_a, hi_a = _project(corners_a, axis)
        lo_b, hi_b = _project(corners_b, axis)
        translation = min(hi_a - lo_b, hi_b - lo_a)
        best = min(best, translation)
    return best


def point_segment_distance(p, a, b) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    t = 0.0 if denom == 0.0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    qx, qy = ax + t * dx, ay + t * dy
    return math.hypot(px - qx, py - qy)


def disjoint_distance(corners_a, corners_b) -> float:
    """Minimum distance over every vertex-edge pair of both polygons."""
    best = math.inf
    for pts, poly in ((corners_a, corners_b), (corners_b, corners_a)):
        n = len(poly)
        for p in pts:
            for i in range(n):
                best = min(best, point_segment_distance(p, poly[i], poly[(i + 1) % n]))
    return best


def brute_force_signed_distance(box_a, box_b) -> float:
    """Reference signed distance from SAT overlap + vertex-edge search.

    ``box_a``/``box_b`` are (cx, cy, heading, length, width) tuples.
    """
    ca = box_corners(*box_a)
    cb = box_corners(*box_b)
    if sat_overlap(ca, cb):
        return -penetration_depth(ca, cb)
    return disjoint_distance(ca, cb)


def scalar_normalize_heading(theta: float) -> float:
    """Reference heading wrap into [0, 2*pi), one Python float at a time."""
    if not math.isfinite(theta):
        return theta
    wrapped = theta % (2.0 * math.pi)
    if wrapped >= 2.0 * math.pi:  # theta % (2 pi) can round up to 2 pi itself
        wrapped -= 2.0 * math.pi
    return wrapped


def random_box(rng: np.random.Generator, span=10.0):
    return (
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
        float(rng.uniform(0.5, 6.0)),
        float(rng.uniform(0.5, 6.0)),
    )
