from __future__ import annotations

import math

import numpy as np
import pytest

from simreal.geometry import box_signed_distance_batch, polyline_distance_batch

from oracles import brute_force_signed_distance, random_box, sat_overlap, box_corners


def box(cx, cy, heading=0.0, length=2.0, width=2.0):
    return (cx, cy, heading, length, width)


def pair_distance(a, b) -> float:
    """The batch kernel on a single pair of (cx, cy, heading, length, width) boxes."""
    return float(box_signed_distance_batch(np.array(a, dtype=float), np.array(b, dtype=float)))


class TestBoxSignedDistance:
    def test_face_to_face_gap(self):
        assert pair_distance(box(0, 0), box(4, 0)) == pytest.approx(2.0, abs=1e-9)

    def test_coincident_penetration(self):
        assert pair_distance(box(0, 0), box(0, 0)) == pytest.approx(-2.0, abs=1e-9)

    def test_touching_faces(self):
        assert pair_distance(box(0, 0), box(2, 0)) == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_corner_gap(self):
        # Nearest features are corners: the axis-aligned face gaps understate this.
        d = pair_distance(box(0, 0), box(3, 3))
        assert d == pytest.approx(math.hypot(1.0, 1.0), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_box(rng)
            b = random_box(rng)
            assert pair_distance(a, b) == pytest.approx(
                pair_distance(b, a), abs=1e-9
            )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ba, bb = random_box(rng), random_box(rng)
            base = pair_distance(ba, bb)
            angle = rng.uniform(0, 2 * math.pi)
            tx, ty = rng.uniform(-30, 30, 2)
            c, s = math.cos(angle), math.sin(angle)

            def moved(bx):
                x, y, h, l, w = bx
                return (c * x - s * y + tx, s * x + c * y + ty, h + angle, l, w)

            assert pair_distance(moved(ba), moved(bb)) == pytest.approx(base, abs=1e-6)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            ba, bb = random_box(rng), random_box(rng)
            got = pair_distance(ba, bb)
            want = brute_force_signed_distance(ba, bb)
            assert got == pytest.approx(want, abs=1e-6)
            overlap = sat_overlap(box_corners(*ba), box_corners(*bb))
            assert (got < 0.0) == overlap

    def test_batch_matches_scalar(self):
        # One batched call over many pairs equals the scalar brute-force oracle.
        rng = np.random.default_rng(7)
        boxes_a = np.array([random_box(rng) for _ in range(300)])
        boxes_b = np.array([random_box(rng) for _ in range(300)])
        batch = box_signed_distance_batch(boxes_a, boxes_b)
        for i in range(300):
            scalar = brute_force_signed_distance(tuple(boxes_a[i]), tuple(boxes_b[i]))
            assert batch[i] == pytest.approx(scalar, abs=1e-6)
            assert batch[i] == pair_distance(boxes_a[i], boxes_b[i])

    def test_batch_broadcasting(self):
        a = np.array([random_box(np.random.default_rng(1)) for _ in range(4)])
        out = box_signed_distance_batch(a[:, None, :], a[None, :, :])
        assert out.shape == (4, 4)
        assert np.allclose(np.diag(out), out[0, 0])
        assert np.allclose(out, out.T, atol=1e-9)


def point_to_polyline(point, polyline) -> tuple[float, int]:
    """Distance and side of one point against a polyline's segments, through the batch kernel."""
    pts = np.asarray(polyline, dtype=float)
    dist, side = polyline_distance_batch(np.array([point], dtype=float), pts[:-1], pts[1:])
    return float(dist[0]), int(side[0])


LEFT, ON, RIGHT = 1, 0, -1


class TestPointToPolyline:
    def test_perpendicular_drop_left(self):
        dist, side = point_to_polyline((0.0, 1.0), [(-1.0, 0.0), (1.0, 0.0)])
        assert dist == pytest.approx(1.0)
        assert side == LEFT

    def test_point_on_polyline(self):
        dist, side = point_to_polyline((0.0, 0.0), [(-1.0, 0.0), (1.0, 0.0)])
        assert dist == 0.0
        assert side == ON

    def test_endpoint_nearest(self):
        dist, side = point_to_polyline((2.0, 1.0), [(-1.0, 0.0), (1.0, 0.0)])
        assert dist == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert side == LEFT

    def test_right_side(self):
        _, side = point_to_polyline((0.0, -1.0), [(-1.0, 0.0), (1.0, 0.0)])
        assert side == RIGHT

    def test_direction_flips_side(self):
        _, side = point_to_polyline((0.0, 1.0), [(1.0, 0.0), (-1.0, 0.0)])
        assert side == RIGHT

    def test_tie_breaks_to_lowest_segment(self):
        # Equidistant from both segments of a right-angle polyline; the first
        # segment's direction decides the side.
        polyline = [(-1.0, 0.0), (0.0, 0.0), (0.0, -1.0)]
        dist, side = point_to_polyline((0.5, 0.5), polyline)
        assert dist == pytest.approx(math.sqrt(0.5))
        assert side == LEFT

    def test_multi_segment(self):
        polyline = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        dist, side = point_to_polyline((1.5, 0.5), polyline)
        assert dist == pytest.approx(0.5)
        assert side == RIGHT
