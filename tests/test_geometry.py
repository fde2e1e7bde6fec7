from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import simreal.features
from simreal.features import MetricKind, SceneStates, _nearest_edge, _RoadEdges, extract_features
from simreal.geometry import _boxes_corners, box_signed_distance_batch, polyline_distance_batch
from simreal.harness import generate_submission
from simreal.policies import create_policy
from simreal.synth import SynthSpec, Template, generate

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


# ---------------------------------------------------------------------------
# Road-edge grid: the candidates of a point's cell give the distance and side
# of a scan over every segment, bit for bit.

_LATTICE = st.integers(-20, 20).map(lambda v: v / 2.0)
_XY = st.one_of(_LATTICE, st.floats(-30.0, 30.0))


@st.composite
def segments_and_points(draw):
    lines = draw(st.lists(st.lists(st.tuples(_XY, _XY), min_size=2, max_size=25),
                          min_size=1, max_size=3))
    starts, ends = [], []
    for line in lines:
        pts = [p for i, p in enumerate(line) if i == 0 or p != line[i - 1]]
        starts += pts[:-1]
        ends += pts[1:]
    assume(starts)
    starts, ends = np.array(starts), np.array(ends)
    on_segment = st.tuples(
        st.integers(0, len(starts) - 1), st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)
    ).map(lambda sf: starts[sf[0]] + sf[1] * (ends[sf[0]] - starts[sf[0]]))
    far = st.sampled_from([-1e4, 1e4, -1e6, 1e6])
    odd = st.sampled_from([math.nan, math.inf, -math.inf])
    point = st.one_of(
        on_segment,
        st.tuples(_XY, _XY).map(np.array),
        st.tuples(far | _XY, far).map(np.array),
        st.tuples(odd | _XY, odd | _XY).map(np.array),
    )
    pts = np.array(draw(st.lists(point, min_size=1, max_size=60))).reshape(-1, 2)
    return starts, ends, pts


def grid_and_scan(starts, ends, pts, cell):
    """(grid, its answer, the all-segment answer) with a grid on any map."""
    with mock.patch.object(simreal.features, "_GRID_MIN_SEGMENTS", 1), \
            mock.patch.object(simreal.features, "_GRID_CELL", cell), \
            np.errstate(invalid="ignore"):  # inf points meet zero-length axes
        edges = _RoadEdges(starts, ends)
        return edges, _nearest_edge(pts, edges), polyline_distance_batch(pts, starts, ends)


class TestRoadEdgeGrid:
    @settings(max_examples=300, deadline=None)
    @given(case=segments_and_points(), cell=st.sampled_from([0.5, 2.0, 7.0]))
    @example(  # equidistant from a left-hand and a right-hand segment
        case=(np.array([[0.0, 0.0], [0.0, 2.0]]), np.array([[10.0, 0.0], [10.0, 2.0]]),
              np.array([[5.0, 1.0], [0.0, 1.0], [-3.0, 1.0]])),
        cell=2.0,
    )
    def test_matches_all_segment_scan_bit_for_bit(self, case, cell):
        starts, ends, pts = case
        edges, (dist, side), (want_dist, want_side) = grid_and_scan(starts, ends, pts, cell)
        assert edges.size > 0
        assert dist.tobytes() == want_dist.tobytes()
        assert side.tobytes() == want_side.tobytes()

    def test_ties_resolve_to_lowest_segment(self):
        # (5, 1) is 1 m from both: left of segment 0, right of segment 1.
        starts = np.array([[0.0, 0.0], [0.0, 2.0]])
        ends = np.array([[10.0, 0.0], [10.0, 2.0]])
        _, (dist, side), _ = grid_and_scan(starts, ends, np.array([[5.0, 1.0]]), 2.0)
        assert (dist.tolist(), side.tolist()) == ([1.0], [1])
        _, (dist, side), _ = grid_and_scan(starts[::-1], ends[::-1], np.array([[5.0, 1.0]]), 2.0)
        assert (dist.tolist(), side.tolist()) == ([1.0], [-1])

    def test_curved_road_sends_few_pairs_to_the_kernel(self, monkeypatch):
        scenario = generate(SynthSpec(Template.CURVED_ROAD, seed=0, noise_level=0.2)).scenario
        rollouts = generate_submission(
            scenario, create_policy("noisy-plan", scenario),
            create_policy("noisy-plan", scenario), k=8, base_seed=0,
        )
        states = SceneStates.from_rollout(scenario, rollouts, range(8))
        simreal.features._road_edge_segments.cache_clear()
        edges = simreal.features._road_edge_segments(scenario.map_features)
        pairs = []

        def counting(points, seg_starts, seg_ends):
            pairs.append(len(points) * len(seg_starts))
            return polyline_distance_batch(points, seg_starts, seg_ends)

        monkeypatch.setattr(simreal.features, "polyline_distance_batch", counting)
        got = extract_features(states, scenario.map_features)[MetricKind.DIST_TO_ROAD_EDGE][0]
        corners = _boxes_corners(simreal.features._boxes(states)).reshape(-1, 2)
        dist, side = polyline_distance_batch(corners, edges.starts, edges.ends)
        want = (dist * side).reshape(states.valid.shape + (4,)).max(axis=-1)
        assert got.tobytes() == want.tobytes()
        assert 0 < sum(pairs) < 0.1 * len(corners) * len(edges.starts)
