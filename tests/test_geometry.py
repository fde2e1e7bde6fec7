from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import simreal.features
import simreal.geometry
from simreal.features import MetricKind, SceneStates, _nearest_edge, _RoadEdges, extract_features
from simreal.geometry import (
    _SEGMENT_LOOP_LIMIT,
    _SEGMENT_LOOP_MIN_POINTS,
    _corners_xy,
    _nearest_segment_block,
    _nearest_segment_loop,
    _segment_terms,
    box_signed_distance_batch,
    polyline_distance_batch,
    separating_gap,
)
from simreal.harness import generate_submission
from simreal.policies import create_policy
from simreal.synth import SynthSpec, Template, generate

from oracles import brute_force_signed_distance, random_box, sat_overlap, box_corners


def box(cx, cy, heading=0.0, length=2.0, width=2.0):
    return (cx, cy, heading, length, width)


def signed_distance(a, b) -> np.ndarray:
    """Signed distance of broadcastable (..., 5) boxes: the separating gap, then the kernel."""
    return box_signed_distance_batch(a, b, separating_gap(a, b))


def pair_distance(a, b) -> float:
    """The batch kernel on a single pair of (cx, cy, heading, length, width) boxes."""
    return float(signed_distance(np.array(a, dtype=float), np.array(b, dtype=float)))


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
        batch = signed_distance(boxes_a, boxes_b)
        for i in range(300):
            scalar = brute_force_signed_distance(tuple(boxes_a[i]), tuple(boxes_b[i]))
            assert batch[i] == pytest.approx(scalar, abs=1e-6)
            assert batch[i] == pair_distance(boxes_a[i], boxes_b[i])

    def test_batch_broadcasting(self):
        a = np.array([random_box(np.random.default_rng(1)) for _ in range(4)])
        out = signed_distance(a[:, None, :], a[None, :, :])
        assert out.shape == (4, 4)
        assert np.allclose(np.diag(out), out[0, 0])
        assert np.allclose(out, out.T, atol=1e-9)


# ---------------------------------------------------------------------------
# The box kernel before it moved to separate x and y arrays: (N, 4, 4, 2)
# corner/edge tensors, einsum projections and a second trigonometric pass.
# Kept verbatim (helpers renamed) as the byte-for-byte reference.


def _ref_point_segment_distance(p: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Distance from points to segments; all arguments broadcast, last axis xy."""
    d = e - s
    l2 = (d * d).sum(axis=-1)
    t = ((p - s) * d).sum(axis=-1) / np.maximum(l2, 1e-300)
    t = np.clip(t, 0.0, 1.0)
    proj = s + t[..., None] * d
    return np.linalg.norm(p - proj, axis=-1)


def _ref_boxes_corners(boxes: np.ndarray) -> np.ndarray:
    """Corner points of boxes given as (..., 5) [cx, cy, heading, length, width]."""
    c, s = np.cos(boxes[..., 2]), np.sin(boxes[..., 2])
    dx = np.stack([c, s], axis=-1) * (boxes[..., 3:4] / 2.0)
    dy = np.stack([-s, c], axis=-1) * (boxes[..., 4:5] / 2.0)
    ctr = boxes[..., 0:2]
    return np.stack([ctr + dx + dy, ctr + dx - dy, ctr - dx - dy, ctr - dx + dy], axis=-2)


def _ref_disjoint_rect_distance(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Exact distance between disjoint rectangles from their corners (N, 4, 2)."""

    def corner_to_edges(points, poly):
        p = points[:, :, None, :]
        s = poly[:, None, :, :]
        e = np.roll(poly, -1, axis=1)[:, None, :, :]
        return _ref_point_segment_distance(p, s, e).min(axis=(1, 2))

    return np.minimum(corner_to_edges(pa, pb), corner_to_edges(pb, pa))


def reference_box_signed_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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
        pa = _ref_boxes_corners(a2[disjoint])
        pb = _ref_boxes_corners(b2[disjoint])
        out[disjoint] = _ref_disjoint_rect_distance(pa, pb)
    return out.reshape(shape)


_CENTRES = st.one_of(
    st.integers(-12, 12).map(lambda v: v / 2.0),
    st.floats(-50.0, 50.0),
    st.sampled_from([1e6, -1e6, math.nan, math.inf, -math.inf]),
)
_ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 4, 3 * math.pi]),
    st.floats(-10.0, 10.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_EXTENTS = st.one_of(
    st.sampled_from([1.0, 2.0, 4.5, 0.0, 1e-9, 1e-300]),
    st.floats(1e-6, 10.0),
)


def _boxes(draw, n):
    columns = (_CENTRES, _CENTRES, _ANGLES, _EXTENTS, _EXTENTS)
    return np.stack([draw(hnp.arrays(float, n, elements=col)) for col in columns], axis=-1)


@st.composite
def box_pairs(draw):
    """(N, 5) boxes a and b, pair by pair independent, coincident, touching
    (b shifted along a's heading by the half lengths) or overlapping (half that)."""
    n = draw(st.integers(1, 40))
    a, b = _boxes(draw, n), _boxes(draw, n)
    mode = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 3)))
    b[mode == 1] = a[mode == 1]
    shift = (a[:, 3] + b[:, 3]) / 2.0 * np.where(mode == 2, 1.0, 0.5)
    with np.errstate(invalid="ignore"):  # infinite heading values
        along = np.stack([a[:, 0] + shift * np.cos(a[:, 2]), a[:, 1] + shift * np.sin(a[:, 2])], -1)
    b[mode >= 2, :3] = np.concatenate([along, a[:, 2:3]], axis=-1)[mode >= 2]
    swap = draw(hnp.arrays(bool, n))
    a[swap], b[swap] = b[swap], a[swap]
    return a, b


class TestBoxKernelMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(pair=box_pairs())
    @example(pair=(np.array([box(0, 0)]), np.array([box(2, 0)])))  # touching faces
    @example(pair=(np.array([box(0, 0)]), np.array([box(0, 0)])))  # coincident
    @example(pair=(np.array([box(0, 0)]), np.array([box(1, 0.5, 0.3)])))  # overlapping
    @example(pair=(np.array([box(0, 0)]), np.array([box(3, 3, math.pi / 4)])))  # corner first
    @example(pair=(np.array([box(0, 0, 0.0, 1e-300, 1e-300)]), np.array([box(1e-9, 0)])))
    @example(  # infinite centres reach the corner-to-edge pass and read NaN
        pair=(np.array([box(math.inf, 0), box(0, -math.inf), box(math.nan, 0)] * 9),
              np.array([box(5, 0), box(0, 5, 1.0), box(5, 0)] * 9))
    )
    @example(  # the reference reads a positive NaN (0x7ff8...) for the second pair
        pair=(np.array([box(0, 0, math.pi / 2, 1, 1)] * 2),
              np.array([box(0, 1, math.pi / 2, 1, 1), box(0, math.inf, math.pi / 2, 1, 1)]))
    )
    @example(  # several NaN pairs in one call, around a finite one
        pair=(np.array([box(0, 0, math.pi / 2, 1, 1)] * 3),
              np.array([box(0, math.inf, math.pi / 2, 1, 1), box(0, 1, math.pi / 2, 1, 1),
                        box(0, -math.inf, math.pi / 2, 1, 1)]))
    )
    def test_byte_for_byte(self, pair):
        a, b = pair
        with np.errstate(all="ignore"):
            got = signed_distance(a, b)
            want = reference_box_signed_distance(a, b)
        assert got.tobytes() == want.tobytes()

    def test_broadcast_shapes_match_reference(self):
        boxes = np.array([random_box(np.random.default_rng(s)) for s in range(6)]).reshape(2, 3, 5)
        got = signed_distance(boxes[:, None], boxes[None, :, :1])
        want = reference_box_signed_distance(boxes[:, None], boxes[None, :, :1])
        assert got.shape == (2, 2, 3)
        assert got.tobytes() == want.tobytes()


def _finite_pairs(a, b):
    """The pairs of ``box_pairs`` whose centres and headings are finite, and the
    broad-phase slack of each (1e-6 plus 1e-12 of its largest coordinate)."""
    keep = np.isfinite(a[:, :3]).all(axis=1) & np.isfinite(b[:, :3]).all(axis=1)
    a, b = a[keep], b[keep]
    scale = np.abs(np.concatenate([a[:, :2], b[:, :2]], axis=1)).max(axis=1, initial=0.0)
    slack = simreal.features._BROAD_PHASE_SLACK + simreal.features._BROAD_PHASE_REL_SLACK * scale
    return a, b, slack


class TestNearestObjectPruningBounds:
    """The two facts the nearest-object broad phase rests on."""

    @settings(max_examples=200, deadline=None)
    @given(pair=box_pairs())
    @example(pair=(np.array([box(0, 0)]), np.array([box(3, 3)])))  # gap 1, distance sqrt(2)
    @example(pair=(np.array([box(0, 0)]), np.array([box(2, 0)])))  # touching: gap 0.0
    @example(pair=(np.array([box(0, 0)]), np.array([box(1, 0.5, 0.3)])))  # overlapping
    @example(pair=(np.array([box(1e6, 0, 0.4)]), np.array([box(1e6 + 3, 1, 1.2, 4.5, 1.0)])))
    def test_separating_gap_is_at_most_the_distance(self, pair):
        a, b, slack = _finite_pairs(*pair)
        gap = separating_gap(a, b)
        dist = box_signed_distance_batch(a, b, gap)
        assert (gap <= dist + slack).all()
        overlap = gap < 0.0
        assert dist[overlap].tobytes() == gap[overlap].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(pair=box_pairs())
    @example(pair=(np.array([box(0, 0)]), np.array([box(0, 0)])))  # coincident
    @example(pair=(np.array([box(0, 0, 0.0, 4.0, 1.0)]), np.array([box(0, 1.5, 0.0, 4.0, 1.0)])))
    @example(pair=(np.array([box(0, 0, 0.0, 0.0, 0.0)]), np.array([box(1e-9, 0)])))
    def test_signed_distance_is_at_most_the_inscribed_disc_bound(self, pair):
        a, b, slack = _finite_pairs(*pair)
        dist = signed_distance(a, b)
        cd = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
        inner_a, inner_b = np.minimum(a[:, 3], a[:, 4]) / 2.0, np.minimum(b[:, 3], b[:, 4]) / 2.0
        assert (dist <= cd - inner_a - inner_b + slack).all()


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
        simreal.features._road_edge_grid.cache_clear()
        edges = simreal.features._road_edge_segments(scenario.map_features)
        pairs = []

        def counting(points, seg_starts, seg_ends):
            pairs.append(len(points) * len(seg_starts))
            return polyline_distance_batch(points, seg_starts, seg_ends)

        monkeypatch.setattr(simreal.features, "polyline_distance_batch", counting)
        got = extract_features(states, scenario.map_features)[MetricKind.DIST_TO_ROAD_EDGE][0]
        x, y = _corners_xy(*simreal.features._box_table(states).cols)
        corners = np.stack([x.T, y.T], axis=-1).reshape(-1, 2)
        dist, side = polyline_distance_batch(corners, edges.starts, edges.ends)
        want = (dist * side).reshape(states.valid.shape + (4,)).max(axis=-1)
        assert got.tobytes() == want.tobytes()
        assert 0 < sum(pairs) < 0.1 * len(corners) * len(edges.starts)

    def test_maps_with_equal_road_edges_share_one_grid(self):
        def road_edges():
            scenario = generate(SynthSpec(Template.CURVED_ROAD, seed=0)).scenario
            return [replace(f, polyline=f.polyline.copy()) for f in scenario.map_features]

        first, second = road_edges(), road_edges()
        assert first[0].polyline is not second[0].polyline
        edges = simreal.features._road_edge_segments(first)
        assert simreal.features._road_edge_segments(second) is edges
        moved = [replace(first[0], polyline=first[0].polyline + 1.0)] + first[1:]
        assert simreal.features._road_edge_segments(moved) is not edges
        assert simreal.features._road_edge_segments(first[1:]) is not edges


# ---------------------------------------------------------------------------
# Segment loop: walking the segments one at a time gives the (P, S) block's
# bits wherever every coordinate lies inside the loop's bound.


@st.composite
def inside_the_loop_bound(draw):
    """``segments_and_points`` with every non-finite coordinate moved to +-1e7."""
    starts, ends, pts = draw(segments_and_points())
    edge = np.copysign(_SEGMENT_LOOP_LIMIT, pts)
    return starts, ends, np.where(np.isfinite(pts), pts, edge)


class TestSegmentLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=inside_the_loop_bound())
    @example(  # equidistant from a left-hand and a right-hand segment, and on both
        case=(np.array([[0.0, 0.0], [0.0, 2.0]]), np.array([[10.0, 0.0], [10.0, 2.0]]),
              np.array([[5.0, 1.0], [0.0, 1.0], [-3.0, 1.0], [5.0, 0.0], [10.0, 2.0]])),
    )
    @example(  # at the bound itself, every corner of it
        case=(np.array([[-1e7, -1e7], [1e7, 0.0]]), np.array([[1e7, 1e7], [-1e7, 0.5]]),
              np.array([[1e7, -1e7], [-1e7, 1e7], [1e7, 1e7], [-1e7, -1e7], [0.0, 0.25]])),
    )
    def test_matches_the_block_bit_for_bit(self, case):
        starts, ends, pts = case
        assert (np.abs(pts) <= _SEGMENT_LOOP_LIMIT).all()
        terms = _segment_terms(starts, ends)
        d2, k = _nearest_segment_loop(pts, terms)
        want_d2, want_k = _nearest_segment_block(pts, terms)
        assert d2.tobytes() == want_d2.tobytes()
        assert k.tobytes() == want_k.tobytes()

    def tall_batch(self, starts, ends):
        """More points than the crossover: the segment ends, their midpoints and a lattice."""
        lattice = np.stack(np.meshgrid(np.arange(-30.0, 30.5, 0.5),
                                       np.arange(-20.0, 20.5, 0.5)), axis=-1).reshape(-1, 2)
        pts = np.concatenate([starts, ends, (starts + ends) / 2.0, lattice])
        assert len(pts) > _SEGMENT_LOOP_MIN_POINTS
        return pts

    def test_nearest_edge_on_a_map_without_grid_takes_the_loop(self):
        scenario = generate(SynthSpec(Template.FOUR_WAY_INTERSECTION, seed=0)).scenario
        edges = simreal.features._road_edge_segments(scenario.map_features)
        assert edges.size == 0 and len(edges.starts) == 8
        pts = self.tall_batch(edges.starts, edges.ends)
        with mock.patch.object(simreal.geometry, "_nearest_segment_loop",
                               wraps=_nearest_segment_loop) as loop:
            dist, side = _nearest_edge(pts, edges)
        assert loop.call_count == 1
        with mock.patch.object(simreal.geometry, "_SEGMENT_LOOP_MIN_POINTS", math.inf):
            want_dist, want_side = polyline_distance_batch(pts, edges.starts, edges.ends)
        assert dist.tobytes() == want_dist.tobytes()
        assert side.tobytes() == want_side.tobytes()
        assert set(side.tolist()) == {-1, 0, 1}

    @pytest.mark.parametrize("odd", [math.nan, math.inf, _SEGMENT_LOOP_LIMIT * 1.5])
    def test_a_point_outside_the_bound_keeps_the_block(self, odd):
        starts = np.array([[-10.0, 0.0], [10.0, 0.0]])
        ends = np.array([[10.0, 0.0], [10.0, 10.0]])
        pts = self.tall_batch(starts, ends)
        pts[7] = (odd, 1.0)
        with mock.patch.object(simreal.geometry, "_nearest_segment_loop") as loop, \
                np.errstate(invalid="ignore"):
            dist, side = polyline_distance_batch(pts, starts, ends)
        loop.assert_not_called()
        assert np.isfinite(np.delete(dist, 7)).all()
