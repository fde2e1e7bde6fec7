from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import simreal.features
from simreal.features import (
    DEFAULT_FEATURE_PARAMS,
    FeatureParams,
    FeatureSeries,
    MetricKind,
    SceneStates,
    extract_features,
)
from simreal.geometry import box_signed_distance_batch
from simreal.harness import generate_submission
from simreal.policies import LoggedOraclePolicy
from simreal.scene import MapFeature, MapFeatureKind
from simreal.synth import SynthSpec, Template, generate

DT = 0.1


def features(states, metric, map_features=(), params=DEFAULT_FEATURE_PARAMS):
    """One metric's series for every object, keyed by object id, through the
    full extraction."""
    values, valid = extract_features(states, map_features, params)[metric]
    return {
        oid: FeatureSeries(oid, metric, values[row], valid[row])
        for row, oid in enumerate(states.ids)
    }


def track_series(metric, xs, ys=None, zs=None, headings=None, valid=None, dt=DT):
    """One metric's series for a single object given by coordinate sequences."""
    obj = {"x": xs}
    for key, value in (("y", ys), ("z", zs), ("heading", headings), ("valid", valid)):
        if value is not None:
            obj[key] = value
    return features(scene([obj], dt), metric)[0]


def scene(objs, dt=DT):
    """objs: list of dicts with keys x, y (arrays), optional z/heading/dims."""
    n = len(objs)
    t = len(objs[0]["x"])
    centers = np.zeros((n, t, 3))
    headings = np.zeros((n, t))
    valid = np.ones((n, t), dtype=bool)
    dims = np.zeros((n, 3))
    for i, o in enumerate(objs):
        centers[i, :, 0] = o["x"]
        centers[i, :, 1] = o.get("y", np.zeros(t))
        centers[i, :, 2] = o.get("z", np.zeros(t))
        headings[i] = o.get("heading", np.zeros(t))
        if "valid" in o:
            valid[i] = o["valid"]
        dims[i] = o.get("dims", (2.0, 2.0, 2.0))
    return SceneStates(
        ids=tuple(range(n)), centers=centers, headings=headings, valid=valid, dims=dims, dt=dt
    )


class TestLinearSpeed:
    def test_stationary_is_zero(self):
        series = track_series(MetricKind.LINEAR_SPEED, [1.0] * 10)
        assert np.all(series.values[series.valid] == 0.0)

    def test_constant_velocity(self):
        xs = [i * 1.0 for i in range(10)]
        series = track_series(MetricKind.LINEAR_SPEED, xs)
        assert np.allclose(series.values[series.valid], 10.0)
        assert not series.valid[0]  # one-step derivative loses the first step
        assert series.valid[1:].all()

    def test_helix_closed_form(self):
        n = 50
        taus = np.arange(n) * DT
        xs = np.cos(taus)
        ys = np.sin(taus)
        zs = 0.1 * np.arange(n)
        series = track_series(MetricKind.LINEAR_SPEED, xs, ys, zs)
        dxy = 2.0 * np.sin(DT / 2.0)  # chord of a unit circle per step
        expected = math.hypot(dxy, 0.1) / DT
        assert np.allclose(series.values[series.valid], expected, atol=1e-12)

    def test_validity_needs_both_endpoints(self):
        valid = [True, True, False, True, True]
        series = track_series(MetricKind.LINEAR_SPEED, [0, 1, 2, 3, 4], valid=valid)
        assert list(series.valid) == [False, True, False, False, True]


class TestLinearAccel:
    def test_constant_speed_zero(self):
        xs = [i * 0.5 for i in range(10)]
        series = track_series(MetricKind.LINEAR_ACCEL, xs)
        assert np.allclose(series.values[series.valid], 0.0)
        assert list(series.valid[:2]) == [False, False]

    def test_linear_ramp(self):
        # Speeds 0, 1, 2, ... m/s per step: accel 10 m/s^2 everywhere.
        xs = np.concatenate([[0.0], np.cumsum(np.arange(10)) * DT])
        series = track_series(MetricKind.LINEAR_ACCEL, xs)
        assert np.allclose(series.values[series.valid], 10.0)

    def test_braking_profile(self):
        # Consecutive speeds 10, 8, 6 m/s -> -20 m/s^2.
        xs = [0.0, 1.0, 1.8, 2.4]
        series = track_series(MetricKind.LINEAR_ACCEL, xs)
        assert np.allclose(series.values[series.valid], -20.0)


class TestAngularSpeed:
    def test_constant_heading(self):
        series = track_series(MetricKind.ANGULAR_SPEED, [0] * 8, headings=[1.0] * 8)
        assert np.all(series.values[series.valid] == 0.0)

    def test_constant_rate(self):
        headings = [0.05 * i for i in range(10)]
        series = track_series(MetricKind.ANGULAR_SPEED, [0] * 10, headings=headings)
        assert np.allclose(series.values[series.valid], 0.5)

    def test_wrap_has_no_spike(self):
        headings = [(6.2 + 0.05 * i) % (2 * math.pi) for i in range(10)]
        series = track_series(MetricKind.ANGULAR_SPEED, [0] * 10, headings=headings)
        assert np.all(np.abs(series.values[series.valid]) < 1.0)
        assert np.allclose(series.values[series.valid], 0.5)


class TestAngularAccel:
    def test_constant_turn_rate(self):
        headings = [0.05 * i for i in range(10)]
        series = track_series(MetricKind.ANGULAR_ACCEL, [0] * 10, headings=headings)
        assert np.allclose(series.values[series.valid], 0.0)

    def test_omega_ramp(self):
        # Angular speeds 0, 0.1, 0.2 rad/s -> 1.0 rad/s^2.
        headings = np.concatenate([[0.0], np.cumsum([0.0, 0.01, 0.02, 0.03])])
        series = track_series(MetricKind.ANGULAR_ACCEL, [0] * 5, headings=headings)
        assert np.allclose(series.values[series.valid], 1.0)

    def test_sinusoid_matches_analytic_to_first_order(self):
        dt = 1e-3
        n = 2000
        taus = np.arange(n) * dt
        amp, freq = 0.5, 1.0
        headings = amp * np.sin(2 * math.pi * freq * taus)
        series = track_series(MetricKind.ANGULAR_ACCEL, [0] * n, headings=headings, dt=dt)
        # Backward second difference approximates the second derivative at
        # tau - dt with O(dt) error.
        analytic = -amp * (2 * math.pi * freq) ** 2 * np.sin(2 * math.pi * freq * (taus - dt))
        err = np.abs(series.values[series.valid] - analytic[series.valid])
        assert err.max() < 50.0 * dt


class TestDistanceToNearest:
    def test_symmetric_pair(self):
        s = scene(
            [
                {"x": [0.0] * 3, "dims": (2.0, 2.0, 2.0)},
                {"x": [4.0] * 3, "dims": (2.0, 2.0, 2.0)},
            ]
        )
        series = features(s, MetricKind.DIST_TO_NEAREST_OBJECT)
        assert np.allclose(series[0].values, 2.0)
        assert np.allclose(series[1].values, 2.0)

    def test_overlap_is_negative(self):
        s = scene([{"x": [0.0] * 3}, {"x": [1.0] * 3}])
        assert np.all(features(s, MetricKind.DIST_TO_NEAREST_OBJECT)[0].values < 0.0)

    def test_three_collinear_boxes_middle_reports_nearest(self):
        s = scene([{"x": [0.0] * 2}, {"x": [5.0] * 2}, {"x": [9.0] * 2}])
        series = features(s, MetricKind.DIST_TO_NEAREST_OBJECT)
        # Middle object: gaps 3.0 (left) and 2.0 (right).
        assert np.allclose(series[1].values, 2.0)
        assert np.allclose(series[0].values, 3.0)
        assert np.allclose(series[2].values, 2.0)

    def test_single_object_scene_all_invalid(self):
        s = scene([{"x": [0.0] * 4}])
        series = features(s, MetricKind.DIST_TO_NEAREST_OBJECT)
        assert not series[0].valid.any()

    def test_vertical_gate_skips_stacked_box(self):
        # Overpass: object 1 passes 10 m above; object 2 is 6 m away at grade.
        s = scene(
            [
                {"x": [0.0] * 3, "z": [0.0] * 3},
                {"x": [0.0] * 3, "z": [10.0] * 3},
                {"x": [8.0] * 3, "z": [0.0] * 3},
            ]
        )
        series = features(s, MetricKind.DIST_TO_NEAREST_OBJECT)
        assert np.allclose(series[0].values, 6.0)

    def test_vertical_gate_fallback_keeps_step_valid(self):
        s = scene([{"x": [0.0] * 3, "z": [0.0] * 3}, {"x": [4.0] * 3, "z": [50.0] * 3}])
        series = features(s, MetricKind.DIST_TO_NEAREST_OBJECT)
        assert series[0].valid.all()
        assert np.allclose(series[0].values, 2.0)  # ungated 2D minimum


def all_pairs_nearest(states):
    """Reference for the interaction features: the box kernel on every pair,
    then the vertical gate and the ungated fallback minimum."""
    a, t = states.valid.shape
    if a < 2:
        return np.zeros((a, t)), np.zeros((a, t), dtype=bool)
    boxes = np.concatenate(
        [
            states.centers[:, :, :2],
            states.headings[:, :, None],
            np.broadcast_to(states.dims[:, None, :2], (a, t, 2)),
        ],
        axis=-1,
    )
    iu, ju = np.triu_indices(a, 1)
    pair_d = box_signed_distance_batch(boxes[iu], boxes[ju])
    dist = np.full((a, a, t), np.inf)
    dist[iu, ju] = pair_d
    dist[ju, iu] = pair_d
    both_valid = states.valid[:, None, :] & states.valid[None, :, :]
    both_valid &= ~np.eye(a, dtype=bool)[:, :, None]
    z = states.centers[:, :, 2]
    zlim = (states.dims[:, 2][:, None] + states.dims[:, 2][None, :]) / 2.0
    gated = both_valid & (np.abs(z[:, None, :] - z[None, :, :]) <= zlim[:, :, None])
    gated_min = np.where(gated, dist, np.inf).min(axis=1)
    any_min = np.where(both_valid, dist, np.inf).min(axis=1)
    ok = both_valid.any(axis=1)
    vals = np.where(gated.any(axis=1), gated_min, np.where(ok, any_min, 0.0))
    return np.where(ok, vals, 0.0), ok


def assert_interaction_matches_all_pairs(states):
    feats = extract_features(states, [])
    vals, ok = all_pairs_nearest(states)
    collided = ((vals < 0.0) & ok).any(axis=1, keepdims=True)
    defined = ok.any(axis=1, keepdims=True)
    dist_vals, dist_ok = feats[MetricKind.DIST_TO_NEAREST_OBJECT]
    assert dist_vals.tobytes() == vals.tobytes()
    assert dist_ok.tobytes() == ok.tobytes()
    coll_vals, coll_ok = feats[MetricKind.COLLISION]
    assert coll_vals.tobytes() == np.broadcast_to(collided, vals.shape).astype(float).tobytes()
    assert coll_ok.tobytes() == np.broadcast_to(defined, ok.shape).tobytes()


# Half-metre grid points with axis-aligned boxes give exact ties and touching
# boxes; wide floats give far-apart objects; NaN exercises non-finite poses.
_COORDS = st.one_of(
    st.integers(-12, 12).map(lambda v: v / 2.0),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([-1e6, 1e6, math.nan]),
)
_HEADINGS = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, math.pi / 4, math.nan]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def box_scenes(draw):
    a = draw(st.integers(1, 6))
    t = draw(st.integers(1, 5))
    centers = np.stack(
        [
            draw(hnp.arrays(float, (a, t), elements=_COORDS)),
            draw(hnp.arrays(float, (a, t), elements=_COORDS)),
            draw(hnp.arrays(float, (a, t), elements=st.sampled_from([0.0, 0.0, 0.5, 10.0]))),
        ],
        axis=-1,
    )
    headings = draw(hnp.arrays(float, (a, t), elements=_HEADINGS))
    valid = draw(hnp.arrays(bool, (a, t)))
    # Zero extents make both bounds tight, so only the slack absorbs rounding.
    dims = draw(hnp.arrays(float, (a, 3), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.5])))
    return SceneStates(
        ids=tuple(range(a)), centers=centers, headings=headings, valid=valid, dims=dims, dt=DT
    )


class TestNearestObjectBroadPhase:
    @settings(max_examples=300, deadline=None)
    @given(states=box_scenes())
    @example(states=scene([{"x": [0.0, 1.0]}]))  # one object
    @example(states=scene([{"x": [0.0, 2.0, 1.0]}, {"x": [2.0, 0.0, 9.0]}]))  # touching
    @example(states=scene([{"x": [0.0] * 2}, {"x": [-4.0] * 2}, {"x": [4.0] * 2}]))  # tie
    @example(  # z-stacked boxes: every row falls back to the ungated minimum
        states=scene([{"x": [0.0] * 2, "z": [0.0] * 2}, {"x": [3.0] * 2, "z": [20.0] * 2}])
    )
    @example(  # a box stacked right above must not hide the gated neighbour
        states=scene([
            {"x": [0.0] * 2, "z": [0.0] * 2},
            {"x": [0.0] * 2, "z": [10.0] * 2},
            {"x": [5.0] * 2, "z": [0.0] * 2},
        ])
    )
    @example(  # nearest box (a large one, corner first) is not the nearest centre
        states=scene([
            {"x": [0.0] * 2, "heading": [math.pi / 4] * 2, "dims": (1.0, 1.0, 2.0)},
            {"x": [5.8] * 2, "heading": [math.pi / 4] * 2, "dims": (4.0, 4.0, 2.0)},
            {"x": [-1.5 * math.sqrt(2.0)] * 2, "y": [-1.5 * math.sqrt(2.0)] * 2,
             "dims": (0.01, 0.01, 2.0)},
            {"x": [8.3] * 2, "dims": (0.01, 0.01, 2.0)},
        ])
    )
    @example(  # overlap, invalid steps and a far-away third object
        states=scene([
            {"x": [0.0, 0.0, 0.0], "valid": [True, False, True]},
            {"x": [1.0, 1.5, 0.5], "heading": [0.3, 0.7, 1.1]},
            {"x": [500.0, 500.0, 500.0], "y": [500.0] * 3},
        ])
    )
    def test_matches_all_pairs_reference_bit_for_bit(self, states):
        assert_interaction_matches_all_pairs(states)

    def test_dense_scene_sends_few_pairs_to_the_kernel(self, monkeypatch):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=64, seed=0,
                                      noise_level=0.25)).scenario
        states = SceneStates.from_logged_future(scenario)
        pair_steps = []

        def counting(a, b):
            out = box_signed_distance_batch(a, b)
            pair_steps.append(out.size)
            return out

        monkeypatch.setattr(simreal.features, "box_signed_distance_batch", counting)
        assert_interaction_matches_all_pairs(states)
        a, t = states.valid.shape
        assert 0 < sum(pair_steps) < 0.2 * (a * (a - 1) // 2) * t


class TestCollisionIndication:
    def test_never_overlapping_is_false(self):
        s = scene([{"x": [0.0] * 5}, {"x": [10.0] * 5}])
        assert np.all(features(s, MetricKind.COLLISION)[0].values == 0.0)

    def test_single_overlapping_step_is_true(self):
        xs = [10.0, 1.5, 10.0, 10.0, 10.0]
        s = scene([{"x": [0.0] * 5}, {"x": xs}])
        series = features(s, MetricKind.COLLISION)
        assert np.all(series[0].values == 1.0)
        assert np.all(series[1].values == 1.0)

    def test_grazing_contact_is_not_collision(self):
        s = scene([{"x": [0.0] * 3}, {"x": [2.0] * 3}])
        assert np.all(features(s, MetricKind.COLLISION)[0].values == 0.0)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-4, 4, size=(3, 12))
        ys = rng.uniform(-4, 4, size=(3, 12))
        s = scene([{"x": xs[i], "y": ys[i]} for i in range(3)])
        dist = features(s, MetricKind.DIST_TO_NEAREST_OBJECT)
        coll = features(s, MetricKind.COLLISION)
        for i in range(3):
            expected = bool((dist[i].values[dist[i].valid] < 0.0).any())
            assert bool(coll[i].values[0]) == expected


def follow_scene(gap, v_follow, v_lead, lateral=0.0, heading_lead=0.0, n=6):
    taus = np.arange(n) * DT
    follower = {"x": v_follow * taus, "dims": (4.0, 2.0, 1.5)}
    leader = {
        "x": gap + 4.0 + v_lead * taus,
        "y": np.full(n, lateral),
        "heading": np.full(n, heading_lead),
        "dims": (4.0, 2.0, 1.5),
    }
    return scene([follower, leader])


class TestTimeToCollision:
    def test_closing_arithmetic(self):
        series = features(follow_scene(10.0, 10.0, 5.0), MetricKind.TIME_TO_COLLISION)
        vals = series[0].values[series[0].valid]
        # Bumper gap starts at 10 and shrinks 0.5 m per step; closing 5 m/s,
        # so the first scored step reads 9.5 / 5 = 1.9 s.
        expected = (10.0 - 0.5 * np.arange(1, 6)) / 5.0
        assert np.allclose(vals, expected, atol=1e-9)
        assert vals[0] == pytest.approx(1.9)

    def test_ten_meter_gap_at_five_closing_reads_two_seconds(self):
        # Gap is 10.5 at the window start, so the first scored step sees
        # exactly 10 m of bumper gap against 5 m/s closing speed.
        series = features(follow_scene(10.5, 10.0, 5.0), MetricKind.TIME_TO_COLLISION)
        assert series[0].values[1] == pytest.approx(2.0, abs=1e-12)

    def test_slower_follower_takes_cap(self):
        series = features(follow_scene(10.0, 5.0, 10.0), MetricKind.TIME_TO_COLLISION)
        assert np.allclose(series[0].values[series[0].valid], 5.0)

    def test_perpendicular_traffic_takes_cap(self):
        scene_ = follow_scene(10.0, 10.0, 5.0, heading_lead=math.pi / 2)
        series = features(scene_, MetricKind.TIME_TO_COLLISION)
        assert np.allclose(series[0].values[series[0].valid], 5.0)

    def test_lateral_offset_breaks_following(self):
        scene_ = follow_scene(10.0, 10.0, 5.0, lateral=5.0)
        series = features(scene_, MetricKind.TIME_TO_COLLISION)
        assert np.allclose(series[0].values[series[0].valid], 5.0)

    def test_leader_has_no_leader(self):
        series = features(follow_scene(10.0, 10.0, 5.0), MetricKind.TIME_TO_COLLISION)
        assert np.allclose(series[1].values[series[1].valid], 5.0)

    def test_values_within_cap(self):
        params = FeatureParams(ttc_max=3.0)
        scene_ = follow_scene(40.0, 12.0, 2.0)
        series = features(scene_, MetricKind.TIME_TO_COLLISION, params=params)
        vals = series[0].values[series[0].valid]
        assert np.all(vals > 0.0) and np.all(vals <= 3.0)


ROAD = [
    MapFeature(0, MapFeatureKind.ROAD_EDGE, ((-100.0, 7.0), (100.0, 7.0))),
    MapFeature(1, MapFeatureKind.ROAD_EDGE, ((100.0, -7.0), (-100.0, -7.0))),
]


class TestRoadEdge:
    def test_inside_reports_negative_with_corner_adjustment(self):
        s = scene([{"x": [0.0] * 3, "y": [4.0] * 3, "dims": (2.0, 2.0, 1.5)}])
        series = features(s, MetricKind.DIST_TO_ROAD_EDGE, ROAD)
        # Center 3 m inside the top edge; the closest corner is 1 m nearer.
        assert np.allclose(series[0].values, -2.0)

    def test_straddling_edge_is_positive(self):
        s = scene([{"x": [0.0] * 3, "y": [7.0] * 3, "dims": (2.0, 2.0, 1.5)}])
        series = features(s, MetricKind.DIST_TO_ROAD_EDGE, ROAD)
        assert np.allclose(series[0].values, 1.0)

    def test_far_outside_is_positive_distance(self):
        s = scene([{"x": [0.0] * 3, "y": [17.0] * 3, "dims": (0.01, 0.01, 1.5)}])
        series = features(s, MetricKind.DIST_TO_ROAD_EDGE, ROAD)
        assert np.allclose(series[0].values, 10.0, atol=0.01)

    def test_no_road_edges_all_invalid(self):
        lane_only = [MapFeature(5, MapFeatureKind.LANE_CENTER, ((0.0, 0.0), (1.0, 0.0)))]
        s = scene([{"x": [0.0] * 3}])
        series = features(s, MetricKind.DIST_TO_ROAD_EDGE, lane_only)
        assert not series[0].valid.any()


class TestOffroad:
    def test_always_inside_false(self):
        s = scene([{"x": [0.0] * 4, "y": [0.0] * 4}])
        assert np.all(features(s, MetricKind.OFFROAD, ROAD)[0].values == 0.0)

    def test_single_offroad_step_true(self):
        s = scene([{"x": [0.0] * 4, "y": [0.0, 0.0, 9.0, 0.0]}])
        assert np.all(features(s, MetricKind.OFFROAD, ROAD)[0].values == 1.0)

    def test_exactly_on_edge_is_false(self):
        # Top corners land exactly on the edge: signed distance 0, not > 0.
        s = scene([{"x": [0.0] * 3, "y": [6.0] * 3, "dims": (2.0, 2.0, 1.5)}])
        series = features(s, MetricKind.DIST_TO_ROAD_EDGE, ROAD)
        assert np.allclose(series[0].values, 0.0, atol=1e-12)
        assert np.all(features(s, MetricKind.OFFROAD, ROAD)[0].values == 0.0)


class TestInvariances:
    def _random_scene(self, rng, n=3, t=20):
        objs = []
        for _ in range(n):
            x0, y0 = rng.uniform(-20, 20, 2)
            v, h = rng.uniform(0, 10), rng.uniform(0, 2 * math.pi)
            taus = np.arange(t) * DT
            objs.append(
                {
                    "x": x0 + v * np.cos(h) * taus,
                    "y": y0 + v * np.sin(h) * taus,
                    "heading": np.full(t, h),
                    "dims": (4.0, 2.0, 1.5),
                }
            )
        return objs

    def test_kinematics_invariant_to_rigid_motion(self):
        rng = np.random.default_rng(17)
        objs = self._random_scene(rng)
        base = extract_features(scene(objs), [])
        angle, tx, ty = 1.1, 50.0, -30.0
        c, s = math.cos(angle), math.sin(angle)
        moved = []
        for o in objs:
            moved.append(
                {
                    "x": c * np.asarray(o["x"]) - s * np.asarray(o["y"]) + tx,
                    "y": s * np.asarray(o["x"]) + c * np.asarray(o["y"]) + ty,
                    "heading": np.asarray(o["heading"]) + angle,
                    "dims": o["dims"],
                }
            )
        transformed = extract_features(scene(moved), [])
        for metric in (
            MetricKind.LINEAR_SPEED,
            MetricKind.LINEAR_ACCEL,
            MetricKind.ANGULAR_SPEED,
            MetricKind.ANGULAR_ACCEL,
            MetricKind.DIST_TO_NEAREST_OBJECT,
        ):
            np.testing.assert_allclose(
                transformed[metric][0], base[metric][0], atol=1e-7, err_msg=metric.value
            )

    def test_angular_features_invariant_to_heading_offset(self):
        headings = [0.3 * math.sin(0.2 * i) for i in range(15)]
        base = track_series(MetricKind.ANGULAR_SPEED, [0] * 15, headings=headings)
        off = track_series(MetricKind.ANGULAR_SPEED, [0] * 15, headings=[h + 2.0 for h in headings])
        np.testing.assert_allclose(off.values, base.values, atol=1e-12)


class TestRoundTripIdentity:
    def test_logged_future_equals_oracle_rollout_features(self):
        from simreal.synth import SynthSpec, Template, generate

        synth = generate(SynthSpec(Template.CURVED_ROAD, seed=4, noise_level=0.2))
        scenario = synth.scenario
        rollouts = generate_submission(
            scenario, LoggedOraclePolicy(scenario), LoggedOraclePolicy(scenario), k=1
        )
        log_states = SceneStates.from_logged_future(scenario)
        rollout_states = SceneStates.from_rollout(scenario, rollouts, 0)
        assert log_states.ids == rollout_states.ids
        from_log = extract_features(log_states, scenario.map_features)
        from_rollout = extract_features(rollout_states, scenario.map_features)
        for metric in MetricKind:
            for logged, simulated in zip(from_log[metric], from_rollout[metric]):
                np.testing.assert_array_equal(logged, simulated)
