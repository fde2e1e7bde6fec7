from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import simreal.estimators
import simreal.features
import simreal.geometry
from simreal.errors import MalformedScenario
from simreal.estimators import rollout_features
from simreal.features import (
    DEFAULT_FEATURE_PARAMS,
    FeatureParams,
    MetricKind,
    SceneStates,
    _wrap_signed,
    extract_features,
)
from simreal.geometry import (
    _corners_xy,
    box_signed_distance_batch,
    polyline_distance_batch,
    separating_gap,
)
from simreal.harness import generate_submission
from simreal.policies import LoggedOraclePolicy
from simreal.scene import (
    POSE_COORDINATE_LIMIT,
    MapFeature,
    MapFeatureKind,
    Scenario,
    ScenarioRollouts,
    Tracks,
    rollout_problems,
)
from simreal.synth import SynthSpec, Template, generate

DT = 0.1


class Series(NamedTuple):
    values: np.ndarray
    valid: np.ndarray


def features(states, metric, map_features=(), params=DEFAULT_FEATURE_PARAMS):
    """One metric's series for every object, keyed by object id, through the
    full extraction."""
    values, valid = extract_features(states, map_features, params)[metric]
    return {oid: Series(values[0, row], valid[0, row]) for row, oid in enumerate(states.ids)}


def track_series(metric, xs, ys=None, zs=None, heading=None, valid=None, dt=DT):
    """One metric's series for a single object given by coordinate sequences."""
    obj = {"x": xs}
    for key, value in (("y", ys), ("z", zs), ("heading", heading), ("valid", valid)):
        if value is not None:
            obj[key] = value
    return features(scene([obj], dt), metric)[0]


def scene_states(poses, valid, dims, dt=DT):
    """(K, A, T, 4) ``poses`` as :class:`SceneStates`, zeros in the invalid slots as its
    constructors write them."""
    poses = np.where(valid[..., None], poses, 0.0)
    return SceneStates(ids=tuple(range(valid.shape[1])), poses=poses, valid=valid, dims=dims,
                       dt=dt)


def scene(objs, dt=DT):
    """objs: list of dicts with keys x, y (arrays), optional z/heading/dims."""
    n = len(objs)
    t = len(objs[0]["x"])
    poses = np.zeros((n, t, 4))
    valid = np.ones((n, t), dtype=bool)
    dims = np.zeros((n, 3))
    for i, o in enumerate(objs):
        for axis, key in enumerate(("x", "y", "z", "heading")):
            poses[i, :, axis] = o.get(key, np.zeros(t))
        if "valid" in o:
            valid[i] = o["valid"]
        dims[i] = o.get("dims", (2.0, 2.0, 2.0))
    return scene_states(poses[None], valid[None], dims, dt)


class TestSceneStatesInvariant:
    """A scene is refused unless every kernel can read it without overflow or NaN."""

    LIMIT_UP = np.nextafter(POSE_COORDINATE_LIMIT, math.inf)

    @staticmethod
    def gapped():
        """Two objects over 3 steps; object 0 is invalid at step 1."""
        return scene([{"x": [0.0, 1.0, 2.0], "valid": [True, False, True]}, {"x": [5.0] * 3}])

    def edited(self, slot, value):
        states = self.gapped()
        poses = states.poses.copy()
        poses[(0, *slot)] = value
        return replace(states, poses=poses)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [(0, 0), (0, 1)], ids=["valid", "invalid"])
    @pytest.mark.parametrize("channel", [0, 1, 2, 3])
    def test_a_non_finite_slot_is_refused(self, value, slot, channel):
        with pytest.raises(MalformedScenario, match="finite"):
            self.edited((*slot, channel), value)

    @pytest.mark.parametrize("value", [LIMIT_UP, -2e7, 1e300])
    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_a_valid_coordinate_beyond_the_envelope_is_refused(self, value, channel):
        with pytest.raises(MalformedScenario, match=r"within 1e\+07"):
            self.edited((1, 2, channel), value)

    @pytest.mark.parametrize("value", [1.0, -1e-300, 1e300])
    def test_an_invalid_slot_that_is_not_zero_is_refused(self, value):
        with pytest.raises(MalformedScenario, match="zeros"):
            self.edited((0, 1, 0), value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, LIMIT_UP])
    def test_a_bad_extent_is_refused(self, value):
        states = self.gapped()
        dims = states.dims.copy()
        dims[1, 0] = value
        with pytest.raises(MalformedScenario, match=r"box extents must be in \[0, 1e\+07\] m"):
            replace(states, dims=dims)

    def test_values_at_the_envelope_s_edges_are_accepted(self):
        lim = POSE_COORDINATE_LIMIT
        states = replace(self.edited((1, 2, 0), -lim), dims=np.array([[lim, 0.0, lim]] * 2))
        assert states.poses[0, 1, 2, 0] == -lim


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
        series = track_series(MetricKind.ANGULAR_SPEED, [0] * 8, heading=[1.0] * 8)
        assert np.all(series.values[series.valid] == 0.0)

    def test_constant_rate(self):
        heading = [0.05 * i for i in range(10)]
        series = track_series(MetricKind.ANGULAR_SPEED, [0] * 10, heading=heading)
        assert np.allclose(series.values[series.valid], 0.5)

    def test_wrap_has_no_spike(self):
        heading = [(6.2 + 0.05 * i) % (2 * math.pi) for i in range(10)]
        series = track_series(MetricKind.ANGULAR_SPEED, [0] * 10, heading=heading)
        assert np.all(np.abs(series.values[series.valid]) < 1.0)
        assert np.allclose(series.values[series.valid], 0.5)

    def test_signed_antisymmetry(self):
        forward = track_series(MetricKind.ANGULAR_SPEED, [0, 0], heading=[0.0, 0.1])
        backward = track_series(MetricKind.ANGULAR_SPEED, [0, 0], heading=[0.1, 0.0])
        assert forward.values[1] == pytest.approx(0.1 / DT)
        assert backward.values[1] == pytest.approx(-0.1 / DT)

    def test_signed_wrap_through_zero(self):
        # 6.2 -> 0.1 rad is a short counter-clockwise step through 2*pi.
        series = track_series(MetricKind.ANGULAR_SPEED, [0, 0], heading=[6.2, 0.1])
        step = series.values[1] * DT
        assert step == pytest.approx(0.1 - 6.2 + 2 * math.pi, abs=1e-12)
        assert step == pytest.approx(0.1831853, abs=1e-6)

    def test_signed_half_turn_is_positive(self):
        for heading in ([0.0, math.pi], [math.pi, 0.0]):
            series = track_series(MetricKind.ANGULAR_SPEED, [0, 0], heading=heading)
            assert series.values[1] == pytest.approx(math.pi / DT)


class TestAngularAccel:
    def test_constant_turn_rate(self):
        heading = [0.05 * i for i in range(10)]
        series = track_series(MetricKind.ANGULAR_ACCEL, [0] * 10, heading=heading)
        assert np.allclose(series.values[series.valid], 0.0)

    def test_omega_ramp(self):
        # Angular speeds 0, 0.1, 0.2 rad/s -> 1.0 rad/s^2.
        heading = np.concatenate([[0.0], np.cumsum([0.0, 0.01, 0.02, 0.03])])
        series = track_series(MetricKind.ANGULAR_ACCEL, [0] * 5, heading=heading)
        assert np.allclose(series.values[series.valid], 1.0)

    def test_sinusoid_matches_analytic_to_first_order(self):
        dt = 1e-3
        n = 2000
        taus = np.arange(n) * dt
        amp, freq = 0.5, 1.0
        heading = amp * np.sin(2 * math.pi * freq * taus)
        series = track_series(MetricKind.ANGULAR_ACCEL, [0] * n, heading=heading, dt=dt)
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
    """Reference for the interaction features of a one-rollout scene: the box
    kernel on every pair, then the vertical gate and the ungated fallback
    minimum."""
    poses, valid = states.poses[0], states.valid[0]
    a, t = valid.shape
    if a < 2:
        return np.zeros((a, t)), np.zeros((a, t), dtype=bool)
    boxes = np.concatenate(
        [
            poses[:, :, :2],
            poses[:, :, 3:],
            np.broadcast_to(states.dims[:, None, :2], (a, t, 2)),
        ],
        axis=-1,
    )
    iu, ju = np.triu_indices(a, 1)
    first, second = boxes[iu], boxes[ju]
    pair_d = box_signed_distance_batch(first, second, separating_gap(first, second))
    dist = np.full((a, a, t), np.inf)
    dist[iu, ju] = pair_d
    dist[ju, iu] = pair_d
    both_valid = valid[:, None, :] & valid[None, :, :]
    both_valid &= ~np.eye(a, dtype=bool)[:, :, None]
    z = poses[:, :, 2]
    zlim = (states.dims[:, 2][:, None] + states.dims[:, 2][None, :]) / 2.0
    gated = both_valid & (np.abs(z[:, None, :] - z[None, :, :]) <= zlim[:, :, None])
    gated_min = np.where(gated, dist, np.inf).min(axis=1)
    any_min = np.where(both_valid, dist, np.inf).min(axis=1)
    ok = both_valid.any(axis=1)
    vals = np.where(gated.any(axis=1), gated_min, np.where(ok, any_min, 0.0))
    return np.where(ok, vals, 0.0), ok


def assert_interaction_matches_all_pairs(states):
    feats = {m: (v[0], ok[0]) for m, (v, ok) in extract_features(states, []).items()}
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
# boxes; wide floats give far-apart objects, up to the pose envelope's edge.
_COORDS = st.one_of(
    st.integers(-12, 12).map(lambda v: v / 2.0),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([-1e6, 1e6, -POSE_COORDINATE_LIMIT, POSE_COORDINATE_LIMIT]),
)
_HEADING = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, math.pi / 4]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
#: Box extents, the envelope's least and largest included.
_DIMS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.5, 1e-300, POSE_COORDINATE_LIMIT])


@st.composite
def box_scenes(draw):
    a = draw(st.integers(1, 6))
    t = draw(st.integers(1, 5))
    poses = np.stack(
        [
            draw(hnp.arrays(float, (a, t), elements=_COORDS)),
            draw(hnp.arrays(float, (a, t), elements=_COORDS)),
            draw(hnp.arrays(float, (a, t), elements=st.sampled_from([0.0, 0.0, 0.5, 10.0]))),
            draw(hnp.arrays(float, (a, t), elements=_HEADING)),
        ],
        axis=-1,
    )
    valid = draw(hnp.arrays(bool, (a, t)))
    # Zero extents make both bounds tight, so only the slack absorbs rounding.
    dims = draw(hnp.arrays(float, (a, 3), elements=_DIMS))
    return scene_states(poses[None], valid[None], dims)


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
    @example(  # row 0's least-gap partner (corner to corner: gap 1, distance sqrt(2)) is
        # not its nearest box (a long one, face to face at 1.2)
        states=scene([
            {"x": [0.0] * 2},
            {"x": [3.0] * 2, "y": [-3.0] * 2},
            {"x": [2.5] * 2, "y": [2.45] * 2, "dims": (6.0, 0.5, 2.0)},
            {"x": [2.5] * 2, "y": [4.2] * 2},  # row 2's least-gap partner
        ])
    )
    @example(  # boxes touching at gap exactly 0.0, a third one gap 1 away
        states=scene([{"x": [0.0] * 2}, {"x": [2.0] * 2}, {"x": [5.0] * 2}])
    )
    @example(  # boxes at the envelope's edges, one as large as it allows
        states=scene([
            {"x": [1e7, -1e7], "y": [-1e7, 1e7], "dims": (1e7, 1e7, 2.0)},
            {"x": [-1e7, 1e7], "y": [-1e7, 1e7], "heading": [0.3, 2.0]},
            {"x": [1e7, 1e7], "y": [1e7, -1e7], "dims": (1e-300, 1e-300, 2.0)},
        ])
    )
    @example(  # every partner of row 0 overlaps it; rows 1 and 2 are disjoint
        states=scene([
            {"x": [0.0] * 2, "dims": (4.0, 4.0, 2.0)},
            {"x": [1.5] * 2, "heading": [0.3, 0.0]},
            {"x": [-1.5] * 2},
        ])
    )
    def test_matches_all_pairs_reference_bit_for_bit(self, states):
        assert_interaction_matches_all_pairs(states)

    def test_dense_scene_sends_few_pairs_to_the_kernel(self, monkeypatch):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=64, seed=0,
                                      noise_level=0.25)).scenario
        states = SceneStates.from_logged_future(scenario)
        pair_steps = []

        def counting(a, b, gap):
            out = box_signed_distance_batch(a, b, gap)
            pair_steps.append(out.size)
            return out

        monkeypatch.setattr(simreal.features, "box_signed_distance_batch", counting)
        assert_interaction_matches_all_pairs(states)
        _, a, t = states.valid.shape
        # Corner-to-edge distances run on under 3% of the 161,280 pair-steps.
        assert 0 < sum(pair_steps) < 0.03 * (a * (a - 1) // 2) * t

    def test_small_odd_chunks_keep_every_bit(self, monkeypatch):
        # Chunks of 7 pairs: the table gathers and the corner loop cross many chunk edges.
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=32, seed=0,
                                      noise_level=0.25)).scenario
        states = SceneStates.from_logged_future(scenario)
        chunks = []

        def counting(a, b, gap):
            chunks.append(len(gap))
            return box_signed_distance_batch(a, b, gap)

        monkeypatch.setattr(simreal.features, "_BOX_CHUNK", 7)
        monkeypatch.setattr(simreal.features, "box_signed_distance_batch", counting)
        vals, ok = simreal.features._nearest_object_arrays(
            states, simreal.features._box_table(states)
        )
        want_vals, want_ok = all_pairs_nearest(states)
        assert vals[0].tobytes() == want_vals.tobytes()
        assert ok[0].tobytes() == want_ok.tobytes()
        assert max(chunks) == 7 and len(chunks) > 100


def reference_nearest_candidates(states, slack):
    """The nearest-object candidate filter on dense (K, A, A, T) bounds, as the
    kernel ran it before the sweep: (row_i, row_j, for_i, for_j) of every pair
    whose lower bound is within reach of either row's bound, in (rollout, i, j,
    step) order."""
    k, a, t = states.valid.shape
    x, y = states.poses[..., 0], states.poses[..., 1]
    dx = x[:, None, :, :] - x[:, :, None, :]
    dy = y[:, None, :, :] - y[:, :, None, :]
    both_valid = states.valid[:, :, None, :] & states.valid[:, None, :, :]
    both_valid[:, np.arange(a), np.arange(a), :] = False
    z = states.poses[..., 2]
    half_heights = states.dims[:, 2] / 2.0
    zlim = half_heights[:, None] + half_heights[None, :]
    gated = both_valid & (np.abs(z[:, :, None, :] - z[:, None, :, :]) <= zlim[:, :, None])
    defining = gated | (both_valid & ~gated.any(axis=2)[:, :, None, :])
    cd = np.sqrt(dx * dx + dy * dy)
    inner = np.minimum(states.dims[:, 0], states.dims[:, 1]) / 2.0
    upper = cd - (inner[:, None] + inner[None, :])[:, :, None]
    upper = np.where(defining, upper, np.inf).min(axis=2)
    iu, ju = np.triu_indices(a, 1)
    radius = np.hypot(states.dims[:, 0], states.dims[:, 1]) / 2.0
    lower = cd[:, iu, ju] - radius[iu, None] - radius[ju, None]
    reach = np.maximum(upper[:, iu], upper[:, ju]) + slack[:, None, None]
    for_i, for_j = defining[:, iu, ju], defining[:, ju, iu]
    roll, pair, step = np.nonzero((for_i | for_j) & (lower <= reach))
    return ((roll * a + iu[pair]) * t + step, (roll * a + ju[pair]) * t + step,
            for_i[roll, pair, step], for_j[roll, pair, step])


def assert_sweep_matches_dense_filter(states):
    """The sweep's candidates are the dense filter's, in its order."""
    k = len(states.valid)
    slack = 1e-6 + 1e-12 * np.abs(states.poses[..., :2]).reshape(k, -1).max(axis=1)
    want = reference_nearest_candidates(states, slack)
    got = simreal.features._nearest_candidates(states, slack)
    for g, w, name in zip(got, want, ("row_i", "row_j", "for_i", "for_j")):
        assert g.dtype.kind == w.dtype.kind and g.tolist() == w.tolist(), name


@st.composite
def lane_clusters(draw):
    """K rollouts of 8 to 40 boxes in clusters along a lane: z-stacked boxes,
    steps with one valid box, and now and then a coordinate at the pose envelope's edge."""
    k, a, t = draw(st.integers(1, 3)), draw(st.integers(8, 40)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.choice([-300.0, -40.0, 0.0, 12.5, 60.0, 1e4], size=draw(st.integers(1, 5)))
    spread = draw(st.sampled_from([0.5, 3.0, 15.0]))
    cluster = rng.integers(0, len(centres), a)
    x = centres[cluster][None, :, None] + rng.normal(0.0, spread, (k, a, t))
    if draw(st.booleans()):  # half-metre grid: exact ties, touching boxes
        x = np.round(x * 2.0) / 2.0
    y = rng.choice([0.0, 0.0, 3.5, -3.5], (1, a, 1)) + rng.choice([0.0, 0.3], (k, a, t))
    z = np.zeros((k, a, t))
    stacked = draw(st.sampled_from(["none", "some", "all"]))
    if stacked == "some":
        z[:, rng.random(a) < 0.2] = 10.0
    elif stacked == "all":  # no box has a gated partner
        z += 10.0 * np.arange(a)[None, :, None]
    heading = rng.choice([0.0, math.pi, math.pi / 2, 0.3], (k, a, t))
    poses = np.stack([x, y, z, heading], axis=-1)
    valid = rng.random((k, a, t)) < draw(st.sampled_from([1.0, 0.9, 0.5]))
    for _ in range(draw(st.integers(0, 3))):  # a step where one box is valid
        kk, tt = rng.integers(k), rng.integers(t)
        valid[kk, :, tt] = False
        valid[kk, rng.integers(a), tt] = True
    for _ in range(draw(st.integers(0, 2))):
        poses[rng.integers(k), rng.integers(a), rng.integers(t), rng.choice([0, 1])] = (
            draw(st.sampled_from([POSE_COORDINATE_LIMIT, -POSE_COORDINATE_LIMIT]))
        )
    dims = np.stack([rng.choice([4.5, 2.0, 0.5, 0.0], a), rng.choice([2.0, 0.5, 1.0], a),
                     rng.choice([1.5, 2.0, 0.0], a)], axis=-1)
    return scene_states(poses, valid, dims)


class TestNearestObjectSweep:
    @settings(max_examples=150, deadline=None)
    @given(states=lane_clusters())
    def test_candidates_and_distances_match_all_pairs(self, states):
        assert_sweep_matches_dense_filter(states)
        values, valid = extract_features(states, [])[MetricKind.DIST_TO_NEAREST_OBJECT]
        for k in range(len(states.valid)):
            want_vals, want_ok = all_pairs_nearest(rollout_alone(states, k))
            assert values[k].tobytes() == want_vals.tobytes()
            assert valid[k].tobytes() == want_ok.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(states=box_scenes())
    def test_small_scenes_give_the_dense_candidates(self, states):
        assert_sweep_matches_dense_filter(states)

    def test_logged_scenes_give_the_dense_candidates(self):
        for agents in (2, 32, 64):
            scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=agents, seed=1,
                                          noise_level=0.25)).scenario
            assert_sweep_matches_dense_filter(SceneStates.from_logged_future(scenario))

    def test_peak_memory_at_128_agents_stays_below_one_pair_tensor(self):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=128, seed=0,
                                      noise_level=0.2)).scenario
        states = SceneStates.from_logged_future(scenario)
        table = simreal.features._box_table(states)
        _, a, t = states.valid.shape
        assert a == 128
        tracemalloc.start()
        try:
            simreal.features._nearest_object_arrays(states, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a * a * t * 8  # one (A, A, T) float64 array: 10.5 MB


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


def all_pairs_ttc(states, speed_vals, speed_ok, params):
    """Reference for the TTC kernel: every follower/leader pair through the
    alignment, corridor and gap tests as dense (K, A, A, T) tensors, then the
    nearest leader's closing time."""
    k, a, t = states.valid.shape
    cap = params.ttc_max
    vals = np.full((k, a, t), cap)
    ok = speed_ok.copy()
    if a >= 2:
        h = states.poses[..., 3]
        hx, hy = np.cos(h)[:, :, None, :], np.sin(h)[:, :, None, :]
        x, y = states.poses[..., 0], states.poses[..., 1]
        dx = x[:, None, :, :] - x[:, :, None, :]
        dy = y[:, None, :, :] - y[:, :, None, :]
        lon = hx * dx + hy * dy
        lat = -hy * dx + hx * dy
        hd = np.abs(_wrap_signed(h[:, None, :, :] - h[:, :, None, :]))
        half_len = states.dims[:, 0] / 2.0
        gap = lon - (half_len[:, None] + half_len[None, :])[:, :, None]
        lat_lim = np.maximum(
            params.ttc_min_lateral,
            (states.dims[:, 1][:, None] + states.dims[:, 1][None, :]) / 2.0,
        )[:, :, None]
        leaders = (states.valid & speed_ok)[:, None, :, :]
        cand = (
            leaders
            & ~np.eye(a, dtype=bool)[:, :, None]
            & (hd <= params.ttc_heading_threshold)
            & (lon > 0.0)
            & (np.abs(lat) <= lat_lim)
            & (gap > 0.0)
        )
        gap_sel = np.where(cand, gap, np.inf)
        lead = np.argmin(gap_sel, axis=2)
        best_gap = np.take_along_axis(gap_sel, lead[:, :, None, :], axis=2)[:, :, 0, :]
        has_lead = np.isfinite(best_gap)
        closing = speed_vals - np.take_along_axis(speed_vals, lead, axis=1)
        ttc = np.where(
            closing > params.ttc_closing_eps,
            np.minimum(cap, best_gap / np.maximum(closing, params.ttc_closing_eps)),
            cap,
        )
        vals = np.where(speed_ok & has_lead, ttc, cap)
    return np.where(ok, vals, 0.0), ok


#: The span budget the kernel runs at by default.
SPAN = simreal.features._TTC_PAIR_STEPS


def lane(xs, dt=0.5, lengths=None, ys=0.0, headings=0.0):
    """One rollout of boxes of width 2 along the x axis; ``xs`` is (A, T), and
    ``ys`` and ``headings`` (0 by default) broadcast to it."""
    xs = np.asarray(xs, dtype=float)
    a, t = xs.shape
    poses = np.zeros((1, a, t, 4))
    poses[0, :, :, 0] = xs
    poses[0, :, :, 1] = ys
    poses[0, :, :, 3] = headings
    dims = np.tile([4.0, 2.0, 1.5], (a, 1))
    if lengths is not None:
        dims[:, 0] = lengths
    return SceneStates(ids=tuple(range(a)), poses=poses, valid=np.ones((1, a, t), dtype=bool),
                       dims=dims, dt=dt)


def stacked(*rollouts):
    """One-rollout lane scenes of the same objects stacked as K rollouts."""
    return replace(rollouts[0], poses=np.concatenate([r.poses for r in rollouts]),
                   valid=np.concatenate([r.valid for r in rollouts]))


def lane_speed(states, dt):
    """The (values, valid) linear speed of ``states`` at step ``dt``, as extraction computes it."""
    delta = np.linalg.norm(np.diff(states.poses[..., :3], axis=-2), axis=-1)
    return simreal.features._backward_difference(delta, states.valid, dt)


def lane_ttc(states, dt, params=DEFAULT_FEATURE_PARAMS):
    """The TTC kernel on ``states``, with the box table and speeds extraction passes it."""
    return simreal.features._ttc_arrays(states, simreal.features._box_table(states),
                                        *lane_speed(states, dt), params)


_LANE_X = st.one_of(
    st.integers(-30, 30).map(lambda v: v / 2.0),
    st.floats(-100.0, 100.0),
    st.sampled_from([1e6, POSE_COORDINATE_LIMIT, -POSE_COORDINATE_LIMIT]),
)
_LANE_Y = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, -2.0]), st.floats(-6.0, 6.0))
_LANE_HEADING = st.one_of(
    st.sampled_from([0.0, 0.0, 0.1, math.pi / 4, math.pi, -math.pi / 2, 2 * math.pi]),
    st.floats(-7.0, 7.0),
)


@st.composite
def lane_scenes(draw):
    """K rollouts of boxes near one lane, often following each other, with
    invalid steps, poses at the envelope's edge, thresholds from tight to
    loose, and a span budget for the kernel (``features._TTC_PAIR_STEPS``)."""
    k, a, t = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    poses = np.stack(
        [
            draw(hnp.arrays(float, (k, a, t), elements=_LANE_X)),
            draw(hnp.arrays(float, (k, a, t), elements=_LANE_Y)),
            np.zeros((k, a, t)),
            draw(hnp.arrays(float, (k, a, t), elements=_LANE_HEADING)),
        ],
        axis=-1,
    )
    sizes = st.sampled_from([0.0, 0.5, 2.0, 4.5])
    dims = np.stack([draw(hnp.arrays(float, a, elements=sizes)) for _ in range(2)]
                    + [np.full(a, 1.5)], axis=-1)
    states = scene_states(
        poses,
        draw(hnp.arrays(bool, (k, a, t), elements=st.sampled_from([True] * 3 + [False]))),
        dims,
        draw(st.sampled_from([0.1, 0.5])),
    )
    params = FeatureParams(
        ttc_max=draw(st.sampled_from([5.0, 0.5, 1e-3, 1e3])),
        ttc_heading_threshold=draw(st.sampled_from([math.pi / 4, 0.0, math.pi])),
        ttc_min_lateral=draw(st.sampled_from([1.0, 0.0, 10.0])),
        ttc_closing_eps=draw(st.sampled_from([1e-3, 1e-9, 1.0])),
    )
    # The kernel's span budget, from one pair-step (one follower a span) to
    # past the whole stack (one span).
    return states, params, draw(st.integers(1, (k + 1) * a * a * t), label="pair_steps")


class TestTimeToCollisionCut:
    @settings(max_examples=300, deadline=None)
    @given(case=lane_scenes())
    @example(  # the same tie with one follower a span: spans split each rollout
        case=(stacked(lane([[0, 1, 2, 3], [10, 10, 10, 10], [7, 8, 9, 10]]),
                      lane([[0, 1, 2, 3], [7, 8, 9, 10], [10, 10, 10, 10]])),
              DEFAULT_FEATURE_PARAMS, 1)
    )
    @example(  # equal gaps at the last step: the lower leader index (1) wins
        case=(lane([[0, 1, 2, 3], [10, 10, 10, 10], [7, 8, 9, 10]]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # the same tie in two rollouts, the stopped leader first in one and last
        # in the other: each rollout takes leader 1
        case=(stacked(lane([[0, 1, 2, 3], [10, 10, 10, 10], [7, 8, 9, 10]]),
                      lane([[0, 1, 2, 3], [7, 8, 9, 10], [10, 10, 10, 10]])),
              DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # at step 2 the gap is exactly ttc_max * speed: 10 m at 2 m/s reads the cap
        case=(lane([[0, 1, 2, 3], [16, 16, 16, 16]]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # 1 cm inside the cut: 9.99 m at 2 m/s
        case=(lane([[0, 1, 2, 3], [15.99] * 4]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # the gap equals ttc_max * speed as rounded, but is below it in real numbers,
        # so it reads 4.999999999999999: the cut's slack must keep this leader
        case=(lane([[0.0, 0.17087189561177435], [12.714466676200491] * 2], dt=0.1),
              DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # leader 1 exactly at the corridor's edge, |lat| == 2.0 == lat_lim; the
        # nearer leader 2 one ulp outside it
        case=(lane([[0, 1, 2, 3], [10] * 4, [9] * 4],
                   ys=[[0.0], [2.0], [np.nextafter(2.0, 3.0)]]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # the same with the corridor's edge on the right, |lat| == lat_lim from -2.0
        case=(lane([[0, 1, 2, 3], [10] * 4, [9] * 4],
                   ys=[[0.0], [-2.0], [np.nextafter(-2.0, -3.0)]]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # bumper gaps 2, 1, 0, -1: a gap of exactly 0 has no leader
        case=(lane([[0, 1, 2, 3], [6] * 4]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # at step 2 the gap is exactly ttc_max * speed and |lat| exactly lat_lim
        case=(lane([[0, 1, 2, 3], [16] * 4], ys=[[0.0], [2.0]]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # stopped follower
        case=(lane([[0, 0, 0, 0], [8, 8, 9, 9]]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    @example(  # a follower jumping between the envelope's edges
        case=(lane([[0, -1e7, 2, 1e7, 4], [9, 9, 9, 9, 9]]), DEFAULT_FEATURE_PARAMS, SPAN)
    )
    def test_matches_all_pairs_reference_bit_for_bit(self, case):
        states, params, pair_steps = case
        with mock.patch.object(simreal.features, "_TTC_PAIR_STEPS", pair_steps):
            vals, ok = lane_ttc(states, states.dt, params)
        want_vals, want_ok = all_pairs_ttc(states, *lane_speed(states, states.dt), params)
        assert vals.tobytes() == want_vals.tobytes()
        assert ok.tobytes() == want_ok.tobytes()

    def test_examples_read_as_described(self):
        at_cut = lane([[0, 1, 2, 3], [16, 16, 16, 16]])
        vals, _ = lane_ttc(at_cut, 0.5)
        assert vals[0, 0].tolist() == [0.0, 5.0, 5.0, 4.5]
        tie = lane([[0, 1, 2, 3], [10, 10, 10, 10], [7, 8, 9, 10]])
        vals, _ = lane_ttc(tie, 0.5)
        assert vals[0, 0, 3] == 1.5  # 3 m closing at 2 m/s on leader 1; leader 2 reads the cap
        swapped = lane([[0, 1, 2, 3], [7, 8, 9, 10], [10, 10, 10, 10]])
        vals, _ = lane_ttc(stacked(tie, swapped), 0.5)
        assert vals[:, 0, 3].tolist() == [1.5, 5.0]  # leader 1 keeps pace in rollout 1
        rounded = lane([[0.0, 0.17087189561177435], [12.714466676200491] * 2], dt=0.1)
        vals, _ = lane_ttc(rounded, 0.1)
        assert vals[0, 0, 1] == 4.999999999999999
        edge = lane([[0, 1, 2, 3], [10] * 4, [9] * 4], ys=[[0.0], [2.0], [np.nextafter(2.0, 3.0)]])
        vals, _ = lane_ttc(edge, 0.5)
        assert vals[0, 0].tolist() == [0.0, 2.5, 2.0, 1.5]  # leader 1, inside by equality
        vals, _ = lane_ttc(lane([[0, 1, 2, 3], [6] * 4]), 0.5)
        assert vals[0, 0].tolist() == [0.0, 0.5, 5.0, 5.0]  # gap 0 at step 2, overlap at 3
        vals, _ = lane_ttc(lane([[0, 1, 2, 3], [16] * 4], ys=[[0.0], [2.0]]), 0.5)
        assert vals[0, 0].tolist() == [0.0, 5.0, 5.0, 4.5]

    @pytest.mark.parametrize("pair_steps, spans", [
        (240, [(0, 3, 0, 4)]),  # the whole stack: 3 rollouts of 4 * 4 * 5 pair-steps
        (160, [(0, 2, 0, 4), (2, 3, 0, 4)]),
        (80, [(0, 1, 0, 4), (1, 2, 0, 4), (2, 3, 0, 4)]),
        # 3 followers of 4 * 5 pair-steps a span, then the rollout's last one
        (79, [(k, k + 1, lo, hi) for k in range(3) for lo, hi in ((0, 3), (3, 4))]),
        (1, [(k, k + 1, i, i + 1) for k in range(3) for i in range(4)]),
    ])
    def test_spans_split_rollouts_then_followers(self, pair_steps, spans):
        with mock.patch.object(simreal.features, "_TTC_PAIR_STEPS", pair_steps):
            assert simreal.features._ttc_spans(3, 4, 5) == spans

    def test_peak_memory_at_128_agents_is_the_workspace_not_the_pairs(self):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=128, seed=0,
                                      noise_level=0.2)).scenario
        states = SceneStates.from_logged_future(scenario)
        k, a, t = states.valid.shape
        assert (k, a) == (1, 128)
        speed = lane_speed(states, states.dt)
        table = simreal.features._box_table(states)
        tracemalloc.start()
        try:
            simreal.features._ttc_arrays(states, table, *speed, DEFAULT_FEATURE_PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Four float and two bool span buffers, twice over, plus 32 float arrays
        # per (rollout, object, step) row: 7.1 MB.  One (K, A, A, T) float array
        # is 10.5 MB, and the kernel that built them peaked at 42 MB.
        workspace = simreal.features._TTC_PAIR_STEPS * (4 * 8 + 2)
        assert peak < 2 * workspace + 32 * 8 * k * a * t


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
        heading = [0.3 * math.sin(0.2 * i) for i in range(15)]
        base = track_series(MetricKind.ANGULAR_SPEED, [0] * 15, heading=heading)
        off = track_series(MetricKind.ANGULAR_SPEED, [0] * 15, heading=[h + 2.0 for h in heading])
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
        rollout_states = SceneStates.from_rollout(scenario, rollouts, [0])
        assert log_states.ids == rollout_states.ids
        from_log = extract_features(log_states, scenario.map_features)
        from_rollout = extract_features(rollout_states, scenario.map_features)
        for metric in MetricKind:
            for logged, simulated in zip(from_log[metric], from_rollout[metric]):
                np.testing.assert_array_equal(logged, simulated)


# ---------------------------------------------------------------------------
# Batched extraction: K stacked rollouts give, row for row, what extracting
# each rollout alone (K=1) gives.


def _arc(radius, segments):
    phis = np.linspace(0.0, 1.5 * math.pi, segments + 1)
    return tuple((radius * math.cos(p), radius * math.sin(p)) for p in phis)


#: No map, a 2-segment straight road, the same with a 1e-9 m segment in one
#: edge, and a 100-segment arc that uses the grid.
_MAPS = {
    "none": (),
    "straight": (
        MapFeature(0, MapFeatureKind.ROAD_EDGE, ((-50.0, 3.0), (50.0, 3.0))),
        MapFeature(1, MapFeatureKind.ROAD_EDGE, ((50.0, -3.0), (-50.0, -3.0))),
    ),
    "short": (
        MapFeature(0, MapFeatureKind.ROAD_EDGE, ((-50.0, 3.0), (0.0, 3.0), (1e-9, 3.0),
                                                 (50.0, 3.0))),
        MapFeature(1, MapFeatureKind.ROAD_EDGE, ((50.0, -3.0), (-50.0, -3.0))),
    ),
    "arc": (MapFeature(0, MapFeatureKind.ROAD_EDGE, _arc(8.0, 100)),),
}


def assert_row_is_alone(batched, e, alone, label):
    """Rollout ``e`` of a batched extraction equals its own K=1 extraction."""
    for metric in MetricKind:
        for got, want in zip(batched[metric], alone[metric]):
            got = got[e : e + 1]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
                f"{label} {metric.value}"
            )


def rollout_alone(states, k):
    return replace(states, poses=states.poses[k : k + 1], valid=states.valid[k : k + 1])


@st.composite
def stacked_states(draw):
    """K rollouts of one box scene, with invalid steps, poses at the envelope's
    edge, z-stacked and touching boxes, and sometimes a repeated rollout."""
    k = draw(st.integers(1, 4))
    a = draw(st.integers(1, 6))
    t = draw(st.integers(1, 5))
    z = st.sampled_from([0.0, 0.0, 0.5, 10.0])
    poses = np.stack(
        [
            draw(hnp.arrays(float, (k, a, t), elements=_COORDS)),
            draw(hnp.arrays(float, (k, a, t), elements=_COORDS)),
            draw(hnp.arrays(float, (k, a, t), elements=z)),
            draw(hnp.arrays(float, (k, a, t), elements=_HEADING)),
        ],
        axis=-1,
    )
    valid = draw(hnp.arrays(bool, (k, a, t)))
    if k > 1 and draw(st.booleans()):
        poses[-1], valid[-1] = poses[0], valid[0]
    dims = draw(hnp.arrays(float, (a, 3), elements=_DIMS))
    return scene_states(poses, valid, dims)


def scenario_with_rollouts(dims, poses, map_features=()):
    """A scenario of ``len(dims)`` boxes (one history step) and its (K, A, T, 4) rollouts."""
    _, a, t, _ = poses.shape
    tracks = Tracks(
        np.arange(a), np.zeros(a), dims, np.zeros((a, 1 + t, 4)), np.ones((a, 1 + t), dtype=bool)
    )
    scenario = Scenario("batched", tracks, map_features, av_track_id=0,
                        history_length=1, future_length=t)
    return scenario, ScenarioRollouts("batched", np.arange(a), poses)


def assert_rollout_features_match_each_rollout(scenario, rollouts):
    _, (features, multiplicity) = rollout_features(scenario, rollouts)
    first: dict[bytes, int] = {}
    for k, poses in enumerate(rollouts.rollouts):
        e = first.setdefault(poses.tobytes(), len(first))
        alone = extract_features(
            SceneStates.from_rollout(scenario, rollouts, [k]), scenario.map_features
        )
        assert_row_is_alone(features, e, alone, f"rollout {k}")
    counts = Counter(poses.tobytes() for poses in rollouts.rollouts)
    assert multiplicity.tolist() == [counts[key] for key in first]


_FINITE = st.one_of(st.integers(-12, 12).map(lambda v: v / 2.0), st.floats(-1e3, 1e3))


class TestBatchedExtraction:
    @settings(max_examples=150, deadline=None)
    @given(states=stacked_states(), road=st.sampled_from(sorted(_MAPS)))
    @example(  # z-stacked pair and a touching pair, repeated
        states=SceneStates(
            ids=(0, 1, 2),
            poses=np.array([[[0.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 10.0, 0.0]],
                            [[2.0, 0.0, 0.0, 0.0]]])[None].repeat(2, axis=0),
            valid=np.ones((2, 3, 1), dtype=bool),
            dims=np.full((3, 3), 2.0),
            dt=DT,
        ),
        road="arc",
    )
    def test_stack_equals_each_rollout_alone(self, states, road):
        batched = extract_features(states, _MAPS[road])
        for k in range(len(states.valid)):
            alone = extract_features(rollout_alone(states, k), _MAPS[road])
            assert_row_is_alone(batched, k, alone, f"rollout {k}")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_grouped_rollout_features_equal_each_rollout_alone(self, data):
        a = data.draw(st.integers(1, 6), label="objects")
        t = data.draw(st.integers(1, 4), label="steps")
        pool = data.draw(
            st.lists(
                hnp.arrays(float, (a, t, 4), elements=_FINITE), min_size=1, max_size=4
            ),
            label="distinct",
        )
        order = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
        dims = data.draw(hnp.arrays(float, (a, 3), elements=st.sampled_from([0.5, 2.0, 4.5])))
        road = data.draw(st.sampled_from(sorted(_MAPS)), label="map")
        # A small row budget makes the groups split after 1 to a few rollouts.
        budget = data.draw(st.integers(1, 4 * a * t), label="budget")
        poses = np.stack([pool[i] for i in order])
        poses[..., 2] = np.abs(poses[..., 2]) % 3.0  # some boxes stack, some overlap in z
        scenario, rollouts = scenario_with_rollouts(dims, poses, _MAPS[road])
        with mock.patch.object(simreal.estimators, "_ROW_BUDGET", budget):
            assert_rollout_features_match_each_rollout(scenario, rollouts)

    def test_thirty_two_distinct_rollouts_of_six_objects_take_two_calls(self, monkeypatch):
        rng = np.random.default_rng(5)
        poses = rng.uniform(-6.0, 6.0, size=(32, 6, 10, 4))
        poses[..., 2] = 0.0
        scenario, rollouts = scenario_with_rollouts(
            np.tile([4.5, 2.0, 1.5], (6, 1)), poses, _MAPS["arc"]
        )
        stacked = []

        def counting(states, map_features, params):
            stacked.append(len(states.valid))
            return extract_features(states, map_features, params)

        monkeypatch.setattr(simreal.estimators, "extract_features", counting)
        rollout_features(scenario, rollouts)
        assert stacked == [33]  # 33 members of 6 * 10 rows fit the default row budget
        # The logged future and 32 rollouts, in groups of 28 members of 6 * 10 rows.
        stacked.clear()
        monkeypatch.setattr(simreal.estimators, "_ROW_BUDGET", 28 * 6 * 10)
        rollout_features(scenario, rollouts)
        assert stacked == [28, 5]
        monkeypatch.undo()
        assert_rollout_features_match_each_rollout(scenario, rollouts)

    def test_only_the_logged_group_has_rows_for_logged_only_tracks(self, monkeypatch):
        rng = np.random.default_rng(6)
        poses = rng.uniform(-6.0, 6.0, size=(32, 5, 10, 4))
        poses[..., 2] = 0.0
        # Track 5 is seen before the handover step but not at it: no rollout has it.
        track_poses = np.zeros((6, 12, 4))
        track_poses[:, :, 0] = 6.0 * np.arange(6)[:, None]
        valid = np.ones((6, 12), dtype=bool)
        valid[5, 1] = False
        tracks = Tracks(np.arange(6), np.zeros(6), np.tile([4.5, 2.0, 1.5], (6, 1)),
                        track_poses, valid)
        scenario = Scenario("logged-only", tracks, _MAPS["arc"], av_track_id=0,
                            history_length=2, future_length=10)
        rollouts = ScenarioRollouts("logged-only", np.arange(5), poses)
        stacked = []

        def counting(states, map_features, params):
            stacked.append(states.valid.shape[:2])
            return extract_features(states, map_features, params)

        monkeypatch.setattr(simreal.estimators, "extract_features", counting)
        monkeypatch.setattr(simreal.estimators, "_ROW_BUDGET", 28 * 6 * 10)
        logged, _ = rollout_features(scenario, rollouts)
        # 28 members over the 6 logged tracks, then up to 1680 // (5 * 10) over 5.
        assert stacked == [(28, 6), (5, 5)]
        monkeypatch.undo()
        alone = extract_features(SceneStates.from_logged_future(scenario), _MAPS["arc"])
        for metric, series in alone.items():
            for got, want in zip(logged[metric], series):
                assert got.tobytes() == want[0, :5].tobytes()
        assert_rollout_features_match_each_rollout(scenario, rollouts)


def reference_road_edge(states, map_features):
    """Road-edge series as a row-major (P, 2) corner array gives them: each valid
    slot's 4 corners in a row, every corner against all segments, then the
    most off-road corner of each row of 4."""
    vals = np.zeros(states.valid.shape)
    ok = states.valid.copy()
    edges = simreal.features._road_edge_segments(map_features)
    x, y = _corners_xy(*simreal.features._box_table(states).cols[:, ok.reshape(-1)])
    corners = np.stack([x.T, y.T], axis=-1).reshape(-1, 2)
    # Short batches take the (points, segments) block, which holds every bit
    # of the segment loop (tests/test_geometry.py) at a bounded size.
    parts = [polyline_distance_batch(corners[lo : lo + 1024], edges.starts, edges.ends)
             for lo in range(0, max(len(corners), 1), 1024)]
    d, side = (np.concatenate(v) for v in zip(*parts))
    vals[ok] = (d * side).reshape(-1, 4).max(axis=1)
    return vals, ok


_EDGE_POSE = st.one_of(
    st.floats(-60.0, 60.0),
    st.integers(-24, 24).map(lambda v: v / 4.0),
    st.sampled_from([POSE_COORDINATE_LIMIT, -POSE_COORDINATE_LIMIT]),
)


@st.composite
def road_edge_scenes(draw):
    """K rollouts of boxes near a road, some with poses at the envelope's edge,
    and some tiled along the steps past the segment loop's point count."""
    k, a, t = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    poses = draw(hnp.arrays(float, (k, a, t, 4), elements=_EDGE_POSE))
    valid = draw(hnp.arrays(bool, (k, a, t), elements=st.sampled_from([True] * 3 + [False])))
    if draw(st.booleans()):  # 4 corners per slot: at least 4,400 corners when all valid
        reps = -(-1100 // (k * a * t))
        poses, valid = np.tile(poses, (1, 1, reps, 1)), np.tile(valid, (1, 1, reps))
    dims = draw(hnp.arrays(float, (a, 3), elements=_DIMS))
    return scene_states(poses, valid, dims)


def tiled_lane(map_name, offset, steps=1200):
    """``steps`` steps of two boxes on a lane, all inside the segment loop's bound."""
    x = np.linspace(-40.0, 40.0, steps)
    poses = np.zeros((1, 2, steps, 4))
    poses[0, :, :, 0] = x, x[::-1]
    poses[0, :, :, 1] = [[offset], [-offset]]
    poses[0, :, :, 3] = [[0.3], [-2.0]]
    return SceneStates(ids=(0, 1), poses=poses, valid=np.ones((1, 2, steps), dtype=bool),
                       dims=np.tile([4.5, 2.0, 1.5], (2, 1)), dt=DT), map_name


def parked(centres, size, steps=1):
    """Square boxes of side ``size`` standing at ``centres`` for ``steps`` steps."""
    a = len(centres)
    poses = np.zeros((1, a, steps, 4))
    poses[0, :, :, :2] = np.asarray(centres, dtype=float)[:, None]
    return SceneStates(ids=tuple(range(a)), poses=poses, valid=np.ones((1, a, steps), dtype=bool),
                       dims=np.full((a, 3), size), dt=DT)


class TestRoadEdgeMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(case=st.tuples(road_edge_scenes(), st.sampled_from(["straight", "short", "arc"])))
    @example(case=tiled_lane("straight", 1.0))  # no grid, one call that walks the segments
    @example(case=tiled_lane("arc", 6.0))  # the grid's per-cell runs
    # 2,400 corners in the arc's centre cell, whose candidates are all 100
    # segments: the run splits after _POLYLINE_CHUNK // 100 = 2,000 of them.
    @example(case=(parked([(0.5, 0.5)], 0.5, steps=600), "arc"))
    # One call with points in a grid cell, outside the grid and at the envelope's edge.
    @example(case=(parked([(8.5, 0.5), (100.0, 0.0), (1e7, 1.0)], 2.0, steps=2), "arc"))
    @example(case=tiled_lane("straight", 2.5, steps=13_000))  # no grid, two calls
    @example(  # two steps at opposite corners of the envelope, the box as large as it allows
        case=(SceneStates(ids=(0,), poses=np.array([[[[1e7, -1e7, 0.0, 1.0],
                                                      [-1e7, 1e7, 0.0, 0.0]]]]),
                          valid=np.ones((1, 1, 2), dtype=bool), dims=np.array([[1e7, 1e7, 1.5]]),
                          dt=DT), "straight"),
    )
    def test_byte_for_byte(self, case):
        states, road = case
        table = simreal.features._box_table(states)
        vals, ok = simreal.features._road_edge_arrays(states, table, _MAPS[road])
        want_vals, want_ok = reference_road_edge(states, _MAPS[road])
        assert ok.tobytes() == want_ok.tobytes()
        assert vals.tobytes() == want_vals.tobytes()

    @pytest.mark.parametrize("road, steps, loops, calls", [
        ("straight", 1200, 1, 1),  # 9,600 corners in one call
        ("straight", 13_000, 1, 2),  # 104,000 corners, at most 100,000 a call on 2
        # segments: the last 4,000 take the block
        ("arc", 1200, 0, None),  # the grid: one short call per cell
    ])
    def test_tall_examples_take_the_segment_loop_or_the_grid(self, road, steps, loops, calls):
        states, _ = tiled_lane(road, 1.0, steps)
        assert (simreal.features._road_edge_segments(_MAPS[road]).size > 0) == (calls is None)
        with mock.patch.object(simreal.geometry, "_nearest_segment_loop",
                               wraps=simreal.geometry._nearest_segment_loop) as loop, \
                mock.patch.object(simreal.features, "polyline_distance_batch",
                                  wraps=polyline_distance_batch) as kernel:
            simreal.features._road_edge_arrays(states, simreal.features._box_table(states),
                                               _MAPS[road])
        assert loop.call_count == loops
        assert calls is None or kernel.call_count == calls


class TestPoseEnvelope:
    @settings(max_examples=100, deadline=None)
    @given(
        poses=hnp.arrays(
            float,
            st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 6), st.just(4)),
            elements=_FINITE | st.floats(-POSE_COORDINATE_LIMIT, POSE_COORDINATE_LIMIT),
        ),
        road=st.sampled_from(sorted(_MAPS)),
    )
    def test_poses_inside_the_envelope_give_finite_features(self, poses, road):
        dims = np.tile([4.5, 2.0, 1.5], (poses.shape[1], 1))
        scenario, rollouts = scenario_with_rollouts(dims, poses, _MAPS[road])
        assert rollout_problems(scenario, rollouts) == []
        states = SceneStates.from_rollout(scenario, rollouts, range(len(poses)))
        for metric, (values, _) in extract_features(states, scenario.map_features).items():
            assert np.isfinite(values).all(), metric.value
