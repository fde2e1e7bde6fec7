from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simreal.errors import InconsistentRollouts, MalformedScenario
from simreal.scene import (
    POSE_COORDINATE_LIMIT,
    MapFeature,
    MapFeatureKind,
    Scenario,
    ScenarioRollouts,
    Tracks,
    normalize_heading,
    rollout_problems,
    simulated_object_ids,
    strip_late_spawns,
)

from oracles import scalar_normalize_heading

TWO_PI = 2.0 * math.pi


def make_poses(n=91):
    poses = np.zeros((n, 4))
    poses[:, 0] = np.arange(n)
    return poses


def make_tracks(ids, valid=None, n=91, dims=(4.6, 2.0, 1.8), poses=None):
    """A table of vehicles with the given ids; arrays broadcast over the rows."""
    count = len(ids)
    return Tracks(
        ids=ids,
        types=np.zeros(count, dtype=np.uint8),
        dims=np.broadcast_to(np.asarray(dims, dtype=float), (count, 3)),
        poses=np.broadcast_to(make_poses(n) if poses is None else poses, (count, n, 4)),
        valid=np.broadcast_to(np.ones(n, dtype=bool) if valid is None else valid, (count, n)),
    )


def stacked(*tables):
    """One table holding the rows of several, in order."""
    return Tracks(*(np.concatenate([getattr(t, name) for t in tables])
                    for name in ("ids", "types", "dims", "poses", "valid")))


def make_scenario(tracks, av_track_id=0):
    return Scenario(
        scenario_id="test",
        tracks=tracks,
        map_features=(
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ((-100.0, 7.0), (100.0, 7.0))),
        ),
        av_track_id=av_track_id,
    )


def track_heading(theta):
    poses = np.zeros((1, 4))
    poses[0, 3] = theta
    return make_tracks([0], n=1, poses=poses).poses[0, 0, 3]


class TestHeadingNormalization:
    def test_wraps_positive(self):
        assert track_heading(7.0) == pytest.approx(7.0 - TWO_PI)

    def test_wraps_negative(self):
        assert track_heading(-0.5) == pytest.approx(TWO_PI - 0.5)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_round_trip_in_range_and_congruent(self, theta):
        h = float(normalize_heading(theta))
        assert 0.0 <= h < TWO_PI
        assert math.isclose(
            math.cos(h), math.cos(theta), abs_tol=1e-6
        ) and math.isclose(math.sin(h), math.sin(theta), abs_tol=1e-6)

    def test_boundary_rounding_stays_in_range(self):
        assert 0.0 <= normalize_heading(-1e-18) < TWO_PI

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=50))
    def test_bit_identical_to_scalar_wrap(self, thetas):
        edge = [-1e-18, -0.0, 0.0, TWO_PI, -TWO_PI, math.inf, -math.inf, math.nan, 5e-324]
        values = np.array(thetas + edge)
        got = normalize_heading(values)
        want = np.array([scalar_normalize_heading(float(t)) for t in values])
        assert got.tobytes() == want.tobytes()

    @given(
        hnp.arrays(
            float,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
            elements=st.floats(0.0, TWO_PI, exclude_max=True, allow_subnormal=True),
        ),
        st.booleans(),
    )
    def test_in_range_input_is_bit_identical_to_scalar_wrap(self, values, negative_zero):
        # Every value already in [0, 2*pi), so the wrap has nothing to reduce;
        # -0.0 must still come back as 0.0.
        if negative_zero and values.size:
            values.flat[0] = -0.0
        got = normalize_heading(values)
        want = np.array([scalar_normalize_heading(float(t)) for t in values.flat])
        assert got.shape == values.shape
        assert got.tobytes() == want.tobytes()


class TestScenarioInvariants:
    def test_rejects_bad_extent(self):
        with pytest.raises(MalformedScenario):
            make_tracks([0], dims=(0.0, 2.0, 1.8))

    def test_rejects_bad_pose_shape(self):
        good = make_tracks([0, 1])
        with pytest.raises(MalformedScenario):
            Tracks(good.ids, good.types, good.dims, np.zeros((2, 91, 3)), good.valid)
        with pytest.raises(MalformedScenario):
            Tracks(good.ids, good.types, good.dims, good.poses, np.ones((2, 90), dtype=bool))
        with pytest.raises(MalformedScenario):
            Tracks(good.ids[:1], good.types, good.dims, good.poses, good.valid)
        with pytest.raises(MalformedScenario):
            Tracks(good.ids, good.types, good.dims[:, :2], good.poses, good.valid)

    def test_rejects_unknown_type_code(self):
        good = make_tracks([4, 5])
        with pytest.raises(MalformedScenario, match="track 5: unknown object type code 3"):
            Tracks(good.ids, [0, 3], good.dims, good.poses, good.valid)

    def test_rejects_wrong_state_count(self):
        with pytest.raises(MalformedScenario, match="track 0: expected 91 poses, got 90"):
            make_scenario(make_tracks([0], n=90))

    def test_rejects_missing_av(self):
        with pytest.raises(MalformedScenario):
            make_scenario(make_tracks([1]), av_track_id=0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(MalformedScenario, match="duplicate object_id 0"):
            make_scenario(make_tracks([0, 0]))
        with pytest.raises(MalformedScenario, match="duplicate object_id 7$"):
            make_scenario(make_tracks([0, 7, 3, 7, 3]))

    def test_rejects_degenerate_polyline(self):
        with pytest.raises(MalformedScenario, match="consecutive polyline points must differ"):
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(MalformedScenario, match="polyline needs >= 2 points"):
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ((1.0, 1.0),))
        with pytest.raises(MalformedScenario, match="polyline needs >= 2 points"):
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ())
        with pytest.raises(ValueError, match=r"expected \(P, 2\) points"):
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))

    def test_polyline_is_a_read_only_array(self):
        feature = MapFeature(0, MapFeatureKind.ROAD_EDGE, [(0.0, 0.0), (1, 2)])
        assert feature.polyline.dtype == float and feature.polyline.shape == (2, 2)
        with pytest.raises(ValueError):
            feature.polyline[0, 0] = 5.0
        assert feature == MapFeature(0, MapFeatureKind.ROAD_EDGE, np.array([[0, 0], [1, 2]]))

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_extents(self, field, value):
        dims = [4.6, 2.0, 1.8]
        dims[field] = value
        with pytest.raises(MalformedScenario, match="finite"):
            make_tracks([0], dims=dims)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_pose_at_valid_step(self, value):
        poses = make_poses()
        poses[50, 0] = value
        with pytest.raises(MalformedScenario, match="valid index 50 is not finite"):
            make_tracks([0], poses=poses)

    def test_non_finite_pose_at_invalid_step_is_unconstrained(self):
        poses = make_poses()
        poses[50] = (float("nan"), float("inf"), -float("inf"), float("nan"))
        valid = np.ones(91, bool)
        valid[50] = False
        tracks = make_tracks([0], poses=poses, valid=valid)
        assert np.isnan(tracks.poses[0, 50, 0]) and not tracks.valid[0, 50]

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [1e200, -2e7])
    def test_rejects_valid_pose_beyond_the_coordinate_limit(self, axis, value):
        poses = make_poses()
        poses[50, axis] = value
        with pytest.raises(MalformedScenario, match="track 3: pose at valid index 50 has a "
                                                    r"coordinate beyond 1e\+07 m"):
            make_tracks([3], poses=poses)

    def test_coordinates_up_to_the_limit_and_at_invalid_steps_are_accepted(self):
        poses = make_poses()
        poses[40, :3] = POSE_COORDINATE_LIMIT
        poses[50, :3] = -1e200
        valid = np.ones(91, bool)
        valid[50] = False
        tracks = make_tracks([0], poses=poses, valid=valid)
        assert tracks.poses[0, 40, 0] == POSE_COORDINATE_LIMIT

    def test_first_bad_row_in_file_order_is_named_with_its_first_failing_check(self):
        poses = np.broadcast_to(make_poses(), (3, 91, 4)).copy()
        dims = np.tile([4.6, 2.0, 1.8], (3, 1))
        poses[1, 5, 0] = 1e200  # id 9: beyond the envelope only
        poses[2, 7, 1], dims[2, 0] = math.nan, 0.0  # id 2: extents, then a NaN pose
        valid = np.ones((3, 91), dtype=bool)
        with pytest.raises(MalformedScenario, match="^track 9: pose at valid index 5 has a"):
            Tracks([4, 9, 2], [0, 0, 0], dims, poses, valid)
        poses[1, 5, 0] = 0.0
        with pytest.raises(MalformedScenario, match="^track 2: box extents"):
            Tracks([4, 9, 2], [0, 0, 0], dims, poses, valid)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_polyline_point(self, value):
        with pytest.raises(MalformedScenario, match="finite"):
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ((0.0, 0.0), (value, 1.0), (2.0, 2.0)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_timestep(self, value):
        with pytest.raises(MalformedScenario, match="timestep must be finite"):
            Scenario("test", make_tracks([0]), (), av_track_id=0, timestep=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, -float("inf")])
    def test_rejects_non_positive_extents(self, value):
        with pytest.raises(MalformedScenario, match="positive"):
            make_tracks([0], dims=(value, 2.0, 1.8))

    def test_accepts_128_simulated_objects(self):
        scenario = make_scenario(make_tracks(range(128)))
        assert len(simulated_object_ids(scenario)) == 128
        assert len(scenario.tracks) == 128

    def test_rejects_129_simulated_objects(self):
        with pytest.raises(MalformedScenario, match="129 objects valid at t=0 exceeds the 128"):
            make_scenario(make_tracks(range(129)))

    def test_129th_track_ok_if_invalid_at_t0(self):
        never_valid_at_t0 = np.array([True] * 5 + [False] * 86)
        tracks = stacked(make_tracks(range(128)), make_tracks([128], never_valid_at_t0))
        scenario = make_scenario(tracks)
        assert len(simulated_object_ids(scenario)) == 128

    def test_arrays_are_read_only(self):
        tracks = make_tracks([0, 1])
        for name in ("ids", "types", "dims", "poses", "valid"):
            with pytest.raises(ValueError):
                getattr(tracks, name).flat[0] = 1

    def test_rows_follow_the_given_ids(self):
        tracks = make_tracks([5, 2, 9])
        assert tracks.rows([9, 5, 9]).tolist() == [2, 0, 2]
        with pytest.raises(KeyError, match="3"):
            tracks.rows([2, 3])


def _bad_extent(arrays, row):
    arrays["dims"][row, 1] = -1.0
    return "box extents must be finite and strictly positive"


def _non_finite(arrays, row):
    arrays["poses"][row, 30, 2] = math.inf
    return "pose at valid index 30 is not finite"


def _beyond_envelope(arrays, row):
    arrays["poses"][row, 30, 1] = -3e7
    return "pose at valid index 30 has a coordinate beyond 1e+07 m"


class TestBadRowNamed:
    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40, unique=True),
        data=st.data(),
        fault=st.sampled_from([_bad_extent, _non_finite, _beyond_envelope]),
    )
    def test_error_names_the_bad_rows_id(self, ids, data, fault):
        """One bad row at a random position: the error names that row's id."""
        row = data.draw(st.integers(0, len(ids) - 1), label="row")
        good = make_tracks(ids, n=40)
        arrays = {name: getattr(good, name).copy()
                  for name in ("ids", "types", "dims", "poses", "valid")}
        detail = fault(arrays, row)
        with pytest.raises(MalformedScenario) as err:
            Tracks(**arrays)
        assert str(err.value) == f"track {ids[row]}: {detail}"


class TestSimulatedObjectIds:
    def test_excludes_invalid_at_t0(self):
        mask = np.ones(91, dtype=bool)
        mask[10] = False  # t=0 is array index history_length - 1 == 10
        tracks = stacked(make_tracks([0]), make_tracks([1], mask), make_tracks([2]))
        assert simulated_object_ids(make_scenario(tracks)) == {0, 2}

    def test_av_invalid_at_t0_raises(self):
        mask = np.ones(91, dtype=bool)
        mask[10] = False
        with pytest.raises(MalformedScenario):
            simulated_object_ids(make_scenario(stacked(make_tracks([0], mask), make_tracks([1]))))

    def test_synthetic_two_agent_scenario(self):
        from simreal.synth import SynthSpec, Template, generate

        synth = generate(SynthSpec(Template.FOLLOWING_PAIR, seed=1))
        assert simulated_object_ids(synth.scenario) == {0, 1}


class TestStripLateSpawns:
    def test_removes_future_only_object(self):
        late = np.array([False] * 16 + [True] * 75)  # first valid at future step 5 (index 15)
        tracks = stacked(make_tracks([0]), make_tracks([1], late))
        stripped = strip_late_spawns(make_scenario(tracks))
        assert stripped.tracks.ids.tolist() == [0]

    def test_identity_when_all_valid_in_history(self):
        scenario = make_scenario(make_tracks([0, 1]))
        assert strip_late_spawns(scenario) is scenario

    def test_one_late_spawn_among_four(self):
        late = np.array([False] * 11 + [True] * 80)
        tracks = stacked(make_tracks([0, 1, 2]), make_tracks([3], late))
        stripped = strip_late_spawns(make_scenario(tracks))
        assert len(stripped.tracks) == 3
        assert stripped.tracks == make_tracks([0, 1, 2])

    def test_idempotent(self):
        late = np.array([False] * 20 + [True] * 71)
        scenario = make_scenario(stacked(make_tracks([0]), make_tracks([1], late)))
        once = strip_late_spawns(scenario)
        assert strip_late_spawns(once) is once

    def test_preserves_simulated_ids(self):
        late = np.array([False] * 20 + [True] * 71)
        partial_history = np.array([False] * 9 + [True] * 82)
        scenario = make_scenario(
            stacked(make_tracks([0]), make_tracks([1], late), make_tracks([2], partial_history))
        )
        assert simulated_object_ids(strip_late_spawns(scenario)) == simulated_object_ids(scenario)


class TestScenarioRollouts:
    def _poses(self, k=2, a=2, n=80):
        poses = np.zeros((k, a, n, 4))
        poses[..., 0] = np.arange(n)
        return poses

    def test_rejects_ragged_object_sets(self):
        with pytest.raises(InconsistentRollouts):
            ScenarioRollouts("test", [0, 1], [self._poses(1, 2)[0], self._poses(1, 3)[0]])

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(InconsistentRollouts):
            ScenarioRollouts("test", [0, 1, 2], self._poses())

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InconsistentRollouts):
            ScenarioRollouts("test", [3, 3], self._poses())

    def test_rejects_bad_shape_and_empty_bundle(self):
        with pytest.raises(MalformedScenario):
            ScenarioRollouts("test", [0, 1], np.zeros((2, 2, 80, 3)))
        with pytest.raises(MalformedScenario):
            ScenarioRollouts("test", [0, 1], np.zeros((0, 2, 80, 4)))
        with pytest.raises(MalformedScenario, match="at least one rollout and step"):
            ScenarioRollouts("test", [0, 1], np.zeros((2, 2, 0, 4)))

    def test_rows_sorted_by_id_and_heading_wrapped(self):
        poses = self._poses()
        poses[:, 0, :, 1] = 7.0  # object 5
        poses[:, 1, :, 3] = -0.5  # object 2
        rollouts = ScenarioRollouts("test", [5, 2], poses)
        assert rollouts.ids.tolist() == [2, 5]
        assert np.all(rollouts.rollouts[:, 1, :, 1] == 7.0)
        assert rollouts.rollouts[0, 0, 0, 3] == pytest.approx(TWO_PI - 0.5)
        with pytest.raises(ValueError):
            rollouts.rollouts[0, 0, 0, 0] = 1.0  # read-only

    def test_object_ids(self):
        rollouts = ScenarioRollouts("test", [0, 1], self._poses())
        assert rollouts.object_ids == {0, 1}
        assert rollouts.num_steps == 80


_POSE_VALUES = st.floats(-50.0, 50.0) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 2e7, -2e7, POSE_COORDINATE_LIMIT, -POSE_COORDINATE_LIMIT]
)


class TestRolloutProblemPoses:
    @settings(max_examples=300, deadline=None)
    @given(
        poses=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5), st.just(4)),
            elements=_POSE_VALUES,
        )
    )
    def test_match_the_elementwise_formulas(self, poses):
        """Finiteness from per-row max and min equals ``np.isfinite(...).all(axis=(2, 3))``."""
        rollouts = ScenarioRollouts("test", np.arange(poses.shape[1]), poses)
        scenario = make_scenario(make_tracks(range(poses.shape[1])))
        finite = np.isfinite(rollouts.rollouts).all(axis=(2, 3))
        far = (np.abs(rollouts.rollouts[..., :3]) > POSE_COORDINATE_LIMIT).any(axis=(2, 3))
        far &= finite
        want = [
            ("NONFINITE_POSE", f"rollout {k} object {np.argmin(finite[k])} has NaN/Inf")
            for k in np.flatnonzero(~finite.all(axis=1))
        ] + [
            ("OUT_OF_RANGE_POSE",
             f"rollout {k} object {np.argmax(far[k])} has a coordinate beyond 1e+07 m")
            for k in np.flatnonzero(far.any(axis=1))
        ]
        got = rollout_problems(scenario, rollouts)
        assert [p for p in got if p[0] in ("NONFINITE_POSE", "OUT_OF_RANGE_POSE")] == want
