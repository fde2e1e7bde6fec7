from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simreal.errors import PolicyContractViolation
from simreal.harness import (
    Policy,
    RolloutTrace,
    _NoiseStreams,
    audit_trace,
    closed_loop_rollout,
    generate_submission,
    philox_keys,
)
from simreal.policies import (
    ConstantVelocityPolicy,
    LoggedOraclePolicy,
    NoisyPlanPolicy,
    RandomAgentPolicy,
    ReplanWrapper,
    create_policy,
)
from simreal.scene import simulated_object_ids
from simreal.synth import SynthSpec, Template, generate


def straight_scenario(seed=0):
    return generate(SynthSpec(Template.STRAIGHT_ROAD, seed=seed)).scenario


def curved_scenario(seed=0):
    return generate(SynthSpec(Template.CURVED_ROAD, seed=seed)).scenario


def poses(future, scenario, oid):
    """One object's (T, 4) rollout; rows follow ascending simulated ids."""
    return future[sorted(simulated_object_ids(scenario)).index(oid)]


def with_track_poses(scenario, edit):
    """The scenario with ``edit(poses, valid)`` applied to copies of every track."""
    tracks = []
    for t in scenario.tracks:
        p, v = t.poses.copy(), t.valid.copy()
        edit(p, v)
        tracks.append(replace(t, poses=p, valid=v))
    return replace(scenario, tracks=tuple(tracks))


class TestClosedLoopRollout:
    def test_constant_velocity_advances_linearly(self):
        scenario = straight_scenario()
        env = ConstantVelocityPolicy()
        av = ConstantVelocityPolicy()
        future, trace = closed_loop_rollout(scenario, av, env, seed=0)
        assert len(trace.steps) == 80
        assert future.shape == (len(simulated_object_ids(scenario)), 80, 4)
        xy = poses(future, scenario, 0)[:, :2]
        steps = np.diff(xy, axis=0)
        assert np.allclose(steps, steps[0], atol=1e-9)  # equal step vectors

    def test_oracle_replays_logged_future(self):
        scenario = curved_scenario()
        av = LoggedOraclePolicy(scenario)
        env = LoggedOraclePolicy(scenario)
        future, _ = closed_loop_rollout(scenario, av, env, seed=0)
        h = scenario.history_length
        for track in scenario.tracks:
            want = track.poses[h:]
            np.testing.assert_allclose(poses(future, scenario, track.object_id), want, atol=0.0)

    def test_seeded_random_rollouts_are_bit_identical(self):
        scenario = straight_scenario()
        a, _ = closed_loop_rollout(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), seed=123
        )
        b, _ = closed_loop_rollout(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), seed=123
        )
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        scenario = straight_scenario()
        a, _ = closed_loop_rollout(scenario, RandomAgentPolicy(), RandomAgentPolicy(), seed=1)
        b, _ = closed_loop_rollout(scenario, RandomAgentPolicy(), RandomAgentPolicy(), seed=2)
        assert not np.array_equal(poses(a, scenario, 0), poses(b, scenario, 0))

    def test_same_policy_object_rejected(self):
        scenario = straight_scenario()
        policy = ConstantVelocityPolicy()
        with pytest.raises(PolicyContractViolation):
            closed_loop_rollout(scenario, policy, policy, seed=0)


class _DropsOneId(Policy):
    def step(self, context, rows):
        return ConstantVelocityPolicy().step(context, rows)[:-1]


class _AddsExtraId(Policy):
    def step(self, context, rows):
        out = ConstantVelocityPolicy().step(context, rows)
        return np.vstack([out, np.zeros((1, 4))])


class _ReturnsInvalid(Policy):
    def step(self, context, rows):
        return {context.ids[r]: (0.0, 0.0, 0.0, 0.0) for r in rows}


class _ReturnsNaN(Policy):
    def step(self, context, rows):
        out = ConstantVelocityPolicy().step(context, rows)
        out[-1, 0] = math.nan
        return out


class _OneRowAtATime(Policy):
    def __init__(self, inner):
        self.inner = inner

    def step(self, context, rows):
        return np.concatenate([self.inner.step(context, rows[i : i + 1]) for i in range(len(rows))])


class _Same(Policy):
    """A distinct object delegating to ``inner``, for use as the second policy."""

    def __init__(self, inner):
        self.inner = inner

    def step(self, context, rows):
        return self.inner.step(context, rows)


class TestPolicyContract:
    @pytest.mark.parametrize("bad", [_DropsOneId, _AddsExtraId, _ReturnsInvalid, _ReturnsNaN])
    def test_violations_raise(self, bad):
        scenario = straight_scenario()
        with pytest.raises(PolicyContractViolation):
            closed_loop_rollout(scenario, ConstantVelocityPolicy(), bad(), seed=0)

    def test_context_arrays_are_read_only(self):
        scenario = straight_scenario()

        class Mutator(Policy):
            def step(self, context, rows):
                context.poses[0, 0, 0] = 1e9  # must be refused
                return ConstantVelocityPolicy().step(context, rows)

        with pytest.raises(ValueError):
            closed_loop_rollout(scenario, ConstantVelocityPolicy(), Mutator(), seed=0)


class TestNoLookahead:
    def _zero_future(self, scenario):
        h = scenario.history_length

        def blind(poses, valid):
            poses[h:] = 0.0
            valid[h:] = False

        return with_track_poses(scenario, blind)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda scn: ConstantVelocityPolicy(),
            lambda scn: RandomAgentPolicy(),
            lambda scn: NoisyPlanPolicy(),
        ],
    )
    def test_zeroing_future_changes_nothing(self, factory):
        scenario = straight_scenario()
        blind = self._zero_future(scenario)
        a, _ = closed_loop_rollout(scenario, factory(scenario), factory(scenario), seed=5)
        b, _ = closed_loop_rollout(blind, factory(blind), factory(blind), seed=5)
        np.testing.assert_array_equal(a, b)


class TestFactorization:
    def test_env_output_at_first_step_ignores_av_policy(self):
        scenario = straight_scenario()
        env = ConstantVelocityPolicy()
        a, _ = closed_loop_rollout(scenario, ConstantVelocityPolicy(), env, seed=3)
        b, _ = closed_loop_rollout(scenario, RandomAgentPolicy(), env, seed=3)
        env_ids = sorted(simulated_object_ids(scenario) - {scenario.av_track_id})
        for oid in env_ids:
            np.testing.assert_array_equal(poses(a, scenario, oid)[0], poses(b, scenario, oid)[0])

    def test_later_env_steps_unchanged_for_context_blind_policy(self):
        # Constant velocity reads only its own past, so swapping the AV policy
        # must leave the whole environment trajectory untouched.
        scenario = straight_scenario()
        a, _ = closed_loop_rollout(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seed=3
        )
        b, _ = closed_loop_rollout(scenario, RandomAgentPolicy(), ConstantVelocityPolicy(), seed=3)
        env_ids = sorted(simulated_object_ids(scenario) - {scenario.av_track_id})
        for oid in env_ids:
            np.testing.assert_array_equal(poses(a, scenario, oid), poses(b, scenario, oid))


class TestGenerateSubmission:
    def test_k_rollouts(self):
        scenario = straight_scenario()
        rollouts = generate_submission(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), k=32, base_seed=0
        )
        assert len(rollouts.rollouts) == 32

    def test_deterministic_policy_repeats_identically(self):
        scenario = straight_scenario()
        rollouts = generate_submission(
            scenario,
            LoggedOraclePolicy(scenario),
            ConstantVelocityPolicy(),
            k=32,
            base_seed=0,
        )
        first = rollouts.rollouts[0]
        for future in rollouts.rollouts[1:]:
            np.testing.assert_array_equal(future, first)

    def test_stochastic_policy_produces_distinct_rollouts(self):
        scenario = straight_scenario()
        rollouts = generate_submission(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), k=4, base_seed=0
        )
        a = poses(rollouts.rollouts[0], scenario, 0)
        b = poses(rollouts.rollouts[1], scenario, 0)
        assert not np.array_equal(a, b)

    def test_rejects_bad_k(self):
        scenario = straight_scenario()
        with pytest.raises(ValueError):
            generate_submission(scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), k=0)


class TestAudit:
    def _run(self, seed=0):
        scenario = straight_scenario()
        return closed_loop_rollout(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seed=seed
        )

    def test_harness_trace_passes(self):
        future, trace = self._run()
        report = audit_trace(trace, future, replan_interval=1)
        assert report.ok and not report.hybrid
        assert report.issues == ()

    def test_replan_interval_flags_hybrid(self):
        future, trace = self._run()
        report = audit_trace(trace, future, replan_interval=5)
        assert report.ok and report.hybrid
        assert report.replan_interval == 5

    def test_forged_trace_fails_monotonicity(self):
        future, trace = self._run()
        steps = tuple(s for s in trace.steps if s.step != 40)
        forged = RolloutTrace(trace.scenario_id, trace.seed, steps, trace.final_hash)
        report = audit_trace(forged, future)
        assert not report.ok

    def test_tampered_rollout_fails_hash_chain(self):
        future, trace = self._run()
        tampered = future.copy()
        tampered[0, 40, 0] += 0.5
        report = audit_trace(trace, tampered)
        assert not report.ok
        assert any("hash" in issue for issue in report.issues)

    def test_rollout_rows_must_follow_queried_ids(self):
        future, trace = self._run()
        ids = list(trace.steps[0].ids_queried)
        assert audit_trace(trace, future, ids).ok
        for bad_ids in (ids[::-1], [i + 100 for i in ids]):
            report = audit_trace(trace, future, bad_ids)
            assert report.issues == ("queried ids do not match the rollout's rows",)
        assert not audit_trace(trace, future[:-1]).ok
        assert not audit_trace(trace, future[:, :79]).ok


class TestBaselines:
    def test_constant_velocity_holds_still_without_motion(self):
        # A stationary history extrapolates to a stationary future.
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, seed=0)).scenario

        def freeze(poses, valid):
            poses[:] = poses[scenario.t0_index]
            valid[:] = True

        frozen_scenario = with_track_poses(scenario, freeze)
        future, _ = closed_loop_rollout(
            frozen_scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seed=0
        )
        for track in frozen_scenario.tracks:
            xy = poses(future, frozen_scenario, track.object_id)[:, :2]
            assert np.allclose(xy, xy[0], atol=1e-12)

    def test_constant_velocity_single_valid_observation_means_zero_speed(self):
        scenario = straight_scenario()

        def drop_history(poses, valid):
            valid[: scenario.t0_index] = False

        sparse = with_track_poses(scenario, drop_history)
        future, _ = closed_loop_rollout(
            sparse, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seed=0
        )
        for track in sparse.tracks:
            xy = poses(future, sparse, track.object_id)[:, :2]
            assert np.allclose(xy, xy[0], atol=1e-12)

    def test_random_agent_centers_on_av_frame(self):
        scenario = straight_scenario()
        rollouts = generate_submission(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), k=8, base_seed=0
        )
        av = scenario.track(scenario.av_track_id).poses[scenario.t0_index]
        mean = rollouts.rollouts[..., :2].reshape(-1, 2).mean(axis=0)
        # mu = (1, 1) in the AV frame; AV heading is 0 in this template.
        assert mean[0] == pytest.approx(av[0] + 1.0, abs=0.05)
        assert mean[1] == pytest.approx(av[1] + 1.0, abs=0.05)

    def test_replan_wrapper_transparent_for_constant_velocity(self):
        scenario = curved_scenario()
        plain, _ = closed_loop_rollout(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seed=0
        )
        wrapped, _ = closed_loop_rollout(
            scenario,
            ReplanWrapper(ConstantVelocityPolicy(), 5),
            ReplanWrapper(ConstantVelocityPolicy(), 5),
            seed=0,
        )
        np.testing.assert_array_equal(plain, wrapped)

    def test_noisy_plan_policy_depends_on_replan_interval(self):
        scenario = straight_scenario()
        fast, _ = closed_loop_rollout(
            scenario,
            ReplanWrapper(NoisyPlanPolicy(), 1),
            ReplanWrapper(NoisyPlanPolicy(), 1),
            seed=0,
        )
        slow, _ = closed_loop_rollout(
            scenario,
            ReplanWrapper(NoisyPlanPolicy(), 10),
            ReplanWrapper(NoisyPlanPolicy(), 10),
            seed=0,
        )
        assert not np.array_equal(poses(fast, scenario, 0), poses(slow, scenario, 0))

    @pytest.mark.parametrize("interval", [10, 79, 80, 200])
    def test_replan_wrapper_replans_every_rollout(self, interval):
        # A plan spanning the whole future window must not leak into the next
        # rollout: every seed gets its own noise.
        scenario = straight_scenario()
        rollouts = generate_submission(
            scenario,
            create_policy("noisy-plan", scenario, replan_interval=interval),
            create_policy("noisy-plan", scenario, replan_interval=interval),
            k=4,
            base_seed=0,
        )
        distinct = {r.tobytes() for r in rollouts.rollouts}
        assert len(distinct) == 4

    def test_vectorized_policies_match_per_object_steps(self):
        # A policy stepped for all rows at once equals the same policy stepped
        # one row at a time.
        scenario = straight_scenario()
        for policy in (ConstantVelocityPolicy(), RandomAgentPolicy(), NoisyPlanPolicy()):
            future, _ = closed_loop_rollout(scenario, _OneRowAtATime(policy), _OneRowAtATime(
                policy), seed=7)
            batched, _ = closed_loop_rollout(scenario, policy, _Same(policy), seed=7)
            np.testing.assert_array_equal(future, batched)

    def test_registry_round_trip(self):
        scenario = straight_scenario()
        for name in ("constant-velocity", "random", "logged-oracle", "noisy-plan"):
            assert isinstance(create_policy(name, scenario), Policy)
        wrapped = create_policy("constant-velocity", scenario, replan_interval=4)
        assert isinstance(wrapped, ReplanWrapper)
        with pytest.raises(KeyError):
            create_policy("does-not-exist", scenario)


def relabeled(scenario, offset):
    """The scenario with every track id shifted by ``offset``."""
    tracks = tuple(replace(t, object_id=t.object_id + offset) for t in scenario.tracks)
    return replace(scenario, tracks=tracks, av_track_id=scenario.av_track_id + offset)


def seed_sequence_stream(seed, step, object_id):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, step, object_id))))


# Values on both sides of 2**32, where SeedSequence switches from one to two
# 32-bit entropy words per value, and the extremes of the range.
_WORD_VALUES = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]),
)


class TestNoiseStreams:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_WORD_VALUES, _WORD_VALUES, _WORD_VALUES), min_size=1, max_size=6))
    def test_keys_equal_seed_sequence_state(self, rows):
        want = [np.random.SeedSequence(r).generate_state(2, np.uint64) for r in rows]
        assert philox_keys(np.array(rows, dtype=np.uint64)).tobytes() == np.array(want).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=_WORD_VALUES,
        ids=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True),
        step=st.integers(1, 120),
        n=st.integers(1, 4),
        loc=st.floats(-1e3, 1e3),
        scale=st.floats(0.0, 1e3),
        data=st.data(),
    )
    def test_draws_equal_per_object_generators(self, seed, ids, step, n, loc, scale, data):
        # Steps past 80 are virtual plan steps, whose keys are derived on demand.
        rows = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=1, max_size=6))
        noise = _NoiseStreams(seed, ids, 80)
        z = noise.draw(step, np.array(rows), n)
        for i, r in enumerate(rows):
            want = seed_sequence_stream(seed, step, ids[r])
            assert z[i].tobytes() == want.standard_normal(n).tobytes()
            # Policies shift and scale the draws instead of calling normal().
            normal = seed_sequence_stream(seed, step, ids[r]).normal(loc, scale, size=n)
            assert (loc + scale * z[i]).tobytes() == normal.tobytes()

    def test_negative_seed_is_rejected(self):
        scenario = straight_scenario()
        with pytest.raises(ValueError, match="seed"):
            closed_loop_rollout(scenario, NoisyPlanPolicy(), NoisyPlanPolicy(), seed=-1)
        with pytest.raises(ValueError, match="seed"):
            closed_loop_rollout(scenario, NoisyPlanPolicy(), NoisyPlanPolicy(), seed=2**64)

    @pytest.mark.parametrize("factory", [NoisyPlanPolicy, RandomAgentPolicy])
    def test_negative_ids_under_noise_are_contract_violations(self, factory):
        scenario = relabeled(straight_scenario(), -100)
        with pytest.raises(PolicyContractViolation, match="negative ids"):
            closed_loop_rollout(scenario, factory(), factory(), seed=0)

    def test_negative_ids_without_noise_still_roll_out(self):
        scenario = relabeled(straight_scenario(), -100)
        future, _ = closed_loop_rollout(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seed=0
        )
        assert np.isfinite(future).all()

    def test_noise_only_needs_the_drawing_rows_non_negative(self):
        # The AV keeps a non-negative id and draws noise; the rest hold still.
        scenario = straight_scenario()
        av = scenario.av_track_id
        tracks = tuple(
            t if t.object_id == av else replace(t, object_id=-1 - t.object_id)
            for t in scenario.tracks
        )
        scenario = replace(scenario, tracks=tracks)
        future, _ = closed_loop_rollout(scenario, NoisyPlanPolicy(), ConstantVelocityPolicy())
        assert np.isfinite(future).all()

    def test_large_ids_draw_the_seed_sequence_streams(self):
        scenario = relabeled(straight_scenario(), 2**40)
        seen = {}

        class Recording(Policy):
            def step(self, context, rows):
                seen[context.step, context.ids[rows[0]]] = context.standard_normals(rows, 2)[0]
                return context.last_valid_pose(rows)

        closed_loop_rollout(scenario, Recording(), ConstantVelocityPolicy(), seed=5)
        assert len(seen) == scenario.future_length
        for (step, oid), z in seen.items():
            assert z.tobytes() == seed_sequence_stream(5, step, oid).standard_normal(2).tobytes()
