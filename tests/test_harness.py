from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simreal.errors import InvalidOption, PolicyContractViolation
from simreal.harness import (
    _ZIGGURAT_KI,
    _ZIGGURAT_WI,
    MAX_BATCH_ROWS,
    Policy,
    _NoiseStreams,
    _philox_first_block,
    audit_trace,
    closed_loop_rollout,
    generate_submission,
    philox_keys,
    rollout_batches,
)
from simreal.policies import (
    POLICY_REGISTRY,
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


def following_scenario():
    return generate(SynthSpec(Template.FOLLOWING_PAIR, agent_count=2, seed=0)).scenario


def curved_scenario(seed=0):
    return generate(SynthSpec(Template.CURVED_ROAD, seed=seed)).scenario


def poses(future, scenario, oid):
    """One object's (T, 4) rollout; rows follow ascending simulated ids."""
    return future[sorted(simulated_object_ids(scenario)).index(oid)]


def with_track_poses(scenario, edit):
    """The scenario with ``edit(poses, valid)`` applied to copies of every track."""
    poses, valid = scenario.tracks.poses.copy(), scenario.tracks.valid.copy()
    for p, v in zip(poses, valid):
        edit(p, v)
    return replace(scenario, tracks=replace(scenario.tracks, poses=poses, valid=valid))


class TestClosedLoopRollout:
    def test_constant_velocity_advances_linearly(self):
        scenario = straight_scenario()
        env = ConstantVelocityPolicy()
        av = ConstantVelocityPolicy()
        (future,), (trace,) = closed_loop_rollout(scenario, av, env, seeds=(0,))
        assert trace.ids == tuple(sorted(simulated_object_ids(scenario)))
        assert future.shape == (len(simulated_object_ids(scenario)), 80, 4)
        xy = poses(future, scenario, 0)[:, :2]
        steps = np.diff(xy, axis=0)
        assert np.allclose(steps, steps[0], atol=1e-9)  # equal step vectors

    def test_oracle_replays_logged_future(self):
        scenario = curved_scenario()
        av = LoggedOraclePolicy(scenario)
        env = LoggedOraclePolicy(scenario)
        (future,), _ = closed_loop_rollout(scenario, av, env, seeds=(0,))
        h = scenario.history_length
        for oid, logged in zip(scenario.tracks.ids.tolist(), scenario.tracks.poses):
            np.testing.assert_allclose(poses(future, scenario, oid), logged[h:], atol=0.0)

    def test_seeded_random_rollouts_are_bit_identical(self):
        scenario = straight_scenario()
        (a,), _ = closed_loop_rollout(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), seeds=(123,)
        )
        (b,), _ = closed_loop_rollout(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), seeds=(123,)
        )
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        scenario = straight_scenario()
        (a,), _ = closed_loop_rollout(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), seeds=(1,)
        )
        (b,), _ = closed_loop_rollout(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), seeds=(2,)
        )
        assert not np.array_equal(poses(a, scenario, 0), poses(b, scenario, 0))

    def test_same_policy_object_rejected(self):
        scenario = straight_scenario()
        policy = ConstantVelocityPolicy()
        with pytest.raises(PolicyContractViolation):
            closed_loop_rollout(scenario, policy, policy, seeds=(0,))


class _DropsOneId(Policy):
    def step(self, context, rows):
        return ConstantVelocityPolicy().step(context, rows)[:, :-1]


class _AddsExtraId(Policy):
    def step(self, context, rows):
        out = ConstantVelocityPolicy().step(context, rows)
        return np.concatenate([out, np.zeros((len(out), 1, 4))], axis=1)


class _ReturnsInvalid(Policy):
    def step(self, context, rows):
        return {context.ids[r]: (0.0, 0.0, 0.0, 0.0) for r in rows}


class _ReturnsNaN(Policy):
    def step(self, context, rows):
        out = ConstantVelocityPolicy().step(context, rows)
        out[:, -1, 0] = math.nan
        return out


class _OneRowAtATime(Policy):
    def __init__(self, inner):
        self.inner = inner

    def step(self, context, rows):
        return np.concatenate(
            [self.inner.step(context, rows[i : i + 1]) for i in range(len(rows))], axis=1
        )


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
            closed_loop_rollout(scenario, ConstantVelocityPolicy(), bad(), seeds=(0,))

    def test_context_arrays_are_read_only(self):
        scenario = straight_scenario()

        class Mutator(Policy):
            def step(self, context, rows):
                context.poses[0, 0, 0] = 1e9  # must be refused
                return ConstantVelocityPolicy().step(context, rows)

        with pytest.raises(ValueError):
            closed_loop_rollout(scenario, ConstantVelocityPolicy(), Mutator(), seeds=(0,))


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
        (a,), _ = closed_loop_rollout(scenario, factory(scenario), factory(scenario), seeds=(5,))
        (b,), _ = closed_loop_rollout(blind, factory(blind), factory(blind), seeds=(5,))
        np.testing.assert_array_equal(a, b)


class TestFactorization:
    def test_env_output_at_first_step_ignores_av_policy(self):
        scenario = straight_scenario()
        env = ConstantVelocityPolicy()
        (a,), _ = closed_loop_rollout(scenario, ConstantVelocityPolicy(), env, seeds=(3,))
        (b,), _ = closed_loop_rollout(scenario, RandomAgentPolicy(), env, seeds=(3,))
        env_ids = sorted(simulated_object_ids(scenario) - {scenario.av_track_id})
        for oid in env_ids:
            np.testing.assert_array_equal(poses(a, scenario, oid)[0], poses(b, scenario, oid)[0])

    def test_later_env_steps_unchanged_for_context_blind_policy(self):
        # Constant velocity reads only its own past, so swapping the AV policy
        # must leave the whole environment trajectory untouched.
        scenario = straight_scenario()
        (a,), _ = closed_loop_rollout(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seeds=(3,)
        )
        (b,), _ = closed_loop_rollout(
            scenario, RandomAgentPolicy(), ConstantVelocityPolicy(), seeds=(3,)
        )
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

    @pytest.mark.parametrize("option", [{"heading_sigma": 1e308}, {"speed_sigma": 1e308}])
    def test_overflowing_option_is_a_contract_violation_not_a_warning(self, option):
        scenario = following_scenario()
        env = create_policy("noisy-plan", scenario, option)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PolicyContractViolation, match="not finite"):
                generate_submission(scenario, ConstantVelocityPolicy(), env, k=2)

    def test_rollouts_that_break_the_submission_contract_are_refused(self):
        scenario = following_scenario()
        env = create_policy("noisy-plan", scenario, {"speed_sigma": 1e200})
        with pytest.raises(PolicyContractViolation, match=(
            rf"rollouts of {scenario.scenario_id} break the submission contract: "
            r"\[OUT_OF_RANGE_POSE\] rollout 0 object \d+ has a coordinate beyond 1e\+07 m "
            r"\(and 1 more\)$"
        )):
            generate_submission(scenario, ConstantVelocityPolicy(), env, k=2)


class _RewritesStepOne(Policy):
    """Steps like ``inner``, but at step 10 writes through the context's base buffer into step 1."""

    def __init__(self, inner):
        self.inner = inner

    def step(self, context, rows):
        if context.step == 10:
            buffer = context.poses.base
            assert buffer.flags.writeable
            buffer[:, :, context.t0_index + 1, 0] += 1.0
        return self.inner.step(context, rows)


class TestAudit:
    def _run(self, seed=0):
        scenario = straight_scenario()
        (future,), (trace,) = closed_loop_rollout(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seeds=(seed,)
        )
        return future, trace

    def test_harness_trace_passes(self):
        future, trace = self._run()
        report = audit_trace(trace, future, trace.ids)
        assert report.ok
        assert report.issues == ()

    def test_forged_digest_fails(self):
        future, trace = self._run()
        for digest in ("0" * 64, trace.digest[::-1], trace.digest.upper()):
            forged = replace(trace, digest=digest)
            assert audit_trace(forged, future, trace.ids).issues == ("digest mismatch",)
        # The digest binds the scenario id and the row ids as well as the poses.
        other = replace(trace, scenario_id=trace.scenario_id + "x")
        assert audit_trace(other, future, trace.ids).issues == ("digest mismatch",)
        relabelled = replace(trace, ids=tuple(i + 100 for i in trace.ids))
        assert audit_trace(relabelled, future, relabelled.ids).issues == ("digest mismatch",)

    def test_tampered_rollout_fails_digest(self):
        future, trace = self._run()
        tampered = future.copy()
        tampered[0, 40, 0] += 0.5
        report = audit_trace(trace, tampered, trace.ids)
        assert not report.ok
        assert report.issues == ("digest mismatch",)

    def test_rollout_rows_must_follow_trace_ids(self):
        future, trace = self._run()
        ids = list(trace.ids)
        assert audit_trace(trace, future, ids).ok
        for bad_ids in (ids[::-1], [i + 100 for i in ids]):
            report = audit_trace(trace, future, bad_ids)
            assert report.issues == ("rollout rows do not match the trace's ids",)
        assert not audit_trace(trace, future[:-1], ids).ok
        assert not audit_trace(trace, future[:, :79], ids).ok

    def test_step_rewritten_through_the_base_buffer_fails(self):
        # The digest folds in each step as it is produced, so a policy that
        # reaches past the read-only view and rewrites an earlier step is caught.
        scenario = straight_scenario()
        av = _RewritesStepOne(ConstantVelocityPolicy())
        rollouts, traces = generate_submission(
            scenario, av, ConstantVelocityPolicy(), k=4, base_seed=0, with_traces=True
        )
        honest = generate_submission(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), k=4, base_seed=0
        )
        assert not np.array_equal(rollouts.rollouts[:, :, 0], honest.rollouts[:, :, 0])
        for trace, future in zip(traces, rollouts.rollouts):
            assert audit_trace(trace, future, rollouts.ids).issues == ("digest mismatch",)


class TestBaselines:
    def test_constant_velocity_holds_still_without_motion(self):
        # A stationary history extrapolates to a stationary future.
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, seed=0)).scenario

        def freeze(poses, valid):
            poses[:] = poses[scenario.t0_index]
            valid[:] = True

        frozen_scenario = with_track_poses(scenario, freeze)
        (future,), _ = closed_loop_rollout(
            frozen_scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seeds=(0,)
        )
        for oid in frozen_scenario.tracks.ids.tolist():
            xy = poses(future, frozen_scenario, oid)[:, :2]
            assert np.allclose(xy, xy[0], atol=1e-12)

    def test_constant_velocity_single_valid_observation_means_zero_speed(self):
        scenario = straight_scenario()

        def drop_history(poses, valid):
            valid[: scenario.t0_index] = False

        sparse = with_track_poses(scenario, drop_history)
        (future,), _ = closed_loop_rollout(
            sparse, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seeds=(0,)
        )
        for oid in sparse.tracks.ids.tolist():
            xy = poses(future, sparse, oid)[:, :2]
            assert np.allclose(xy, xy[0], atol=1e-12)

    def test_random_agent_is_centred_on_av_frame(self):
        scenario = straight_scenario()
        rollouts = generate_submission(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), k=8, base_seed=0
        )
        av = scenario.tracks.poses[scenario.tracks.rows([scenario.av_track_id])[0],
                                   scenario.t0_index]
        mean = rollouts.rollouts[..., :2].reshape(-1, 2).mean(axis=0)
        # mu = (1, 1) in the AV frame; AV heading is 0 in this template.
        assert mean[0] == pytest.approx(av[0] + 1.0, abs=0.05)
        assert mean[1] == pytest.approx(av[1] + 1.0, abs=0.05)

    @pytest.mark.parametrize("interval", [3, 5, 7, 80])
    @pytest.mark.parametrize("make", [
        lambda scenario: ConstantVelocityPolicy(),
        lambda scenario: RandomAgentPolicy(),
        LoggedOraclePolicy,
    ], ids=["constant-velocity", "random", "logged-oracle"])
    def test_replan_wrapper_transparent_for_memoryless_policy(self, make, interval):
        # These policies read no other object's simulated pose, and the
        # default plan advances the policy's own outputs, so a held plan must
        # give the closed-loop rollout bit for bit.  Random draws its noise,
        # and the oracle its logged pose, by each virtual step of the plan.
        scenario = curved_scenario()
        plain, _ = closed_loop_rollout(scenario, make(scenario), make(scenario), seeds=(0, 1))
        wrapped, _ = closed_loop_rollout(
            scenario,
            ReplanWrapper(make(scenario), interval),
            ReplanWrapper(make(scenario), interval),
            seeds=(0, 1),
        )
        assert plain.tobytes() == wrapped.tobytes()

    def test_noisy_plan_policy_depends_on_replan_interval(self):
        scenario = straight_scenario()
        (fast,), _ = closed_loop_rollout(
            scenario,
            ReplanWrapper(NoisyPlanPolicy(), 1),
            ReplanWrapper(NoisyPlanPolicy(), 1),
            seeds=(0,),
        )
        (slow,), _ = closed_loop_rollout(
            scenario,
            ReplanWrapper(NoisyPlanPolicy(), 10),
            ReplanWrapper(NoisyPlanPolicy(), 10),
            seeds=(0,),
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

    @pytest.mark.parametrize("interval", [7, 200])
    def test_oracle_plans_past_the_logged_future(self, interval):
        # A plan made near the end of the window runs past step T; the oracle
        # holds its last pose there instead of indexing past the log.
        scenario = curved_scenario()
        plain = generate_submission(
            scenario, LoggedOraclePolicy(scenario), LoggedOraclePolicy(scenario), k=2
        )
        held = generate_submission(
            scenario,
            create_policy("logged-oracle", scenario, replan_interval=interval),
            create_policy("logged-oracle", scenario, replan_interval=interval),
            k=2,
        )
        np.testing.assert_array_equal(plain.rollouts, held.rollouts)

    def test_vectorized_policies_match_per_object_steps(self):
        # A policy stepped for all rows at once equals the same policy stepped
        # one row at a time.
        scenario = straight_scenario()
        for policy in (ConstantVelocityPolicy(), RandomAgentPolicy(), NoisyPlanPolicy()):
            (future,), _ = closed_loop_rollout(scenario, _OneRowAtATime(policy), _OneRowAtATime(
                policy), seeds=(7,))
            (batched,), _ = closed_loop_rollout(scenario, policy, _Same(policy), seeds=(7,))
            np.testing.assert_array_equal(future, batched)

    @pytest.mark.parametrize(
        "factory,option",
        [
            (NoisyPlanPolicy, "heading_sigma"),
            (NoisyPlanPolicy, "speed_sigma"),
            (RandomAgentPolicy, "mu"),
            (RandomAgentPolicy, "sigma"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5, "abc"])
    def test_unusable_policy_options_are_rejected(self, factory, option, value):
        # A mean may be negative; a scale may not.  Python's max(0.0, nan) is
        # 0.0, so a NaN speed sigma would otherwise freeze every object.
        if option == "mu" and value == -0.5:
            assert factory(**{option: value}).mu == -0.5
            return
        with pytest.raises(InvalidOption, match=option):
            factory(**{option: value})

    def test_replan_interval_below_one_is_rejected(self):
        scenario = straight_scenario()
        for interval in (0, -3):
            with pytest.raises(InvalidOption, match="replan interval"):
                create_policy("noisy-plan", scenario, replan_interval=interval)

    @pytest.mark.parametrize(
        "name,options,known",
        [
            ("noisy-plan", {"speed_sgima": 5.0}, "heading_sigma, speed_sigma"),
            ("random", {"mu": 0.0, "heading_sigma": 0.1}, "mu, sigma"),
            ("constant-velocity", {"speed_sigma": 1.0}, "none"),
            ("logged-oracle", {"mu": 1.0}, "none"),
        ],
    )
    def test_unknown_policy_option_is_rejected(self, name, options, known):
        scenario = straight_scenario()
        unknown = next(key for key in options if key not in known)
        with pytest.raises(InvalidOption, match=f"no option {unknown}; its options: {known}$"):
            create_policy(name, scenario, options)

    def test_known_policy_options_reach_the_policy(self):
        scenario = straight_scenario()
        policy = create_policy("noisy-plan", scenario, {"speed_sigma": 5.0})
        assert (policy.heading_sigma, policy.speed_sigma) == (0.15, 5.0)
        policy = create_policy("random", scenario, {"sigma": 0.5})
        assert (policy.mu, policy.sigma) == (1.0, 0.5)

    def test_registry_round_trip(self):
        scenario = straight_scenario()
        for name in ("constant-velocity", "random", "logged-oracle", "noisy-plan"):
            assert isinstance(create_policy(name, scenario), Policy)
        wrapped = create_policy("constant-velocity", scenario, replan_interval=4)
        assert isinstance(wrapped, ReplanWrapper)
        with pytest.raises(KeyError):
            create_policy("does-not-exist", scenario)


class _CountingSteps(Policy):
    """Delegates to ``inner`` and counts the harness's ``step`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def step(self, context, rows):
        self.calls += 1
        return self.inner.step(context, rows)


class TestLockstep:
    """K lockstep rollouts equal K single rollouts, and cost one policy call per step."""

    @pytest.mark.parametrize("interval", [1, 10, 80])
    @pytest.mark.parametrize("name", ["constant-velocity", "random", "noisy-plan"])
    def test_rollout_i_equals_the_single_rollout_of_its_seed(self, name, interval):
        scenario = straight_scenario()
        base = 2**40 + 7

        def submission(k, base_seed):
            return generate_submission(
                scenario,
                create_policy(name, scenario, replan_interval=interval),
                create_policy(name, scenario, replan_interval=interval),
                k=k,
                base_seed=base_seed,
                with_traces=True,
            )

        batch, traces = submission(32, base)
        assert [trace.seed for trace in traces] == list(range(base, base + 32))
        for i in range(32):
            single, (trace,) = submission(1, base + i)
            assert batch.rollouts[i].tobytes() == single.rollouts[0].tobytes()
            assert traces[i] == trace
            assert audit_trace(traces[i], batch.rollouts[i], batch.ids).ok

    @pytest.mark.parametrize("interval", [1, 10])
    @pytest.mark.parametrize("k", [1, 32])
    def test_each_policy_steps_once_per_step_whatever_k(self, k, interval):
        scenario = straight_scenario()
        av, env = (
            _CountingSteps(create_policy("noisy-plan", scenario, replan_interval=interval))
            for _ in range(2)
        )
        rollouts = generate_submission(scenario, av, env, k=k, base_seed=0)
        assert rollouts.rollouts.shape[0] == k
        assert av.calls == env.calls == scenario.future_length == 80


def relabeled(scenario, offset):
    """The scenario with every track id shifted by ``offset``."""
    tracks = replace(scenario.tracks, ids=scenario.tracks.ids + offset)
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
        seeds=st.lists(_WORD_VALUES, min_size=1, max_size=3),
        ids=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True),
        steps=st.lists(st.integers(1, 120), min_size=1, max_size=4),
        n=st.integers(1, 6),
        loc=st.floats(-1e3, 1e3),
        scale=st.floats(0.0, 1e3),
        data=st.data(),
    )
    def test_draws_equal_per_object_generators(self, seeds, ids, steps, n, loc, scale, data):
        # Steps past 80 are virtual plan steps; steps in any order, and some
        # that share a key block, exercise the block cache.
        rows = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=1, max_size=6))
        noise = _NoiseStreams(tuple(seeds), tuple(ids))
        for step in steps:
            z = noise.draw(step, np.array(rows), n)
            assert z.shape == (len(seeds), len(rows), n)
            for k, seed in enumerate(seeds):
                for i, r in enumerate(rows):
                    want = seed_sequence_stream(seed, step, ids[r])
                    assert z[k, i].tobytes() == want.standard_normal(n).tobytes()
                    # Policies shift and scale the draws instead of calling normal().
                    normal = seed_sequence_stream(seed, step, ids[r]).normal(loc, scale, size=n)
                    assert (loc + scale * z[k, i]).tobytes() == normal.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_WORD_VALUES, _WORD_VALUES), min_size=1, max_size=8))
    def test_first_philox_block_equals_random_raw(self, keys):
        want = [np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(4) for key in keys]
        got = _philox_first_block(np.array(keys, dtype=np.uint64))
        assert got.tobytes() == np.array(want).tobytes()

    def test_ziggurat_tables_equal_numpys(self):
        # Write one word, plus fillers that end both slow branches at once,
        # into Philox's buffer and see how many words standard_normal reads:
        # one on the fast path.  rabs = 1 returns wi[layer] itself.
        bitgen = np.random.Philox(0)
        generator = np.random.Generator(bitgen)
        state = bitgen.state

        def draw(layer, rabs):
            state["buffer"], state["buffer_pos"] = [layer | rabs << 9, 0, 2**64 - 1, 0], 0
            bitgen.state = state
            return generator.standard_normal(), bitgen.state["buffer_pos"]

        wi, ki = np.empty(256), np.empty(256, dtype=np.uint64)
        for layer in range(256):
            wi[layer] = draw(layer, 1)[0]
            lo, hi = 0, 2**52  # the first rabs off the fast path
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if draw(layer, mid)[1] == 1 else (lo, mid)
            ki[layer] = lo
        assert wi.tobytes() == _ZIGGURAT_WI.tobytes()
        assert ki.tobytes() == _ZIGGURAT_KI.tobytes()
        assert ki[1] == 0

    @pytest.mark.parametrize("seed, step, oid, layer, slow_from", [
        (5, 55, 15, 0, 1),  # layer 0 past its threshold: the tail branch
        (0, 1, 43, 1, 1),  # layer 1, whose draws all leave the fast path
        (0, 2, 50, None, 2),  # a fast first draw, then a slow one
    ])
    def test_slow_rows_keep_numpys_bits(self, seed, step, oid, layer, slow_from):
        noise = _NoiseStreams((seed,), (oid,))
        all_fast = noise._step_block(step)[2][0, 0]
        assert all_fast.tolist() == [j + 1 < slow_from for j in range(4)]
        if layer is not None:
            word = np.random.Philox(np.random.SeedSequence((seed, step, oid))).random_raw()
            assert word & 0xFF == layer
        for n in range(1, 7):
            want = seed_sequence_stream(seed, step, oid).standard_normal(n)
            assert noise.draw(step, np.array([0]), n)[0, 0].tobytes() == want.tobytes()

    def test_fallback_draws_only_the_slow_rows(self, monkeypatch):
        class Counting(np.random.Generator):
            rows = 0

            def standard_normal(self, *args, **kwargs):
                Counting.rows += 1
                return super().standard_normal(*args, **kwargs)

        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=32, seed=0)).scenario
        monkeypatch.setattr(np.random, "Generator", Counting)
        generate_submission(scenario, NoisyPlanPolicy(), NoisyPlanPolicy(), k=32, base_seed=0)
        monkeypatch.undo()

        # A stream is slow unless its two draws read exactly two words of its first block.
        ids = sorted(simulated_object_ids(scenario))
        entropy = [(seed, step, oid) for seed in range(32) for step in range(1, 81) for oid in ids]
        bitgen = np.random.Philox(0)
        generator = np.random.Generator(bitgen)
        start = bitgen.state
        slow = 0
        for key in philox_keys(entropy).tolist():
            start["state"]["key"] = key
            bitgen.state = start
            generator.standard_normal(2)
            state = bitgen.state
            slow += state["buffer_pos"] != 2 or state["state"]["counter"][0] != 1
        assert Counting.rows == slow
        assert 0.01 < slow / len(entropy) < 0.06

    def test_negative_seed_is_rejected(self):
        scenario = straight_scenario()
        with pytest.raises(ValueError, match="seed"):
            closed_loop_rollout(scenario, NoisyPlanPolicy(), NoisyPlanPolicy(), seeds=(-1,))
        with pytest.raises(ValueError, match="seed"):
            closed_loop_rollout(scenario, NoisyPlanPolicy(), NoisyPlanPolicy(), seeds=(2**64,))

    @pytest.mark.parametrize("factory", [NoisyPlanPolicy, RandomAgentPolicy])
    def test_negative_ids_under_noise_are_contract_violations(self, factory):
        scenario = relabeled(straight_scenario(), -100)
        with pytest.raises(PolicyContractViolation, match="negative ids"):
            closed_loop_rollout(scenario, factory(), factory(), seeds=(0,))

    def test_negative_ids_without_noise_still_roll_out(self):
        scenario = relabeled(straight_scenario(), -100)
        (future,), _ = closed_loop_rollout(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), seeds=(0,)
        )
        assert np.isfinite(future).all()

    def test_noise_only_needs_the_drawing_rows_non_negative(self):
        # The AV keeps a non-negative id and draws noise; the rest hold still.
        scenario = straight_scenario()
        av = scenario.av_track_id
        ids = scenario.tracks.ids
        tracks = replace(scenario.tracks, ids=np.where(ids == av, ids, -1 - ids))
        scenario = replace(scenario, tracks=tracks)
        (future,), _ = closed_loop_rollout(
            scenario, NoisyPlanPolicy(), ConstantVelocityPolicy(), seeds=(0,)
        )
        assert np.isfinite(future).all()

    def test_large_ids_draw_the_seed_sequence_streams(self):
        scenario = relabeled(straight_scenario(), 2**40)
        seen = {}

        class Recording(Policy):
            def step(self, context, rows):
                seen[context.step, context.ids[rows[0]]] = context.standard_normals(rows, 2)[0, 0]
                return context.last_valid_pose(rows)

        closed_loop_rollout(scenario, Recording(), ConstantVelocityPolicy(), seeds=(5,))
        assert len(seen) == scenario.future_length
        for (step, oid), z in seen.items():
            assert z.tobytes() == seed_sequence_stream(5, step, oid).standard_normal(2).tobytes()


def _scene_pool():
    """Scenes of every template, two seeds each, with ids that repeat across scenes.

    One copy runs at another timestep, so a batch mixes per-row timesteps.
    """
    scenes = [
        generate(SynthSpec(template, seed=seed)).scenario
        for template in Template
        for seed in (0, 1)
    ]
    slow = replace(scenes[0], scenario_id=scenes[0].scenario_id + "-dt", timestep=0.25)
    return scenes + [slow]


_POOL = _scene_pool()


def _nan_in(scenario_id):
    """A constant-velocity policy whose rows of ``scenario_id`` turn NaN at step 5."""

    class NaNIn(Policy):
        def step(self, context, rows):
            out = ConstantVelocityPolicy().step(context, rows)
            if context.step == 5:
                mine = np.asarray(context.scenario_ids)[context.scenario_of[rows]] == scenario_id
                out[:, mine, 0] = math.nan
            return out

    return NaNIn()


class TestScenarioBatches:
    """A batch of scenarios rolls out each of them exactly as it rolls out alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=4, unique=True),
        env=st.sampled_from(sorted(POLICY_REGISTRY)),
        av=st.sampled_from(sorted(POLICY_REGISTRY)),
        interval=st.sampled_from([1, 3]),
        k=st.integers(1, 4),
        base=st.integers(0, 2**40),
    )
    def test_batched_futures_and_digests_equal_the_solo_rollouts(
        self, picks, env, av, interval, k, base
    ):
        batch = [_POOL[i] for i in picks]
        seeds = range(base, base + k)
        futures, traces = closed_loop_rollout(
            batch,
            create_policy(av, batch, replan_interval=interval),
            create_policy(env, batch, replan_interval=interval),
            seeds,
        )
        assert [trace.scenario_id for trace in traces] == [
            scenario.scenario_id for scenario in batch for _ in seeds
        ]
        lo = 0
        for i, scenario in enumerate(batch):
            solo, solo_traces = closed_loop_rollout(
                scenario,
                create_policy(av, scenario, replan_interval=interval),
                create_policy(env, scenario, replan_interval=interval),
                seeds,
            )
            hi = lo + solo.shape[1]
            assert futures[:, lo:hi].tobytes() == solo.tobytes()
            assert traces[i * k : (i + 1) * k] == solo_traces
            lo = hi
        assert lo == futures.shape[1]

    def test_generate_submission_returns_one_bundle_per_scenario(self):
        batch = _POOL[:3]
        bundles, traces = generate_submission(
            batch, NoisyPlanPolicy(), NoisyPlanPolicy(), k=2, base_seed=4, with_traces=True
        )
        assert [b.scenario_id for b in bundles] == [s.scenario_id for s in batch]
        for scenario, bundle, mine in zip(batch, bundles, traces):
            solo = generate_submission(scenario, NoisyPlanPolicy(), NoisyPlanPolicy(), k=2,
                                       base_seed=4)
            assert bundle.rollouts.tobytes() == solo.rollouts.tobytes()
            assert all(audit_trace(t, p, bundle.ids).ok for t, p in zip(mine, bundle.rollouts))

    def test_non_finite_output_names_its_scenario(self):
        batch = _POOL[2:5]
        bad = batch[1].scenario_id
        with pytest.raises(PolicyContractViolation, match=rf"step 5: {bad} objects .* not finite"):
            closed_loop_rollout(batch, ConstantVelocityPolicy(), _nan_in(bad), seeds=(0,))

    @pytest.mark.parametrize("position", [0, 2])
    def test_negative_id_names_its_scenario(self, position):
        batch = list(_POOL[4:6])
        batch.insert(position, relabeled(_POOL[0], -100))
        bad = batch[position].scenario_id
        with pytest.raises(PolicyContractViolation, match=rf"{bad} objects \[-\d+.*negative ids"):
            closed_loop_rollout(batch, NoisyPlanPolicy(), NoisyPlanPolicy(), seeds=(0,))

    def test_each_policy_steps_once_per_step_for_the_whole_batch(self):
        av, env = (_CountingSteps(NoisyPlanPolicy()) for _ in range(2))
        generate_submission(_POOL[:5], av, env, k=3, base_seed=0)
        assert av.calls == env.calls == 80

    def test_a_batch_shares_one_history_and_future_length(self):
        short = replace(_POOL[1], tracks=replace(
            _POOL[1].tracks, poses=_POOL[1].tracks.poses[:, :-1],
            valid=_POOL[1].tracks.valid[:, :-1]), future_length=79)
        with pytest.raises(ValueError, match="differ from the batch's"):
            closed_loop_rollout([_POOL[0], short], NoisyPlanPolicy(), NoisyPlanPolicy(), (0,))
        batches = rollout_batches([_POOL[0], _POOL[2], short, _POOL[3]])
        assert [len(b) for b in batches] == [2, 1, 1]
        with pytest.raises(ValueError, match="at least one scenario"):
            closed_loop_rollout([], NoisyPlanPolicy(), NoisyPlanPolicy(), (0,))

    def test_batches_hold_at_most_the_row_cap(self):
        big = generate(SynthSpec(Template.STRAIGHT_ROAD, agent_count=100, seed=0)).scenario
        scenes = [big, *_POOL[2:8], big, *_POOL[:2]]
        batches = rollout_batches(scenes)
        assert [s for batch in batches for s in batch] == scenes
        sizes = [sum(len(simulated_object_ids(s)) for s in batch) for batch in batches]
        assert max(sizes) <= MAX_BATCH_ROWS
        # A batch ends only where its next scene would not fit.
        for size, following in zip(sizes, batches[1:]):
            assert size + len(simulated_object_ids(following[0])) > MAX_BATCH_ROWS

    def test_a_held_plan_does_not_leak_into_the_next_batch(self):
        # One plan spans the whole window; the next batch, on the same seeds, plans afresh.
        av, env = (create_policy("noisy-plan", _POOL[:2], replan_interval=200) for _ in range(2))
        for batch in (_POOL[:2], _POOL[2:4]):
            held, _ = closed_loop_rollout(batch, av, env, seeds=(0, 1))
            fresh, _ = closed_loop_rollout(
                batch,
                create_policy("noisy-plan", batch, replan_interval=200),
                create_policy("noisy-plan", batch, replan_interval=200),
                seeds=(0, 1),
            )
            assert held.tobytes() == fresh.tobytes()

    def test_oracle_refuses_a_batch_it_was_not_built_for(self):
        oracle = LoggedOraclePolicy(_POOL[:2])
        with pytest.raises(PolicyContractViolation, match="oracle replays"):
            closed_loop_rollout(_POOL[1:3], ConstantVelocityPolicy(), oracle, seeds=(0,))
