from __future__ import annotations

import functools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import simreal.evaluate
import simreal.scene
from simreal.aggregation import ade, min_ade
from simreal.config import DEFAULT_CONFIG
from simreal.errors import InconsistentRollouts, MalformedScenario
from simreal.evaluate import contiguous_chunks, evaluate_dataset, evaluate_scenario
from simreal.features import MetricKind
from simreal.harness import generate_submission
from simreal.policies import ConstantVelocityPolicy, LoggedOraclePolicy, RandomAgentPolicy
from simreal.scene import ScenarioRollouts, Tracks, rollout_problems
from simreal.synth import SynthSpec, Template, generate


@pytest.fixture(scope="module")
def oracle_run():
    scenario = generate(SynthSpec(Template.FOLLOWING_PAIR, seed=2, noise_level=0.1)).scenario
    rollouts = generate_submission(
        scenario, LoggedOraclePolicy(scenario), LoggedOraclePolicy(scenario), k=32, base_seed=0
    )
    return scenario, rollouts


class TestEvaluateScenario:
    def test_oracle_bundle_is_complete_and_below_one(self, oracle_run):
        scenario, rollouts = oracle_run
        bundle = evaluate_scenario(scenario, rollouts)
        assert set(bundle.components) == set(MetricKind)
        assert bundle.excluded == ()
        assert 0.0 < bundle.composite < 1.0
        for value in bundle.components.values():
            assert 0.0 < value <= 1.0
        assert bundle.ade == 0.0
        assert bundle.min_ade == 0.0

    def test_composite_matches_weighted_components(self, oracle_run):
        scenario, rollouts = oracle_run
        bundle = evaluate_scenario(scenario, rollouts)
        w = DEFAULT_CONFIG.weights
        manual = sum(w[m] * bundle.components[m] for m in MetricKind)
        assert bundle.composite == pytest.approx(manual, abs=1e-12)

    def test_rollout_permutation_is_bit_stable(self, oracle_run):
        scenario, _ = oracle_run
        rollouts = generate_submission(
            scenario, RandomAgentPolicy(), RandomAgentPolicy(), k=8, base_seed=0
        )
        base = evaluate_scenario(scenario, rollouts)
        rng = np.random.default_rng(1)
        order = rng.permutation(8)
        shuffled = ScenarioRollouts(scenario.scenario_id, rollouts.ids, rollouts.rollouts[order])
        again = evaluate_scenario(scenario, shuffled)
        for m in MetricKind:
            assert again.components[m] == base.components[m]  # bitwise
        assert again.composite == base.composite
        # Displacement is a plain mean, so only summation order can differ.
        assert again.ade == pytest.approx(base.ade, abs=1e-9)
        assert again.min_ade == base.min_ade

    def test_missing_road_edges_excludes_map_metrics(self, oracle_run):
        scenario, rollouts = oracle_run
        bare = replace(scenario, map_features=())
        bundle = evaluate_scenario(bare, rollouts)
        assert MetricKind.DIST_TO_ROAD_EDGE in bundle.excluded
        assert MetricKind.OFFROAD in bundle.excluded
        present = set(bundle.components)
        assert present == set(MetricKind) - set(bundle.excluded)
        w = DEFAULT_CONFIG.weights.renormalized(present)
        manual = sum(w[m] * bundle.components[m] for m in present)
        assert bundle.composite == pytest.approx(manual, abs=1e-12)

    def test_late_spawns_are_not_scored(self, oracle_run):
        scenario, rollouts = oracle_run
        # Append a track that only exists in the future; evaluation must strip
        # it rather than fail or score it.
        h, t = scenario.history_length, scenario.future_length
        ghost_poses = np.zeros((h + t, 4))
        ghost_poses[:, 0] = 1000.0 + np.arange(h + t)
        ghost_poses[:, 1] = 500.0
        tracks = scenario.tracks
        spawned = replace(scenario, tracks=Tracks(
            ids=np.append(tracks.ids, 77),
            types=np.append(tracks.types, tracks.types[0]),
            dims=np.vstack([tracks.dims, tracks.dims[:1]]),
            poses=np.concatenate([tracks.poses, ghost_poses[None]]),
            valid=np.vstack([tracks.valid, np.arange(h + t) >= h + 5]),
        ))
        bundle = evaluate_scenario(spawned, rollouts)
        reference = evaluate_scenario(scenario, rollouts)
        for m in MetricKind:
            assert bundle.components[m] == reference.components[m]

    def test_pooled_histogram_mode_runs(self, oracle_run):
        scenario, rollouts = oracle_run
        config = replace(DEFAULT_CONFIG, per_object_histograms=False)
        bundle = evaluate_scenario(scenario, rollouts, config)
        assert set(bundle.components) == set(MetricKind)

    def test_linear_mean_aggregation_mode(self, oracle_run):
        scenario, rollouts = oracle_run
        config = replace(DEFAULT_CONFIG, object_aggregation="linear_mean")
        bundle = evaluate_scenario(scenario, rollouts, config)
        assert 0.0 < bundle.composite <= 1.0


@pytest.fixture(scope="module")
def collision_run():
    scenario = generate(SynthSpec(Template.COLLISION_COURSE, seed=0)).scenario
    rollouts = generate_submission(
        scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), k=4, base_seed=0
    )
    return scenario, rollouts


class TestSubmissionContract:
    """Rollouts that break the contract raise before anything is scored."""

    def test_missing_object_raises(self, collision_run):
        scenario, rollouts = collision_run
        keep = rollouts.ids != 1
        partial = ScenarioRollouts(
            scenario.scenario_id, rollouts.ids[keep], rollouts.rollouts[:, keep]
        )
        with pytest.raises(InconsistentRollouts, match="miss ids \\[1\\]"):
            evaluate_scenario(scenario, partial)

    def test_extra_object_raises(self, collision_run):
        scenario, rollouts = collision_run
        extra = ScenarioRollouts(
            scenario.scenario_id,
            np.append(rollouts.ids, 999),
            np.concatenate([rollouts.rollouts, rollouts.rollouts[:, :1]], axis=1),
        )
        with pytest.raises(InconsistentRollouts, match="unknown ids \\[999\\]"):
            evaluate_scenario(scenario, extra)

    def test_wrong_step_count_raises(self, collision_run):
        scenario, rollouts = collision_run
        short = ScenarioRollouts(scenario.scenario_id, rollouts.ids, rollouts.rollouts[:, :, :-1])
        with pytest.raises(MalformedScenario, match="steps"):
            evaluate_scenario(scenario, short)

    def test_all_nan_rollouts_raise(self, collision_run):
        scenario, rollouts = collision_run
        nan = ScenarioRollouts(
            scenario.scenario_id, rollouts.ids, np.full(rollouts.rollouts.shape, np.nan)
        )
        with pytest.raises(MalformedScenario, match="NaN/Inf"):
            evaluate_scenario(scenario, nan)

    @settings(max_examples=40, deadline=None)
    @given(
        st.data(),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.sampled_from(["log_mean", "linear_mean"]),
    )
    def test_non_finite_pose_never_scores_finite(self, collision_run, data, bad, aggregation):
        scenario, rollouts = collision_run
        poses = rollouts.rollouts.copy()
        index = tuple(data.draw(st.integers(0, n - 1)) for n in poses.shape)
        poses[index] = bad
        tainted = ScenarioRollouts(scenario.scenario_id, rollouts.ids, poses)
        config = replace(DEFAULT_CONFIG, object_aggregation=aggregation)
        try:
            bundle = evaluate_scenario(scenario, tainted, config)
        except MalformedScenario:
            return
        assert not math.isfinite(bundle.composite)


class TestBaselineOrdering:
    @pytest.mark.parametrize("template", [Template.CURVED_ROAD, Template.OFFROAD_DRIFT])
    def test_oracle_beats_constant_velocity_on_turning_fixtures(self, template):
        scenario = generate(SynthSpec(template, seed=6, noise_level=0.2)).scenario
        scores = {}
        for policy_cls in (LoggedOraclePolicy, None):
            if policy_cls is None:
                av, env = ConstantVelocityPolicy(), ConstantVelocityPolicy()
                name = "cv"
            else:
                av, env = policy_cls(scenario), policy_cls(scenario)
                name = "oracle"
            rollouts = generate_submission(scenario, av, env, k=32, base_seed=0)
            scores[name] = evaluate_scenario(scenario, rollouts).composite
        assert scores["oracle"] > scores["cv"]


class TestEvaluateDataset:
    def test_parallel_matches_serial(self, oracle_run):
        scenario, rollouts = oracle_run
        other = generate(SynthSpec(Template.STRAIGHT_ROAD, seed=9, noise_level=0.1)).scenario
        other_rollouts = generate_submission(
            other, LoggedOraclePolicy(other), ConstantVelocityPolicy(), k=32, base_seed=0
        )
        pairs = [(scenario, rollouts), (other, other_rollouts)]
        serial_bundles, serial_summary = evaluate_dataset(pairs, jobs=1)
        parallel_bundles, parallel_summary = evaluate_dataset(pairs, jobs=2)
        assert serial_summary.composite == parallel_summary.composite
        for a, b in zip(serial_bundles, parallel_bundles):
            assert a.components == b.components

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dataset([])

    def test_summary_means(self, oracle_run):
        scenario, rollouts = oracle_run
        bundles, summary = evaluate_dataset([(scenario, rollouts)])
        assert summary.scenario_count == 1
        assert summary.composite == pytest.approx(bundles[0].composite)
        for m, v in summary.component_means.items():
            assert v == pytest.approx(bundles[0].components[m])


class TestOneCheckOneDisplacement:
    def test_a_bundle_checked_once_is_not_scanned_again(self, oracle_run, monkeypatch):
        scenario, rollouts = oracle_run
        scans = []
        scan = ScenarioRollouts.pose_extremes.func
        counted = functools.cached_property(lambda bundle: scans.append(bundle) or scan(bundle))
        counted.__set_name__(ScenarioRollouts, "pose_extremes")
        monkeypatch.setattr(ScenarioRollouts, "pose_extremes", counted)
        fresh = replace(rollouts, rollouts=rollouts.rollouts)  # a bundle no one has checked
        assert rollout_problems(scenario, fresh) == []  # as io.match_scenarios checks it
        evaluate_scenario(scenario, fresh)
        # A pool worker receives a pickled copy, which keeps what was scanned.
        evaluate_scenario(*pickle.loads(pickle.dumps((scenario, fresh))))
        assert scans == [fresh]
        evaluate_scenario(scenario, replace(fresh))  # another bundle is scanned afresh
        assert len(scans) == 2

    def test_a_bad_bundle_is_rejected_again_and_again(self, oracle_run):
        scenario, rollouts = oracle_run
        poses = rollouts.rollouts.copy()
        poses[0, 0, 5, 0] = math.nan
        nan = replace(rollouts, rollouts=poses)
        for _ in range(2):
            with pytest.raises(MalformedScenario, match="NaN/Inf"):
                evaluate_scenario(scenario, nan)

    def test_displacements_are_computed_once_per_scenario(self, monkeypatch):
        scenario = generate(SynthSpec(Template.CURVED_ROAD, seed=1, noise_level=0.2)).scenario
        rollouts = generate_submission(scenario, RandomAgentPolicy(), RandomAgentPolicy(), k=4)
        calls = []
        real = simreal.evaluate.displacements_per_rollout
        monkeypatch.setattr(simreal.evaluate, "displacements_per_rollout",
                            lambda *args: calls.append(args) or real(*args))
        bundle = evaluate_scenario(scenario, rollouts)
        assert len(calls) == 1
        assert bundle.ade == ade(rollouts, scenario)
        assert bundle.min_ade == min_ade(rollouts, scenario)
        assert bundle.min_ade < bundle.ade


class TestContiguousChunks:
    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.integers(1, 128), min_size=1, max_size=40),
           parts=st.integers(1, 8))
    def test_chunks_cover_the_items_in_order_and_balance_the_weight(self, weights, parts):
        items = list(range(len(weights)))
        chunks = contiguous_chunks(items, weights, parts)
        assert [i for chunk in chunks for i in chunk] == items
        assert len(chunks) == min(parts, len(items))
        assert all(chunks)
        total = sum(weights)
        for chunk in chunks:
            assert sum(weights[i] for i in chunk) <= total / len(chunks) + max(weights)

    def test_equal_weights_split_evenly(self):
        assert contiguous_chunks("abcdef", [1] * 6, 3) == [["a", "b"], ["c", "d"], ["e", "f"]]
        assert contiguous_chunks("abc", [5, 1, 1], 2) == [["a"], ["b", "c"]]
        assert contiguous_chunks("ab", [1, 1], 5) == [["a"], ["b"]]
