from __future__ import annotations

import functools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simreal.evaluate
import simreal.scene
from simreal.aggregation import (
    ade,
    composite,
    displacements_per_rollout,
    min_ade,
    scenario_component,
)
from simreal.config import DEFAULT_CONFIG
from simreal.errors import InconsistentRollouts, MalformedScenario, MetricUnscorable
from simreal.evaluate import _metric_nll, contiguous_chunks, evaluate_dataset, evaluate_scenario
from simreal.features import MetricKind, SceneStates, extract_features
from simreal.harness import generate_submission
from simreal.policies import ConstantVelocityPolicy, LoggedOraclePolicy, RandomAgentPolicy
from simreal.scene import (
    MapFeature,
    MapFeatureKind,
    Scenario,
    ScenarioRollouts,
    Tracks,
    rollout_problems,
    simulated_object_ids,
    strip_late_spawns,
)
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



def two_call_bundle(scenario, rollouts, config):
    """The bundle of :func:`evaluate_scenario` from two extractions: the logged
    future alone, then each distinct rollout alone over its own ids."""
    logged = strip_late_spawns(scenario)
    states = SceneStates.from_logged_future(logged)
    logged_feats = extract_features(states, logged.map_features, config.features)
    a, t = rollouts.rollouts.shape[1:3]
    dims = logged.tracks.dims[logged.tracks.rows(rollouts.ids)]
    distinct, inverse = rollouts.distinct
    alone = [
        extract_features(
            SceneStates(tuple(rollouts.ids.tolist()), rollouts.rollouts[[k]],
                        np.ones((1, a, t), dtype=bool), dims, logged.timestep),
            logged.map_features, config.features,
        )
        for k in distinct
    ]
    sim = {m: tuple(np.concatenate(s) for s in zip(*(f[m] for f in alone))) for m in MetricKind}
    multiplicity = np.bincount(inverse)
    rows = np.searchsorted(states.ids, rollouts.ids)
    components, excluded = {}, []
    for metric in MetricKind:
        values, valid = (series[0, rows] for series in logged_feats[metric])
        nll = _metric_nll(metric, values, valid, (sim, multiplicity), config)
        try:
            components[metric] = scenario_component(nll, metric, config.object_aggregation)
        except MetricUnscorable:
            excluded.append(metric)
    weights = config.weights.renormalized(components) if excluded else config.weights
    displacements = displacements_per_rollout(rollouts, logged)
    return (components, composite(components, weights), float(displacements.mean()),
            float(displacements.min()), tuple(excluded))


def hex_bundle(components, score, ade_, min_ade_, excluded):
    return ({m.value: v.hex() for m, v in components.items()}, score.hex(), ade_.hex(),
            min_ade_.hex(), excluded)


def _arc(radius, segments):
    phis = np.linspace(0.0, 1.5 * math.pi, segments + 1)
    return np.stack([radius * np.cos(phis), radius * np.sin(phis)], axis=-1)


#: No road edges, a straight two-edge road, and a 100-segment arc that has a grid.
_EVAL_MAPS = {
    "none": (),
    "straight": (MapFeature(0, MapFeatureKind.ROAD_EDGE, ((-50.0, 3.0), (50.0, 3.0))),
                 MapFeature(1, MapFeatureKind.ROAD_EDGE, ((50.0, -3.0), (-50.0, -3.0)))),
    "arc": (MapFeature(0, MapFeatureKind.ROAD_EDGE, _arc(8.0, 100)),),
}


@st.composite
def scored_scenes(draw):
    """A scene of A tracks over 2 history and T future steps, with K rollouts.

    Track 0, the AV, is valid throughout.  Of the others, ``logged_only`` are
    valid at the first history step but not at the handover, and valid again
    at one future step or more; the rest are valid at the handover.  Logged
    future steps are invalid at random, and rollouts repeat at random.
    """
    a = draw(st.one_of(st.integers(1, 6), st.integers(32, 34)), label="objects")
    t = draw(st.integers(2, 5), label="steps")
    logged_only = draw(st.integers(0, min(2, a - 1)), label="logged_only")
    pool = draw(st.integers(1, 3), label="distinct")
    order = draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=6), label="rollouts")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    span = 4.0 * math.sqrt(a)  # about one object per 16 m^2: some boxes touch, some overlap

    def poses(*shape):
        out = np.empty((*shape, 4))
        out[..., :2] = rng.uniform(-span, span, size=(*shape, 2))
        out[..., 2] = rng.choice([0.0, 0.0, 3.0], size=shape)
        out[..., 3] = rng.uniform(-math.pi, math.pi, size=shape)
        return out

    valid = rng.random((a, 2 + t)) < 0.8
    valid[:, 1] = True
    valid[0] = True
    hidden = np.arange(1, 1 + logged_only)
    valid[hidden, 0], valid[hidden, 1] = True, False
    valid[hidden, 2 + rng.integers(0, t, size=logged_only)] = True  # each reappears
    dims = rng.choice([1.0, 2.0, 4.5], size=(a, 3))
    tracks = Tracks(np.arange(a) * 3 + 5, np.zeros(a), dims, poses(a, 2 + t), valid)
    road = draw(st.sampled_from(sorted(_EVAL_MAPS)), label="map")
    scenario = Scenario("scored", tracks, _EVAL_MAPS[road], av_track_id=5, history_length=2,
                        future_length=t)
    ids = np.array(sorted(simulated_object_ids(scenario)))
    distinct = poses(pool, len(ids), t)
    return scenario, ScenarioRollouts("scored", ids, distinct[order])


class TestOneExtractionMatchesTwoCalls:
    """The logged future stacked with the rollouts scores as its own extraction does."""

    @settings(max_examples=40, deadline=None)
    @given(scene=scored_scenes(), per_object=st.booleans())
    @example(  # the following pair, all tracks simulated, its one rollout repeated
        scene=(lambda s: (s, generate_submission(s, LoggedOraclePolicy(s),
                                                 ConstantVelocityPolicy(), k=3)))(
            generate(SynthSpec(Template.FOLLOWING_PAIR, seed=2)).scenario),
        per_object=True,
    )
    def test_bundle_equals_the_two_call_reference(self, scene, per_object):
        scenario, rollouts = scene
        config = replace(DEFAULT_CONFIG, per_object_histograms=per_object)
        bundle = evaluate_scenario(scenario, rollouts, config)
        got = hex_bundle(bundle.components, bundle.composite, bundle.ade, bundle.min_ade,
                         bundle.excluded)
        assert got == hex_bundle(*two_call_bundle(scenario, rollouts, config))

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
