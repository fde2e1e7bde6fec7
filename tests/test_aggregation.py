from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from simreal.aggregation import (
    MetricsBundle,
    MetricWeights,
    ade,
    composite,
    dataset_composite,
    displacements_per_rollout,
    min_ade,
    scenario_component,
)
from simreal.errors import IncompleteBundle, MetricUnscorable
from simreal.features import BOOLEAN_METRICS, MetricKind
from simreal.scene import ScenarioRollouts
from simreal.synth import SynthSpec, Template, generate


def nll(likelihood):
    """One object's mean NLL for a given likelihood."""
    return -math.log(likelihood)


class TestWeights:
    def test_default_derivation(self):
        w = MetricWeights.default()
        assert abs(sum(w.values.values()) - 1.0) <= 1e-12
        single = float(Fraction(1, 11))
        double = float(Fraction(2, 11))
        for metric in MetricKind:
            expected = double if metric in BOOLEAN_METRICS else single
            assert w[metric] == pytest.approx(expected, abs=1e-15)
        assert w[MetricKind.COLLISION] == pytest.approx(2 * w[MetricKind.LINEAR_SPEED], abs=1e-15)
        assert w[MetricKind.OFFROAD] == pytest.approx(2 * w[MetricKind.TIME_TO_COLLISION], abs=1e-15)

    def test_rejects_non_unit_sum(self):
        with pytest.raises(ValueError):
            MetricWeights({m: 0.2 for m in MetricKind})

    def test_rejects_nonpositive(self):
        vals = {m: float(Fraction(1, 8)) for m in list(MetricKind)[:8]}
        vals[MetricKind.OFFROAD] = 0.0
        with pytest.raises(ValueError):
            MetricWeights(vals)

    def test_renormalized_preserves_ratios(self):
        w = MetricWeights.default()
        keep = [m for m in MetricKind if m is not MetricKind.DIST_TO_ROAD_EDGE]
        r = w.renormalized(keep)
        assert abs(sum(r.values.values()) - 1.0) <= 1e-12
        assert r[MetricKind.COLLISION] / r[MetricKind.LINEAR_SPEED] == pytest.approx(2.0)


class TestScenarioComponent:
    def test_singleton(self):
        assert scenario_component([nll(0.9)], MetricKind.LINEAR_SPEED) == pytest.approx(0.9)

    def test_idempotent_mean(self):
        got = scenario_component([nll(0.9), nll(0.9)], MetricKind.LINEAR_SPEED)
        assert got == pytest.approx(0.9)

    def test_log_space_mean(self):
        got = scenario_component([nll(1.0), nll(math.exp(-2.0))], MetricKind.LINEAR_SPEED)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_linear_mean_mode(self):
        got = scenario_component(
            [nll(1.0), nll(math.exp(-2.0))], MetricKind.LINEAR_SPEED, aggregation="linear_mean"
        )
        assert got == pytest.approx((1.0 + math.exp(-2.0)) / 2.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(MetricUnscorable):
            scenario_component([], MetricKind.LINEAR_SPEED)


class TestComposite:
    def test_all_ones(self):
        comps = {m: 1.0 for m in MetricKind}
        assert composite(comps, MetricWeights.default()) == pytest.approx(1.0, abs=1e-12)

    def test_constant_components(self):
        comps = {m: 0.37 for m in MetricKind}
        assert composite(comps, MetricWeights.default()) == pytest.approx(0.37, abs=1e-12)

    def test_missing_component_raises(self):
        comps = {m: 1.0 for m in MetricKind if m is not MetricKind.OFFROAD}
        with pytest.raises(IncompleteBundle):
            composite(comps, MetricWeights.default())

    def test_monotone_in_each_component(self):
        w = MetricWeights.default()
        base = {m: 0.5 for m in MetricKind}
        base_score = composite(base, w)
        for metric in MetricKind:
            bumped = dict(base)
            bumped[metric] = 0.6
            assert composite(bumped, w) > base_score


class TestDatasetComposite:
    def _bundle(self, sid, comps):
        w = MetricWeights.default()
        return MetricsBundle(sid, comps, composite(comps, w), 0.0, 0.0)

    def test_single_scenario(self):
        b = self._bundle("a", {m: 0.4 for m in MetricKind})
        assert dataset_composite([b]) == pytest.approx(b.composite)

    def test_two_scenarios_mean(self):
        b1 = self._bundle("a", {m: 0.4 for m in MetricKind})
        b2 = self._bundle("b", {m: 0.6 for m in MetricKind})
        assert dataset_composite([b1, b2]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(31)
        w = MetricWeights.default()
        bundles = []
        for i in range(17):
            comps = {m: float(rng.uniform(0.01, 1.0)) for m in MetricKind}
            bundles.append(self._bundle(f"s{i}", comps))
        got = dataset_composite(bundles)
        # Independent oracle: flat double sum over scenarios and metrics.
        total = 0.0
        for b in bundles:
            for m in MetricKind:
                total += w[m] * b.components[m]
        assert got == pytest.approx(total / len(bundles), abs=1e-12)


def _rollout(scenario, offsets):
    """The logged future of every track, shifted by (dx, dy): (A, T, 4)."""
    ids = sorted(scenario.tracks.ids.tolist())
    poses, _ = scenario.future(ids)
    poses = poses.copy()
    poses[:, :, :2] += offsets
    return poses


def _bundle(scenario, futures):
    ids = sorted(scenario.tracks.ids.tolist())
    return ScenarioRollouts(scenario.scenario_id, ids, np.stack(futures))


class TestDisplacement:
    def test_logged_oracle_scores_zero(self):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, seed=0)).scenario
        rollouts = _bundle(scenario, [_rollout(scenario, (0.0, 0.0)) for _ in range(4)])
        assert ade(rollouts, scenario) == 0.0
        assert min_ade(rollouts, scenario) == 0.0

    def test_constant_offset(self):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, seed=0)).scenario
        rollouts = _bundle(scenario, [_rollout(scenario, (1.0, 0.0)) for _ in range(4)])
        assert ade(rollouts, scenario) == pytest.approx(1.0, abs=1e-12)
        assert min_ade(rollouts, scenario) == pytest.approx(1.0, abs=1e-12)

    def test_one_exact_rollout_wins_min(self):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, seed=0)).scenario
        futures = [_rollout(scenario, (3.0, 4.0)) for _ in range(31)]
        futures.append(_rollout(scenario, (0.0, 0.0)))
        rollouts = _bundle(scenario, futures)
        assert min_ade(rollouts, scenario) == 0.0
        assert ade(rollouts, scenario) == pytest.approx(5.0 * 31 / 32, abs=1e-9)

    def test_min_ade_never_exceeds_ade(self):
        scenario = generate(SynthSpec(Template.CURVED_ROAD, seed=1)).scenario
        rng = np.random.default_rng(8)
        futures = [_rollout(scenario, tuple(rng.uniform(-2, 2, 2))) for _ in range(8)]
        rollouts = _bundle(scenario, futures)
        assert min_ade(rollouts, scenario) <= ade(rollouts, scenario)

    def test_repeated_rollouts_are_measured_once_with_each_rollouts_bits(self):
        scenario = generate(SynthSpec(Template.CURVED_ROAD, seed=1)).scenario
        rng = np.random.default_rng(3)
        pool = [_rollout(scenario, tuple(rng.uniform(-2, 2, 2))) for _ in range(3)]
        futures = [pool[i] for i in (0, 1, 0, 2, 1, 0)]
        rollouts = _bundle(scenario, futures)
        first, inverse = rollouts.distinct
        assert first.tolist() == [0, 1, 3] and inverse.tolist() == [0, 1, 0, 2, 1, 0]
        alone = [displacements_per_rollout(_bundle(scenario, [f]), scenario)[0] for f in futures]
        assert displacements_per_rollout(rollouts, scenario).tobytes() == np.array(alone).tobytes()
