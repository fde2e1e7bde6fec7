"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from simreal.aggregation import MetricWeights, dataset_composite, scenario_component
from simreal.cli import main as cli_main
from simreal.config import DEFAULT_CONFIG
from simreal.estimators import (
    HistogramSpec,
    fit_metric_distribution,
    sample_counts,
    time_series_likelihood,
)
from simreal.evaluate import evaluate_dataset, evaluate_scenario
from simreal.features import BOOLEAN_METRICS, MetricKind
from simreal.geometry import box_signed_distance_batch, separating_gap
from simreal.harness import Policy, generate_submission
from simreal.io import read_report
from simreal.policies import LoggedOraclePolicy, NoisyPlanPolicy, create_policy
from simreal.scene import ScenarioRollouts
from simreal.synth import SynthSpec, Template, generate, suite_specs

from oracles import box_corners, brute_force_signed_distance, random_box, sat_overlap


@contextmanager
def criterion(number: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label} ({time.monotonic() - start:.2f}s)")
        raise
    print(f"[PASS] criterion {number}: {label} ({time.monotonic() - start:.2f}s)")


def _counts(samples, spec):
    """(1, bins) counts of one object whose valid steps are ``samples``."""
    series = (np.asarray(samples, dtype=float)[None, None, :], np.ones((1, 1, len(samples)), bool))
    return sample_counts(({spec.metric: series}, np.ones(1, np.int64)), spec.metric, spec)


def synth_suite(count, seed, noise):
    """``count`` synthetic scenarios taking every template in turn."""
    return [generate(spec) for spec in suite_specs(list(Template), count, seed, noise)]


def _suite_pairs(suite, policy_name, k=32, base_seed=0):
    pairs = []
    for synth in suite:
        scn = synth.scenario
        env = create_policy(policy_name, scn)
        av = create_policy(policy_name, scn)
        pairs.append((scn, generate_submission(scn, av, env, k=k, base_seed=base_seed)))
    return pairs


@pytest.fixture(scope="module")
def baseline_runs():
    """The 20-scenario, 3-baseline experiment shared by criteria 3 and 9."""
    suite = synth_suite(20, 0, 0.25)
    start = time.monotonic()
    results = {}
    for name in ("logged-oracle", "constant-velocity", "random"):
        pairs = _suite_pairs(suite, name)
        bundles, summary = evaluate_dataset(pairs, DEFAULT_CONFIG)
        results[name] = (pairs, bundles, summary)
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_1_laplace_smoothing_fixture():
    with criterion(1, "Laplace smoothing fixture (32.1/33, component 0.972727)"):
        start = time.monotonic()
        spec = HistogramSpec(MetricKind.LINEAR_SPEED, 0.0, 10.0, 10)
        probs = fit_metric_distribution(_counts([4.21] * 32, spec), spec)
        occupied = spec.bin_index([4.21])[0]
        assert probs[0, occupied] == pytest.approx(32.1 / 33.0, abs=1e-12)

        nll = time_series_likelihood(np.full((1, 80), 4.21), np.ones((1, 80), bool), probs, spec)
        assert math.exp(-nll[0]) == pytest.approx(0.972727, abs=1e-6)
        assert time.monotonic() - start < 1.0


def test_criterion_2_weight_derivation():
    with criterion(2, "default weights are {2/11 x2, 1/11 x7} summing to 1"):
        w = MetricWeights.default()
        assert abs(sum(w.values.values()) - 1.0) <= 1e-12
        for metric in MetricKind:
            expected = Fraction(2, 11) if metric in BOOLEAN_METRICS else Fraction(1, 11)
            assert abs(w[metric] - float(expected)) <= 1e-12
        for safety in BOOLEAN_METRICS:
            for other in set(MetricKind) - BOOLEAN_METRICS:
                assert abs(w[safety] - 2.0 * w[other]) <= 1e-12


def test_criterion_3_logged_oracle_ceiling(baseline_runs):
    with criterion(3, "oracle < 1.0 and oracle > constant-velocity > random in < 30 s"):
        results, elapsed = baseline_runs
        oracle = results["logged-oracle"][2].composite
        cv = results["constant-velocity"][2].composite
        random_score = results["random"][2].composite
        assert oracle < 1.0
        assert oracle > cv > random_score
        assert random_score == min(oracle, cv, random_score)
        assert elapsed < 30.0, f"baseline experiment took {elapsed:.1f}s"


def test_criterion_4_replan_rate_trend():
    with criterion(4, "composite degrades monotonically with faster replanning"):
        suite = synth_suite(6, 3, 0.2)
        composites = {}
        for interval in (1, 5, 10):
            pairs = []
            for synth in suite:
                scn = synth.scenario
                pairs.append((scn, generate_submission(
                    scn, NoisyPlanPolicy(), NoisyPlanPolicy(), k=32, base_seed=0,
                    replan_interval=interval,
                )))
            _, summary = evaluate_dataset(pairs, DEFAULT_CONFIG)
            composites[interval] = summary.composite
        # Holding plans longer (slower replanning) keeps this plan-noise agent
        # smoother, so the composite must rise with the interval.
        assert composites[1] < composites[5] < composites[10], composites


def test_criterion_5_geometry_oracle():
    with criterion(5, "signed box distance matches brute force on 1000 pairs"):
        rng = np.random.default_rng(99)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(1000)]
        boxes_a, boxes_b = np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])
        got = box_signed_distance_batch(boxes_a, boxes_b, separating_gap(boxes_a, boxes_b))
        for d, (ba, bb) in zip(got, pairs):
            want = brute_force_signed_distance(ba, bb)
            assert d == pytest.approx(want, abs=1e-6)
            assert (d < 0.0) == sat_overlap(box_corners(*ba), box_corners(*bb))


def test_criterion_6_estimator_invariances():
    with criterion(6, "permutation bit-stability, (0,1] range, exp/log, double sum"):
        scenario = generate(SynthSpec(Template.STRAIGHT_ROAD, seed=5, noise_level=0.2)).scenario
        rollouts = generate_submission(
            scenario,
            create_policy("random", scenario),
            create_policy("random", scenario),
            k=16,
            base_seed=4,
        )
        base = evaluate_scenario(scenario, rollouts, DEFAULT_CONFIG)
        order = np.random.default_rng(0).permutation(len(rollouts.rollouts))
        shuffled = ScenarioRollouts(scenario.scenario_id, rollouts.ids, rollouts.rollouts[order])
        again = evaluate_scenario(scenario, shuffled, DEFAULT_CONFIG)
        for metric in MetricKind:
            assert again.components[metric] == base.components[metric]  # bit-identical
            assert 0.0 < base.components[metric] <= 1.0

        spec = HistogramSpec(MetricKind.LINEAR_SPEED, 0.0, 10.0, 16)
        probs = fit_metric_distribution(_counts([1.0, 2.0, 9.5, 2.2] * 4, spec), spec)
        logged = np.array([[1.1, 8.0, 3.3]])
        nll = time_series_likelihood(logged, np.ones(logged.shape, bool), probs, spec)
        linear = scenario_component(nll, MetricKind.LINEAR_SPEED, "linear_mean")
        assert linear == pytest.approx(math.exp(-nll[0]), abs=1e-12)

        rng = np.random.default_rng(12)
        weights = DEFAULT_CONFIG.weights
        bundles = []
        for i in range(9):
            comps = {m: float(rng.uniform(0.01, 1.0)) for m in MetricKind}
            score = sum(weights[m] * comps[m] for m in MetricKind)
            from simreal.aggregation import MetricsBundle

            bundles.append(MetricsBundle(f"s{i}", comps, score, 0.0, 0.0))
        flat = sum(weights[m] * b.components[m] for b in bundles for m in MetricKind)
        assert dataset_composite(bundles) == pytest.approx(flat / len(bundles), abs=1e-12)


def test_criterion_7_pipeline_closure(tmp_path):
    with criterion(7, "synth -> rollout -> validate -> evaluate for all templates < 2 min"):
        start = time.monotonic()
        scenarios_dir = tmp_path / "scenarios"
        assert cli_main([
            "synth", "--template", "all", "--count", "6", "--seed", "0",
            "--noise", "0.2", "--out", str(scenarios_dir),
        ]) == 0
        for policy in ("random", "constant-velocity", "logged-oracle"):
            archive = tmp_path / f"{policy}.tar.gz"
            assert cli_main([
                "rollout", "--scenarios", str(scenarios_dir),
                "--env-policy", policy, "--av-policy", policy,
                "--k", "32", "--seed", "0", "--jobs", "1", "--out", str(archive),
            ]) == 0
            assert cli_main([
                "validate", "--archive", str(archive), "--scenarios", str(scenarios_dir),
            ]) == 0
            report = tmp_path / f"{policy}.json"
            assert cli_main([
                "evaluate", "--archive", str(archive), "--scenarios", str(scenarios_dir),
                "--out", str(report), "--jobs", "1",
            ]) == 0
            doc = read_report(report)
            assert doc["summary"]["scenario_count"] == 6
            for row in doc["scenarios"]:
                assert len(row["components"]) == 9, row
        assert time.monotonic() - start < 120.0


def test_criterion_8_collision_and_offroad_semantics():
    with criterion(8, "any-time events separate constant velocity from the oracle"):
        cases = (
            (Template.COLLISION_COURSE, MetricKind.COLLISION),
            (Template.OFFROAD_DRIFT, MetricKind.OFFROAD),
        )
        for template, metric in cases:
            synth = generate(SynthSpec(template, seed=11, noise_level=0.2))
            scenario = synth.scenario
            values, _ = synth.fixtures[metric]
            assert (values[:, 0] == 1.0).any(), (
                f"{template.value} must contain a logged {metric.value} event"
            )

            scores = {}
            for name in ("logged-oracle", "constant-velocity"):
                rollouts = generate_submission(
                    scenario,
                    create_policy(name, scenario),
                    create_policy(name, scenario),
                    k=32,
                    base_seed=0,
                )
                scores[name] = evaluate_scenario(scenario, rollouts).components[metric]
            assert scores["constant-velocity"] < scores["logged-oracle"] - 0.5, scores


class _JitteredOracle(Policy):
    """Logged future plus independent per-step position noise."""

    def __init__(self, scenario, sigma=0.3):
        self._inner = LoggedOraclePolicy(scenario)
        self._sigma = sigma

    def step(self, context, rows):
        out = np.array(self._inner.step(context, rows))
        out[..., :2] += 0.0 + self._sigma * context.standard_normals(rows, 2)
        return out


class _OffsetOracle(Policy):
    """Logged future shifted sideways by a constant offset, 32 identical."""

    def __init__(self, scenario, offset=2.0):
        self._inner = LoggedOraclePolicy(scenario)
        self._offset = offset

    def step(self, context, rows):
        out = np.array(self._inner.step(context, rows))
        out[..., 1] += self._offset
        return out


def test_criterion_9_displacement_metrics(baseline_runs):
    with criterion(9, "oracle ADE 0/0, minADE <= ADE, ADE vs composite rankings disagree"):
        results, _ = baseline_runs
        _, oracle_bundles, oracle_summary = results["logged-oracle"]
        assert oracle_summary.mean_ade == 0.0
        assert oracle_summary.mean_min_ade == 0.0
        for name in results:
            for bundle in results[name][1]:
                assert bundle.min_ade <= bundle.ade + 1e-12

        suite = synth_suite(6, 21, 0.2)
        scored = {}
        for name, factory in (("jitter", _JitteredOracle), ("offset", _OffsetOracle)):
            pairs = []
            for synth in suite:
                scn = synth.scenario
                pairs.append(
                    (scn, generate_submission(scn, factory(scn), factory(scn), k=32, base_seed=0))
                )
            _, summary = evaluate_dataset(pairs, DEFAULT_CONFIG)
            scored[name] = summary
        # The jittered oracle wins on displacement but loses on the composite.
        assert scored["jitter"].mean_ade < scored["offset"].mean_ade
        assert scored["jitter"].composite < scored["offset"].composite
