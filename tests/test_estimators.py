from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simreal.errors import EmptySampleSet, InconsistentRollouts, NoValidSteps
from simreal.estimators import (
    DEFAULT_HISTOGRAM_SPECS,
    FittedDistribution,
    HistogramSpec,
    fit_bernoulli,
    fit_histogram,
    pool_from_features,
    rollout_features,
    time_series_likelihood,
)
from simreal.features import FeatureSeries, MetricKind, SceneStates, extract_features
from simreal.harness import generate_submission
from simreal.policies import ConstantVelocityPolicy, LoggedOraclePolicy
from simreal.synth import SynthSpec, Template, generate


def spec10(lo=0.0, hi=10.0, bins=10):
    return HistogramSpec(MetricKind.LINEAR_SPEED, lo, hi, bins)


def logged(values, valid=None, metric=MetricKind.LINEAR_SPEED):
    values = np.asarray(values, dtype=float)
    valid = np.ones(len(values), dtype=bool) if valid is None else np.asarray(valid, bool)
    return FeatureSeries(0, metric, values, valid)


class TestFitHistogram:
    def test_all_samples_in_one_bin(self):
        dist = fit_histogram([5.05] * 32, spec10())
        assert dist.probabilities[5] == pytest.approx(32.1 / 33.0, abs=1e-12)
        others = np.delete(dist.probabilities, 5)
        assert np.allclose(others, 0.1 / 33.0, atol=1e-15)

    def test_split_sixteen_sixteen(self):
        dist = fit_histogram([1.5] * 16 + [7.5] * 16, spec10(bins=4, hi=8.0))
        assert dist.probabilities[0] == pytest.approx(16.1 / 32.4, abs=1e-12)
        assert dist.probabilities[3] == pytest.approx(16.1 / 32.4, abs=1e-12)
        assert dist.probabilities[1] == pytest.approx(0.1 / 32.4, abs=1e-12)

    def test_empty_samples_raise(self):
        with pytest.raises(EmptySampleSet):
            fit_histogram([], spec10())

    def test_out_of_range_clamps_to_boundary_bins(self):
        dist = fit_histogram([-100.0, 100.0], spec10())
        assert dist.probabilities[0] == pytest.approx(1.1 / 3.0)
        assert dist.probabilities[-1] == pytest.approx(1.1 / 3.0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        dist = fit_histogram(rng.uniform(0, 10, 500), spec10(bins=128))
        assert abs(dist.probabilities.sum() - 1.0) <= 1e-12

    def test_exhaustive_small_cases_match_exact_rationals(self):
        # Every sample multiset of size <= 6 drawn from bin centers of a
        # <= 4-bin histogram, checked against a Fraction-exact recomputation.
        for bins in (2, 3, 4):
            spec = HistogramSpec(MetricKind.LINEAR_SPEED, 0.0, float(bins), bins)
            centers = [i + 0.5 for i in range(bins)]
            from itertools import combinations_with_replacement

            for n in range(1, 7):
                for combo in combinations_with_replacement(range(bins), n):
                    samples = [centers[i] for i in combo]
                    dist = fit_histogram(samples, spec)
                    counts = [0] * bins
                    for i in combo:
                        counts[i] += 1
                    for b in range(bins):
                        exact = (counts[b] + Fraction(1, 10)) / (n + bins * Fraction(1, 10))
                        assert dist.probabilities[b] == pytest.approx(float(exact), abs=1e-15)


class TestFitBernoulli:
    def test_all_false(self):
        dist = fit_bernoulli([False] * 32)
        assert dist.probabilities[0] == pytest.approx(32.1 / 32.2, abs=1e-12)
        assert dist.probabilities[1] == pytest.approx(0.1 / 32.2, abs=1e-12)

    def test_even_split_is_half(self):
        dist = fit_bernoulli([True] * 16 + [False] * 16)
        assert dist.probabilities[0] == pytest.approx(0.5, abs=1e-15)
        assert dist.probabilities[1] == pytest.approx(0.5, abs=1e-15)

    def test_all_true_mirrors_all_false(self):
        dist = fit_bernoulli([True] * 32)
        assert dist.probabilities[1] == pytest.approx(32.1 / 32.2, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySampleSet):
            fit_bernoulli([])


class TestTimeSeriesLikelihood:
    def test_all_logged_steps_in_the_dominant_bin(self):
        dist = fit_histogram([5.05] * 32, spec10())
        est = time_series_likelihood(logged([5.2] * 40), dist)
        assert est.value == pytest.approx(32.1 / 33.0, abs=1e-9)
        assert est.value == pytest.approx(0.972727, abs=1e-6)

    def test_single_valid_step(self):
        dist = fit_histogram([5.05] * 32, spec10())
        series = logged([5.2, 0.0], valid=[True, False])
        est = time_series_likelihood(series, dist)
        assert est.valid_steps == 1
        assert est.value == pytest.approx(float(dist.probabilities[5]), abs=1e-15)

    def test_zero_valid_steps_raise(self):
        dist = fit_histogram([5.0] * 4, spec10())
        with pytest.raises(NoValidSteps):
            time_series_likelihood(logged([1.0, 2.0], valid=[False, False]), dist)

    def test_logged_oracle_never_reaches_one(self):
        # 32 identical rollout samples still leave smoothing mass elsewhere.
        dist = fit_histogram([5.05] * 32, spec10())
        est = time_series_likelihood(logged([5.05] * 80), dist)
        assert est.value < 1.0

    def test_exp_log_round_trip(self):
        dist = fit_histogram([1.0, 2.0, 7.0] * 5, spec10())
        est = time_series_likelihood(logged([1.5, 6.9, 2.2]), dist)
        assert est.value == pytest.approx(math.exp(-est.nll_mean), abs=1e-12)

    def test_laplace_floor_bounds_every_step(self):
        dist = fit_histogram([0.1] * 32, spec10(bins=128))
        est = time_series_likelihood(logged([9.9] * 10), dist)
        floor = 0.1 / (32 + 128 * 0.1)
        assert est.value >= floor > 0.0
        assert math.isfinite(est.nll_mean)

    def test_mixed_bins_average_in_log_space(self):
        dist = fit_histogram([1.0] * 16 + [9.0] * 16, spec10())
        est = time_series_likelihood(logged([1.0, 9.0]), dist)
        p = 16.1 / 33.0
        assert est.value == pytest.approx(p, abs=1e-12)  # geometric mean of equal p

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40), st.integers(1, 8))
    def test_adding_logged_matching_samples_never_hurts(self, logged_values, copies):
        base_pool = [3.3] * 8 + [7.7] * 8
        series = logged(logged_values)
        before = time_series_likelihood(series, fit_histogram(base_pool, spec10()))
        grown = base_pool + list(logged_values) * copies
        after = time_series_likelihood(series, fit_histogram(grown, spec10()))
        assert after.value >= before.value - 1e-12


@pytest.fixture(scope="module")
def scenario_and_rollouts():
    synth = generate(SynthSpec(Template.FOLLOWING_PAIR, seed=5))
    scenario = synth.scenario
    oracle = LoggedOraclePolicy(scenario)
    env = ConstantVelocityPolicy()
    rollouts = generate_submission(scenario, oracle, env, k=32, base_seed=0)
    return scenario, rollouts


class TestPooling:
    def test_scalar_pool_counts_valid_steps(self, scenario_and_rollouts):
        scenario, rollouts = scenario_and_rollouts
        samples = pool_from_features(
            rollout_features(scenario, rollouts), 0, MetricKind.LINEAR_SPEED
        )
        assert len(samples) == 32 * 79

    def test_boolean_pool_is_one_event_per_rollout(self, scenario_and_rollouts):
        scenario, rollouts = scenario_and_rollouts
        samples = pool_from_features(rollout_features(scenario, rollouts), 0, MetricKind.COLLISION)
        assert len(samples) == 32
        assert samples.dtype == bool

    def test_missing_object_raises(self, scenario_and_rollouts):
        scenario, rollouts = scenario_and_rollouts
        with pytest.raises(InconsistentRollouts):
            pool_from_features(rollout_features(scenario, rollouts), 99, MetricKind.LINEAR_SPEED)

    def test_precomputed_features_shortcut_matches(self, scenario_and_rollouts):
        scenario, rollouts = scenario_and_rollouts
        # Deduplicated extraction pools exactly what one extraction per rollout does.
        shared = rollout_features(scenario, rollouts)
        direct = [
            extract_features(SceneStates.from_rollout(scenario, rollouts, k), scenario.map_features)
            for k in range(len(rollouts.rollouts))
        ]
        for metric in MetricKind:
            np.testing.assert_array_equal(
                pool_from_features(direct, 1, metric), pool_from_features(shared, 1, metric)
            )


class TestDefaultSpecs:
    def test_every_metric_has_a_spec(self):
        assert set(DEFAULT_HISTOGRAM_SPECS) == set(MetricKind)

    def test_boolean_metrics_use_two_bins(self):
        assert DEFAULT_HISTOGRAM_SPECS[MetricKind.COLLISION].bins == 2
        assert DEFAULT_HISTOGRAM_SPECS[MetricKind.OFFROAD].bins == 2

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            HistogramSpec(MetricKind.LINEAR_SPEED, 5.0, 5.0, 10)
        with pytest.raises(ValueError):
            HistogramSpec(MetricKind.LINEAR_SPEED, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            HistogramSpec(MetricKind.LINEAR_SPEED, 0.0, 1.0, 4, pseudocount=0.0)

    def test_distribution_validates_support(self):
        with pytest.raises(ValueError):
            FittedDistribution(spec10(bins=2), np.array([1.0, 0.0]), 4)
