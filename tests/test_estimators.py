from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simreal.aggregation import scenario_component
from simreal.config import DEFAULT_CONFIG
from simreal.errors import EmptySampleSet, InconsistentRollouts, NoValidSteps
from simreal.estimators import (
    DEFAULT_HISTOGRAM_SPECS,
    HistogramSpec,
    fit_metric_distribution,
    rollout_features,
    sample_counts,
    time_series_likelihood,
)
from simreal.evaluate import _metric_nll, evaluate_scenario
from simreal.features import BOOLEAN_METRICS, MetricKind, SceneStates, extract_features
from simreal.harness import generate_submission
from simreal.policies import ConstantVelocityPolicy, LoggedOraclePolicy
from simreal.scene import ScenarioRollouts
from simreal.synth import SynthSpec, Template, generate


def spec10(lo=0.0, hi=10.0, bins=10):
    return HistogramSpec(MetricKind.LINEAR_SPEED, lo, hi, bins)


BERNOULLI = DEFAULT_HISTOGRAM_SPECS[MetricKind.COLLISION]


def extraction(metric, values, valid=None):
    """A one-object extraction holding one metric's series."""
    values = np.asarray(values, dtype=float).reshape(1, -1)
    valid = np.ones(values.shape, dtype=bool) if valid is None else np.reshape(valid, (1, -1))
    return {metric: (values, valid)}


def fit(samples, spec):
    """Fitted probabilities of one object whose valid steps are ``samples``."""
    counts = sample_counts([(extraction(spec.metric, samples), 1)], spec.metric, spec)
    return fit_metric_distribution(counts, spec)[0]


def fit_events(events, spec=BERNOULLI):
    """Fitted probabilities of one object with one any-step event per rollout."""
    rollouts = [(extraction(spec.metric, [float(e)] * 5), 1) for e in events]
    counts = sample_counts(rollouts, spec.metric, spec)
    return fit_metric_distribution(counts, spec)[0]


def score(probs, values, valid=None, spec=None):
    """Mean logged NLL of one object against its fitted probabilities."""
    spec = spec10() if spec is None else spec
    values, valid = extraction(spec.metric, values, valid)[spec.metric]
    return time_series_likelihood(values, valid, probs[None, :], spec)[0]


class TestFitHistogram:
    def test_all_samples_in_one_bin(self):
        probs = fit([5.05] * 32, spec10())
        assert probs[5] == pytest.approx(32.1 / 33.0, abs=1e-12)
        others = np.delete(probs, 5)
        assert np.allclose(others, 0.1 / 33.0, atol=1e-15)

    def test_split_sixteen_sixteen(self):
        probs = fit([1.5] * 16 + [7.5] * 16, spec10(bins=4, hi=8.0))
        assert probs[0] == pytest.approx(16.1 / 32.4, abs=1e-12)
        assert probs[3] == pytest.approx(16.1 / 32.4, abs=1e-12)
        assert probs[1] == pytest.approx(0.1 / 32.4, abs=1e-12)

    def test_empty_samples_raise(self):
        # An object whose rollouts hold no valid step has nothing to fit.
        metric = MetricKind.LINEAR_SPEED
        invalid = extraction(metric, [1.0, 2.0], valid=[False, False])
        counts = sample_counts([(invalid, 3)], metric, spec10())
        assert counts.sum() == 0
        with pytest.raises(EmptySampleSet):
            fit_metric_distribution(counts, spec10())

    def test_out_of_range_clamps_to_boundary_bins(self):
        probs = fit([-100.0, 100.0], spec10())
        assert probs[0] == pytest.approx(1.1 / 3.0)
        assert probs[-1] == pytest.approx(1.1 / 3.0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = fit(rng.uniform(0, 10, 500), spec10(bins=128))
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_exhaustive_small_cases_match_exact_rationals(self):
        # Every sample multiset of size <= 6 drawn from bin centers of a
        # <= 4-bin histogram, checked against a Fraction-exact recomputation.
        for bins in (2, 3, 4):
            spec = HistogramSpec(MetricKind.LINEAR_SPEED, 0.0, float(bins), bins)
            centers = [i + 0.5 for i in range(bins)]
            for n in range(1, 7):
                for combo in combinations_with_replacement(range(bins), n):
                    probs = fit([centers[i] for i in combo], spec)
                    for b in range(bins):
                        exact = (combo.count(b) + Fraction(1, 10)) / (n + bins * Fraction(1, 10))
                        assert probs[b] == pytest.approx(float(exact), abs=1e-15)


class TestFitBernoulli:
    def test_all_false(self):
        probs = fit_events([False] * 32)
        assert probs[0] == pytest.approx(32.1 / 32.2, abs=1e-12)
        assert probs[1] == pytest.approx(0.1 / 32.2, abs=1e-12)

    def test_even_split_is_half(self):
        probs = fit_events([True] * 16 + [False] * 16)
        assert probs[0] == pytest.approx(0.5, abs=1e-15)
        assert probs[1] == pytest.approx(0.5, abs=1e-15)

    def test_all_true_mirrors_all_false(self):
        probs = fit_events([True] * 32)
        assert probs[1] == pytest.approx(32.1 / 32.2, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySampleSet):
            fit_metric_distribution(np.zeros((1, 2), dtype=np.int64), BERNOULLI)


class TestTimeSeriesLikelihood:
    def test_all_logged_steps_in_the_dominant_bin(self):
        nll = score(fit([5.05] * 32, spec10()), [5.2] * 40)
        assert math.exp(-nll) == pytest.approx(32.1 / 33.0, abs=1e-9)
        assert math.exp(-nll) == pytest.approx(0.972727, abs=1e-6)

    def test_single_valid_step(self):
        probs = fit([5.05] * 32, spec10())
        nll = score(probs, [5.2, 0.0], valid=[True, False])
        assert math.exp(-nll) == pytest.approx(float(probs[5]), abs=1e-15)

    def test_zero_valid_steps_raise(self):
        probs = fit([5.0] * 4, spec10())
        with pytest.raises(NoValidSteps):
            score(probs, [1.0, 2.0], valid=[False, False])

    def test_logged_oracle_never_reaches_one(self):
        # 32 identical rollout samples still leave smoothing mass elsewhere.
        nll = score(fit([5.05] * 32, spec10()), [5.05] * 80)
        assert math.exp(-nll) < 1.0

    def test_exp_log_round_trip(self):
        nll = score(fit([1.0, 2.0, 7.0] * 5, spec10()), [1.5, 6.9, 2.2])
        for aggregation in ("log_mean", "linear_mean"):
            got = scenario_component([nll], MetricKind.LINEAR_SPEED, aggregation)
            assert got == pytest.approx(math.exp(-nll), abs=1e-12)

    def test_laplace_floor_bounds_every_step(self):
        nll = score(fit([0.1] * 32, spec10(bins=128)), [9.9] * 10, spec=spec10(bins=128))
        floor = 0.1 / (32 + 128 * 0.1)
        assert math.exp(-nll) >= floor > 0.0
        assert math.isfinite(nll)

    def test_mixed_bins_average_in_log_space(self):
        nll = score(fit([1.0] * 16 + [9.0] * 16, spec10()), [1.0, 9.0])
        p = 16.1 / 33.0
        assert math.exp(-nll) == pytest.approx(p, abs=1e-12)  # geometric mean of equal p

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40), st.integers(1, 8))
    def test_adding_logged_matching_samples_never_hurts(self, logged_values, copies):
        base_pool = [3.3] * 8 + [7.7] * 8
        before = score(fit(base_pool, spec10()), logged_values)
        grown = base_pool + list(logged_values) * copies
        after = score(fit(grown, spec10()), logged_values)
        assert math.exp(-after) >= math.exp(-before) - 1e-12


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
        metric = MetricKind.LINEAR_SPEED
        counts = sample_counts(
            rollout_features(scenario, rollouts), metric, DEFAULT_HISTOGRAM_SPECS[metric]
        )
        assert counts.shape == (len(rollouts.ids), 128)
        assert counts[list(rollouts.ids).index(0)].sum() == 32 * 79

    def test_boolean_pool_is_one_event_per_rollout(self, scenario_and_rollouts):
        scenario, rollouts = scenario_and_rollouts
        extractions = rollout_features(scenario, rollouts)
        counts = sample_counts(extractions, MetricKind.COLLISION, BERNOULLI)
        assert counts.dtype == np.int64
        assert counts.shape == (len(rollouts.ids), 2)
        assert np.all(counts.sum(axis=1) == 32)

    def test_missing_object_raises(self, scenario_and_rollouts):
        scenario, rollouts = scenario_and_rollouts
        keep = rollouts.ids != 1
        partial = ScenarioRollouts(
            scenario.scenario_id, rollouts.ids[keep], rollouts.rollouts[:, keep]
        )
        with pytest.raises(InconsistentRollouts, match="miss ids \\[1\\]"):
            evaluate_scenario(scenario, partial)

    def test_precomputed_features_shortcut_matches(self, scenario_and_rollouts):
        scenario, rollouts = scenario_and_rollouts
        # Deduplicated extraction counts exactly what one extraction per rollout does.
        shared = rollout_features(scenario, rollouts)
        assert [n for _, n in shared] == [32]
        direct = [
            (
                extract_features(
                    SceneStates.from_rollout(scenario, rollouts, k), scenario.map_features
                ),
                1,
            )
            for k in range(len(rollouts.rollouts))
        ]
        for metric in MetricKind:
            spec = DEFAULT_HISTOGRAM_SPECS[metric]
            np.testing.assert_array_equal(
                sample_counts(direct, metric, spec), sample_counts(shared, metric, spec)
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
        # Smoothing gives every bin of every row positive mass, empty bins too.
        counts = np.array([[5, 0, 0, 0], [0, 0, 0, 1], [2, 2, 2, 2]])
        probs = fit_metric_distribution(counts, spec10(bins=4))
        assert np.all(probs > 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# The count path against a per-object reference: pool each object's samples
# over every rollout (duplicates expanded), bincount, smooth, gather the
# logged bins, and average the NLL over the valid logged steps.


def reference_nll(metric, spec, rollouts, logged_values, logged_valid, pooled):
    """Per-object mean NLLs the way one fit per object computes them."""
    boolean = metric in BOOLEAN_METRICS

    def samples(row):
        if boolean:
            return np.array([float(np.any(v[row][ok[row]] > 0.5)) for v, ok in rollouts])
        chunks = [v[row][ok[row]] for v, ok in rollouts]
        return np.concatenate(chunks) if chunks else np.empty(0)

    def fitted(x):
        counts = np.bincount(spec.bin_index(x), minlength=spec.bins)
        return (counts + spec.pseudocount) / (len(x) + spec.bins * spec.pseudocount)

    rows = range(len(logged_values))
    shared = None
    if pooled:
        flat = np.concatenate([samples(r) for r in rows])
        shared = fitted(flat) if len(flat) else None
    out = []
    for row in rows:
        vals = logged_values[row][logged_valid[row]]
        if len(vals) == 0:
            continue
        own = samples(row)
        if shared is None and len(own) == 0:
            continue
        probs = shared if pooled else fitted(own)
        out.append(float((-np.log(probs[spec.bin_index(vals)])).mean()))
    return np.array(out)


@st.composite
def count_path_cases(draw):
    a = draw(st.integers(1, 5))
    t = draw(st.integers(1, 40))
    distinct = draw(st.integers(1, 4))
    metric = draw(st.sampled_from([MetricKind.LINEAR_SPEED, MetricKind.COLLISION]))
    spec = DEFAULT_HISTOGRAM_SPECS[metric]
    # Values span past the [0, 30] speed range so both boundary bins clamp;
    # coarse binnings give logged steps many different probabilities.
    values = st.floats(-10.0, 40.0, allow_nan=False)
    if metric in BOOLEAN_METRICS:
        values = st.sampled_from([0.0, 1.0])
    else:
        spec = replace(spec, bins=draw(st.sampled_from([2, 5, 16, 128])))

    def series():
        vals = draw(hnp.arrays(float, (a, t), elements=values, fill=st.nothing()))
        ok = draw(hnp.arrays(bool, (a, t), elements=st.booleans(), fill=st.nothing()))
        # Some objects have no valid step at all.
        ok &= draw(hnp.arrays(bool, (a, 1)))
        if metric in BOOLEAN_METRICS:  # a constant event over the defined steps
            vals = np.broadcast_to(vals[:, :1], (a, t)).copy()
            ok = np.broadcast_to(ok.any(axis=1, keepdims=True), (a, t)).copy()
        return np.where(ok, vals, 0.0), ok

    extractions = [({metric: series()}, draw(st.integers(1, 3))) for _ in range(distinct)]
    logged = series()
    return metric, spec, extractions, logged


class TestCountPathMatchesPerObjectReference:
    @settings(max_examples=150, deadline=None)
    @given(count_path_cases(), st.booleans(), st.sampled_from(["log_mean", "linear_mean"]))
    def test_bit_identical_to_one_fit_per_object(self, case, per_object, aggregation):
        metric, spec, extractions, (logged_values, logged_valid) = case
        config = replace(
            DEFAULT_CONFIG,
            histograms={**DEFAULT_CONFIG.histograms, metric: spec},
            per_object_histograms=per_object,
            object_aggregation=aggregation,
        )
        expanded = [feats[metric] for feats, n in extractions for _ in range(n)]
        want = reference_nll(
            metric, spec, expanded, logged_values, logged_valid, pooled=not per_object
        )
        got = _metric_nll(metric, logged_values, logged_valid, extractions, config)
        assert got.tobytes() == want.tobytes()
        if len(want):
            per_object_values = [float(np.exp(-x)) for x in want]
            reference = (
                float(np.exp(-np.mean(list(want))))
                if aggregation == "log_mean"
                else float(np.mean(per_object_values))
            )
            assert scenario_component(got, metric, aggregation) == reference
