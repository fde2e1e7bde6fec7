"""Histogram and Bernoulli likelihood estimation over pooled rollout samples.

Simulated feature samples (32 rollouts, all valid timesteps pooled as
time-independent draws) are turned into a smoothed categorical distribution;
the logged feature series is then scored as the exponential of its negative
mean log-probability over valid steps.  Laplace smoothing with a pseudocount
of 0.1 guarantees every bin keeps positive support, so a logged value can
never be assigned zero probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptySampleSet, InconsistentRollouts, NoValidSteps
from .features import (
    BOOLEAN_METRICS,
    DEFAULT_FEATURE_PARAMS,
    FeatureParams,
    FeatureSeries,
    MetricKind,
    SceneStates,
    extract_features,
)
from .scene import Scenario, ScenarioRollouts

DEFAULT_PSEUDOCOUNT = 0.1


@dataclass(frozen=True)
class HistogramSpec:
    """Uniform binning of one metric's value range.

    Values outside [min_value, max_value] clamp into the boundary bins rather
    than erroring, so heavy tails cannot abort an evaluation.
    """

    metric: MetricKind
    min_value: float
    max_value: float
    bins: int
    pseudocount: float = DEFAULT_PSEUDOCOUNT

    def __post_init__(self):
        if not self.max_value > self.min_value:
            raise ValueError("max_value must exceed min_value")
        if self.bins < 2:
            raise ValueError("need at least 2 bins")
        if not self.pseudocount > 0.0:
            raise ValueError("pseudocount must be positive")

    def bin_index(self, values) -> np.ndarray:
        """Bin of each value after clamping into the histogram range."""
        x = np.clip(np.asarray(values, dtype=float), self.min_value, self.max_value)
        width = (self.max_value - self.min_value) / self.bins
        idx = np.floor((x - self.min_value) / width).astype(int)
        return np.clip(idx, 0, self.bins - 1)


def _bernoulli_spec(metric: MetricKind, pseudocount: float) -> HistogramSpec:
    return HistogramSpec(metric, 0.0, 1.0, 2, pseudocount)


# Value ranges are conventional physical envelopes; they travel with every
# report so results stay reproducible.
DEFAULT_HISTOGRAM_SPECS: dict[MetricKind, HistogramSpec] = {
    MetricKind.LINEAR_SPEED: HistogramSpec(MetricKind.LINEAR_SPEED, 0.0, 30.0, 128),
    MetricKind.LINEAR_ACCEL: HistogramSpec(MetricKind.LINEAR_ACCEL, -6.0, 6.0, 128),
    MetricKind.ANGULAR_SPEED: HistogramSpec(MetricKind.ANGULAR_SPEED, -np.pi, np.pi, 128),
    MetricKind.ANGULAR_ACCEL: HistogramSpec(MetricKind.ANGULAR_ACCEL, -4.0, 4.0, 128),
    MetricKind.DIST_TO_NEAREST_OBJECT: HistogramSpec(
        MetricKind.DIST_TO_NEAREST_OBJECT, -2.0, 40.0, 128
    ),
    MetricKind.COLLISION: _bernoulli_spec(MetricKind.COLLISION, DEFAULT_PSEUDOCOUNT),
    MetricKind.TIME_TO_COLLISION: HistogramSpec(MetricKind.TIME_TO_COLLISION, 0.0, 5.0, 128),
    MetricKind.DIST_TO_ROAD_EDGE: HistogramSpec(MetricKind.DIST_TO_ROAD_EDGE, -5.0, 5.0, 128),
    MetricKind.OFFROAD: _bernoulli_spec(MetricKind.OFFROAD, DEFAULT_PSEUDOCOUNT),
}


@dataclass(frozen=True)
class FittedDistribution:
    """A smoothed categorical distribution over a histogram's bins."""

    spec: HistogramSpec
    probabilities: np.ndarray
    sample_count: int

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        if len(p) != self.spec.bins:
            raise ValueError("probability vector does not match the bin count")
        if not np.all(p > 0.0):
            raise ValueError("smoothing must leave every bin with positive mass")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    def prob_of(self, values) -> np.ndarray:
        return self.probabilities[self.spec.bin_index(values)]


@dataclass(frozen=True)
class LikelihoodEstimate:
    """A per-object, per-metric likelihood in (0, 1]."""

    metric: MetricKind
    value: float
    nll_mean: float
    valid_steps: int


def fit_histogram(samples, spec: HistogramSpec) -> FittedDistribution:
    """Fit a smoothed categorical distribution to scalar samples.

    Per-bin probability is (count + a) / (n + bins * a) with pseudocount a.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = len(x)
    if n == 0:
        raise EmptySampleSet(f"no samples to fit for {spec.metric.value}")
    counts = np.bincount(spec.bin_index(x), minlength=spec.bins)
    probs = (counts + spec.pseudocount) / (n + spec.bins * spec.pseudocount)
    return FittedDistribution(spec=spec, probabilities=probs, sample_count=n)


def fit_bernoulli(
    samples,
    pseudocount: float = DEFAULT_PSEUDOCOUNT,
    metric: MetricKind = MetricKind.COLLISION,
) -> FittedDistribution:
    """Fit a two-bin event distribution: p(true) = (n_true + a) / (n + 2a)."""
    x = np.asarray(samples).astype(bool).ravel()
    n = len(x)
    if n == 0:
        raise EmptySampleSet(f"no samples to fit for {metric.value}")
    n_true = int(x.sum())
    p_true = (n_true + pseudocount) / (n + 2.0 * pseudocount)
    p_false = (n - n_true + pseudocount) / (n + 2.0 * pseudocount)
    return FittedDistribution(
        spec=_bernoulli_spec(metric, pseudocount),
        probabilities=np.array([p_false, p_true]),
        sample_count=n,
    )


def time_series_likelihood(
    logged: FeatureSeries, dist: FittedDistribution
) -> LikelihoodEstimate:
    """Score a logged series against a fitted distribution.

    The negative log-probabilities of the valid steps are averaged and
    exponentiated back, which treats timesteps as independent draws.
    """
    vals = logged.valid_values()
    if len(vals) == 0:
        raise NoValidSteps(
            f"object {logged.object_id}: no valid steps for {logged.metric.value}"
        )
    nll = -np.log(dist.prob_of(vals))
    nll_mean = float(nll.mean())
    return LikelihoodEstimate(
        metric=logged.metric,
        value=float(np.exp(-nll_mean)),
        nll_mean=nll_mean,
        valid_steps=len(vals),
    )


RolloutFeatures = Sequence[Mapping[MetricKind, Mapping[int, FeatureSeries]]]


def rollout_features(
    scenario: Scenario,
    rollouts: ScenarioRollouts,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> list[dict[MetricKind, dict[int, FeatureSeries]]]:
    """Extract every rollout's feature series once, for reuse across metrics.

    Identical rollouts (deterministic policies repeat the same joint scene 32
    times) share one extraction; series are immutable so aliasing is safe.
    """
    out = []
    cache: dict = {}
    for k in range(len(rollouts.rollouts)):
        key = rollouts.rollouts[k].tobytes()
        hit = cache.get(key)
        if hit is None:
            states = SceneStates.from_rollout(scenario, rollouts, k)
            hit = cache[key] = extract_features(states, scenario.map_features, params)
        out.append(hit)
    return out


def pool_from_features(
    features: RolloutFeatures, object_id: int, metric: MetricKind
) -> np.ndarray:
    """Pool one object's simulated samples for one metric across all rollouts.

    Scalar metrics concatenate every valid timestep of every rollout; boolean
    metrics contribute exactly one event sample per rollout.  ``features``
    comes from :func:`rollout_features`.
    """
    try:
        series = [per_metric[metric][object_id] for per_metric in features]
    except KeyError:
        raise InconsistentRollouts(f"object {object_id} is not in the rollouts") from None
    if metric in BOOLEAN_METRICS:
        return np.asarray([bool(np.any(s.valid_values() > 0.5)) for s in series], dtype=bool)
    chunks = [s.valid_values() for s in series]
    return np.concatenate(chunks) if chunks else np.empty(0)


def fit_metric_distribution(
    samples, metric: MetricKind, specs: Mapping[MetricKind, HistogramSpec] | None = None
) -> FittedDistribution:
    """Fit the right distribution family for a metric (histogram or Bernoulli)."""
    specs = DEFAULT_HISTOGRAM_SPECS if specs is None else specs
    spec = specs[metric]
    if metric in BOOLEAN_METRICS:
        return fit_bernoulli(samples, spec.pseudocount, metric)
    return fit_histogram(samples, spec)
