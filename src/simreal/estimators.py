"""Histogram likelihood estimation over pooled rollout samples, for every object at once.

Simulated feature samples (32 rollouts, all valid timesteps pooled as
time-independent draws) are counted into one row of histogram bins per
object; every row is turned into a smoothed categorical distribution, and
each object's logged feature series is scored as the exponential of its
negative mean log-probability over valid steps.  Laplace smoothing with a
pseudocount of 0.1 guarantees every bin keeps positive support, so a logged
value can never be assigned zero probability.  Boolean metrics count one
any-step event per rollout into a two-bin [0, 1] histogram, so the same fit
serves them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleSet, NoValidSteps
from .features import (
    BOOLEAN_METRICS,
    DEFAULT_FEATURE_PARAMS,
    FeatureParams,
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
    MetricKind.COLLISION: HistogramSpec(MetricKind.COLLISION, 0.0, 1.0, 2),
    MetricKind.TIME_TO_COLLISION: HistogramSpec(MetricKind.TIME_TO_COLLISION, 0.0, 5.0, 128),
    MetricKind.DIST_TO_ROAD_EDGE: HistogramSpec(MetricKind.DIST_TO_ROAD_EDGE, -5.0, 5.0, 128),
    MetricKind.OFFROAD: HistogramSpec(MetricKind.OFFROAD, 0.0, 1.0, 2),
}


def rollout_features(
    scenario: Scenario,
    rollouts: ScenarioRollouts,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> list[tuple[dict, int]]:
    """Extract each distinct rollout once, with the number of rollouts it stands for.

    Returns ``(features, multiplicity)`` pairs in order of first appearance;
    ``features`` is :func:`extract_features` output for the rollout's rows
    (``rollouts.ids`` order).  Deterministic policies repeat the same joint
    scene 32 times, which then costs one extraction.
    """
    groups: dict[bytes, list[int]] = {}
    for k, poses in enumerate(rollouts.rollouts):
        groups.setdefault(poses.tobytes(), []).append(k)
    return [
        (
            extract_features(
                SceneStates.from_rollout(scenario, rollouts, ks[0]),
                scenario.map_features,
                params,
            ),
            len(ks),
        )
        for ks in groups.values()
    ]


def sample_counts(
    extractions: list[tuple[dict, int]], metric: MetricKind, spec: HistogramSpec
) -> np.ndarray:
    """(A, bins) int64 counts of one metric's simulated samples per object row.

    Scalar metrics count every valid step of every rollout; boolean metrics
    count one any-step event per rollout.  ``extractions`` comes from
    :func:`rollout_features`; each one's counts are multiplied by the number
    of rollouts it stands for, which equals counting every rollout.
    """
    values = np.stack([feats[metric][0] for feats, _ in extractions])  # (E, A, T)
    valid = np.stack([feats[metric][1] for feats, _ in extractions])
    if metric in BOOLEAN_METRICS:
        values = (valid & (values > 0.5)).any(axis=2, keepdims=True).astype(float)
        valid = np.ones(values.shape, dtype=bool)
    e, a, _ = values.shape
    rows = np.arange(e * a).reshape(e, a, 1)
    keys = (rows * spec.bins + spec.bin_index(values))[valid]
    per_extraction = np.bincount(keys, minlength=e * a * spec.bins).reshape(e, a, spec.bins)
    multiplicity = np.array([n for _, n in extractions], dtype=np.int64)
    return (per_extraction * multiplicity[:, None, None]).sum(axis=0)


def fit_metric_distribution(counts: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """Smoothed categorical distribution of every row of an (R, bins) count matrix.

    Row r's probability of bin b is (counts[r, b] + a) / (n_r + bins * a)
    with pseudocount a and n_r the row's sample count.
    """
    n = counts.sum(axis=1, keepdims=True)
    if not np.all(n > 0):
        raise EmptySampleSet(f"no samples to fit for {spec.metric.value}")
    return (counts + spec.pseudocount) / (n + spec.bins * spec.pseudocount)


def time_series_likelihood(
    values: np.ndarray, valid: np.ndarray, probs: np.ndarray, spec: HistogramSpec
) -> np.ndarray:
    """Mean negative log-probability of every row's valid logged steps.

    ``values`` and ``valid`` are (R, T) logged series; ``probs`` holds the
    fitted distribution of each row, (R, bins), or one (1, bins) row shared
    by all.  Averaging the NLL treats timesteps as independent draws; the
    row's likelihood is ``exp(-mean)``.
    """
    steps = valid.sum(axis=1)
    if not np.all(steps > 0):
        raise NoValidSteps(f"a logged {spec.metric.value} series has no valid steps")
    nll = -np.log(np.take_along_axis(probs, spec.bin_index(values), axis=1))
    # Each row's mean runs over its valid values alone, compacted in step
    # order: rows of equal length are averaged together as contiguous rows,
    # which sums exactly like a 1-D mean of each row.
    compact = np.take_along_axis(nll, np.argsort(~valid, axis=1, kind="stable"), axis=1)
    means = np.empty(len(nll))
    for n in np.unique(steps):
        rows = steps == n
        means[rows] = np.ascontiguousarray(compact[rows, :n]).mean(axis=1)
    return means
