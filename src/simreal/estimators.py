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

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleSet, NonFiniteFeature, NoValidSteps
from .features import (
    BOOLEAN_METRICS,
    DEFAULT_FEATURE_PARAMS,
    LOGGED_FUTURE,
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
    than erroring, so heavy tails cannot abort an evaluation.  The range and
    the pseudocount must be finite: an infinite bound leaves no bin width,
    and an infinite pseudocount no probability.
    """

    metric: MetricKind
    min_value: float
    max_value: float
    bins: int
    pseudocount: float = DEFAULT_PSEUDOCOUNT

    def __post_init__(self):
        if not self.max_value > self.min_value:
            raise ValueError("max_value must exceed min_value")
        if not math.isfinite(self.max_value - self.min_value):
            raise ValueError("max_value - min_value must be finite")
        if self.bins < 2:
            raise ValueError("need at least 2 bins")
        if not 0.0 < self.pseudocount < math.inf:
            raise ValueError("pseudocount must be positive and finite")

    def bin_index(self, values) -> np.ndarray:
        """Bin of each value after clamping into the histogram range.

        A NaN or infinite value raises :class:`NonFiniteFeature`: it has no bin.
        """
        x = np.asarray(values, dtype=float)
        if not np.isfinite(x).all():
            raise NonFiniteFeature(f"a {self.metric.value} value to bin is not finite")
        x = np.clip(x, self.min_value, self.max_value)
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


#: The logged future and the distinct rollouts are extracted in groups of
#: ``max(1, _ROW_BUDGET // (A * T))`` members, A the group's rows and T the
#: steps, so one call holds at most 12,288 (member, object, step) rows when a
#: member fits.  The first group holds the logged future and has a row for
#: every logged track; the others have one per simulated object.  Every
#: kernel's arrays then grow with the rows, time-to-collision's included
#: (its pair workspace is fixed, ``features._TTC_PAIR_STEPS``).  At T = 80 a
#: scene of up to 4 objects, every default-size synth scene, takes one call
#: for the logged future and 32 distinct rollouts; a 32-object scene takes
#: 4 members a call, and from 77 objects a call is one member.  On
#: dense_noisy's 32-object scene (in-process evaluate CPU, medians of 8),
#: 8,192, 12,288 and 16,384 rows a call took the same time within 2%; 5,120
#: took 14% more and 2,560 (one member a call) 37% more.  A call of 4 members
#: of 32 objects (10,240 rows) peaks at 4.5 MB of tracemalloc, and one member
#: of 128 objects at 4.9 MB.
_ROW_BUDGET = 12_288


def rollout_features(
    scenario: Scenario,
    rollouts: ScenarioRollouts,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> tuple[dict, tuple[dict, np.ndarray]]:
    """Extract the logged future and each distinct rollout once, in stacks.

    Returns ``(logged, (features, multiplicity))``, all :func:`extract_features`
    series with rows in ``rollouts.ids`` order.  ``logged`` holds the (A, T)
    series of the logged future, the first stack's first member.
    ``features`` holds (E, A, T) series over the E distinct rollouts of
    :attr:`~simreal.scene.ScenarioRollouts.distinct`, and ``multiplicity``
    (E,) int64 the number of rollouts each stands for.  Deterministic policies
    repeat the same joint scene 32 times, which then costs one extraction of
    one rollout.
    """
    distinct, inverse = rollouts.distinct
    steps = rollouts.num_steps  # >= 1, as the scenario's future length
    head = max(1, _ROW_BUDGET // (len(scenario.tracks) * steps)) - 1
    size = max(1, _ROW_BUDGET // (max(1, len(rollouts.ids)) * steps))
    groups = [np.concatenate([[LOGGED_FUTURE], distinct[:head]])]
    groups += [distinct[lo : lo + size] for lo in range(head, len(distinct), size)]
    first, *later = (
        extract_features(
            SceneStates.from_rollout(scenario, rollouts, ks), scenario.map_features, params
        )
        for ks in groups
    )
    # The simulated objects' rows among the first group's logged tracks.
    rows = np.searchsorted(np.sort(scenario.tracks.ids), rollouts.ids)
    logged = {metric: (values[0, rows], valid[0, rows]) for metric, (values, valid) in first.items()}
    features = {
        metric: tuple(np.concatenate([stacked[1:, rows], *rest])
                      for stacked, *rest in zip(first[metric], *(p[metric] for p in later)))
        for metric in first
    }
    multiplicity = np.bincount(inverse, minlength=len(distinct)).astype(np.int64)
    return logged, (features, multiplicity)


def sample_counts(
    extracted: tuple[dict, np.ndarray], metric: MetricKind, spec: HistogramSpec
) -> np.ndarray:
    """(A, bins) int64 counts of one metric's simulated samples per object row.

    Scalar metrics count every valid step of every rollout; boolean metrics
    count one any-step event per rollout.  ``extracted`` is the
    ``(features, multiplicity)`` pair in :func:`rollout_features`' result; each
    extracted rollout's counts are multiplied by the number of rollouts it
    stands for, which equals counting every rollout.
    """
    features, multiplicity = extracted
    values, valid = features[metric]  # (E, A, T)
    if metric in BOOLEAN_METRICS:
        values = (valid & (values > 0.5)).any(axis=2, keepdims=True).astype(float)
        valid = np.ones(values.shape, dtype=bool)
    e, a, _ = values.shape
    rows = np.arange(e * a).reshape(e, a, 1)
    keys = (rows * spec.bins + spec.bin_index(values))[valid]
    per_extraction = np.bincount(keys, minlength=e * a * spec.bins).reshape(e, a, spec.bins)
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
