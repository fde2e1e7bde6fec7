"""Aggregation of per-object likelihoods into scenario and dataset metrics.

A scenario's component metric is the log-space mean of its objects'
likelihood estimates; the composite is a convex combination of the nine
components with the two safety components (collision, off-road) weighted
twice as heavily as each of the others.  Displacement metrics (ADE, minADE)
are computed alongside as reference points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IncompleteBundle, MetricUnscorable
from .features import BOOLEAN_METRICS, MetricKind
from .scene import Scenario, ScenarioRollouts, simulated_object_ids

WEIGHT_SUM_TOL = 1e-12

#: Aggregation modes for combining per-object likelihoods into one component.
OBJECT_AGGREGATIONS = ("log_mean", "linear_mean")


@dataclass(frozen=True)
class MetricWeights:
    """Per-metric convex weights; must be finite, positive and sum to one."""

    values: Mapping[MetricKind, float]

    def __post_init__(self):
        vals = dict(self.values)
        if not vals:
            raise ValueError("weights cannot be empty")
        if not all(0.0 < w < math.inf for w in vals.values()):  # False on NaN
            raise ValueError("weights must be finite and strictly positive")
        if abs(sum(vals.values()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, metric: MetricKind) -> float:
        return self.values[metric]

    @property
    def metrics(self) -> frozenset[MetricKind]:
        return frozenset(self.values)

    def renormalized(self, metrics: Iterable[MetricKind]) -> "MetricWeights":
        """Weights restricted to a metric subset, rescaled to sum to one."""
        keep = [m for m in self.values if m in set(metrics)]
        if not keep:
            raise ValueError("cannot renormalize onto an empty metric set")
        total = sum(self.values[m] for m in keep)
        return MetricWeights({m: self.values[m] / total for m in keep})

    @staticmethod
    def default() -> "MetricWeights":
        """Safety metrics carry twice the weight of the others: 2/11 vs 1/11."""
        double = float(Fraction(2, 11))
        single = float(Fraction(1, 11))
        return MetricWeights(
            {m: double if m in BOOLEAN_METRICS else single for m in MetricKind}
        )


def scenario_component(
    nll_means: np.ndarray,
    metric: MetricKind,
    aggregation: str = "log_mean",
) -> float:
    """Combine per-object mean NLLs into one scenario-level component.

    The default mirrors the time-axis treatment: average the per-object mean
    NLLs and exponentiate.  ``linear_mean`` averages the per-object
    likelihoods ``exp(-nll)`` directly.
    """
    nll = np.asarray(nll_means, dtype=float)
    if nll.size == 0:
        raise MetricUnscorable(f"no scored objects for {metric.value}")
    if aggregation == "log_mean":
        return float(np.exp(-nll.mean()))
    if aggregation == "linear_mean":
        return float(np.exp(-nll).mean())
    raise ValueError(f"unknown aggregation {aggregation!r}")


def composite(components: Mapping[MetricKind, float], weights: MetricWeights) -> float:
    """Convex combination of component likelihoods under the given weights."""
    missing = weights.metrics - set(components)
    if missing:
        names = ", ".join(sorted(m.value for m in missing))
        raise IncompleteBundle(f"missing component metrics: {names}")
    return float(sum(weights[m] * components[m] for m in weights.values))


@dataclass(frozen=True)
class MetricsBundle:
    """All scenario-level results: components, composite, and displacement."""

    scenario_id: str
    components: Mapping[MetricKind, float]
    composite: float
    ade: float
    min_ade: float
    excluded: tuple[MetricKind, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", dict(self.components))
        object.__setattr__(self, "excluded", tuple(self.excluded))


def dataset_composite(bundles: Sequence[MetricsBundle]) -> float:
    """Mean of the per-scenario composites."""
    if not bundles:
        raise ValueError("need at least one scenario bundle")
    return float(np.mean([b.composite for b in bundles]))


def displacements_per_rollout(rollouts: ScenarioRollouts, scenario: Scenario) -> np.ndarray:
    """(K,) mean 2D displacement of each rollout against the valid logged future.

    Each distinct rollout (:attr:`~simreal.scene.ScenarioRollouts.distinct`)
    is measured once, and its value repeated for its copies.
    """
    ids = sorted(simulated_object_ids(scenario) & rollouts.object_ids)
    logged, logged_ok = scenario.future(ids)
    if not logged_ok.any():
        return np.zeros(len(rollouts.rollouts))
    first, inverse = rollouts.distinct
    rows = np.searchsorted(rollouts.ids, ids)
    sim_xy = rollouts.rollouts[..., :2][np.ix_(first, rows)]  # (E, A, T, 2)
    disp = np.linalg.norm(sim_xy - logged[None, :, :, :2], axis=-1)
    # C order keeps each rollout's mean a reduction over one contiguous row,
    # which sums in the same order as a per-rollout mean.
    return np.ascontiguousarray(disp[:, logged_ok]).mean(axis=1)[inverse]


def ade(rollouts: ScenarioRollouts, scenario: Scenario) -> float:
    """Average 2D displacement over rollouts, objects, and valid logged steps."""
    return float(displacements_per_rollout(rollouts, scenario).mean())


def min_ade(rollouts: ScenarioRollouts, scenario: Scenario) -> float:
    """Displacement of the best rollout (minimum per-rollout mean)."""
    return float(displacements_per_rollout(rollouts, scenario).min())
