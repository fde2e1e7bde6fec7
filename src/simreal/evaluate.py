"""End-to-end scoring: logged scenario + 32 rollouts -> metrics bundle.

Rollouts are checked against the submission contract first.  The logged
side is stripped of late-spawning objects, then every simulated object is
scored per metric against the distribution fitted to its own pooled rollout
samples, all objects of a metric at once.  Metrics that cannot be scored for
any object (for example road-edge distance on a map without road edges) are
excluded and the remaining weights renormalized; exclusions are recorded on
the bundle so reports can surface them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .aggregation import (
    MetricsBundle,
    ade,
    composite,
    dataset_composite,
    min_ade,
    scenario_component,
)
from .config import DEFAULT_CONFIG, EvalConfig
from .errors import MetricUnscorable
from .estimators import (
    fit_metric_distribution,
    rollout_features,
    sample_counts,
    time_series_likelihood,
)
from .features import MetricKind, SceneStates, extract_features
from .scene import (
    CONTRACT_ERRORS,
    Scenario,
    ScenarioRollouts,
    rollout_problems,
    strip_late_spawns,
)


def evaluate_scenario(
    scenario: Scenario,
    rollouts: ScenarioRollouts,
    config: EvalConfig = DEFAULT_CONFIG,
) -> MetricsBundle:
    """Score one scenario's rollouts against its logged future.

    Rollouts that break the submission contract raise the matching typed
    error (:data:`simreal.scene.CONTRACT_ERRORS`) before any feature is
    extracted.
    """
    problems = rollout_problems(scenario, rollouts)
    if problems:
        code, detail = problems[0]
        raise CONTRACT_ERRORS[code](f"{scenario.scenario_id}: {detail}")
    logged = strip_late_spawns(scenario)

    logged_states = SceneStates.from_logged_future(logged)
    logged_feats = extract_features(logged_states, logged.map_features, config.features)
    sim_feats = rollout_features(logged, rollouts, config.features)
    # Logged rows of the simulated objects, in rollout row order.
    logged_rows = np.searchsorted(logged_states.ids, rollouts.ids)

    components: dict[MetricKind, float] = {}
    excluded: list[MetricKind] = []
    for metric in MetricKind:
        values, valid = logged_feats[metric]
        nll = _metric_nll(metric, values[logged_rows], valid[logged_rows], sim_feats, config)
        try:
            components[metric] = scenario_component(nll, metric, config.object_aggregation)
        except MetricUnscorable:
            excluded.append(metric)

    weights = config.weights
    if excluded:
        weights = weights.renormalized(components.keys())
    score = composite(components, weights)
    return MetricsBundle(
        scenario_id=scenario.scenario_id,
        components=components,
        composite=score,
        ade=ade(rollouts, logged),
        min_ade=min_ade(rollouts, logged),
        excluded=tuple(excluded),
    )


def _metric_nll(
    metric: MetricKind,
    values: np.ndarray,
    valid: np.ndarray,
    sim_feats,
    config: EvalConfig,
) -> np.ndarray:
    """Mean logged NLL of every scorable object for one metric, in row order.

    An object is scorable when its logged series has a valid step and its
    distribution has samples: its own rollout samples, or in pooled mode
    those of every object.
    """
    spec = config.histograms[metric]
    counts = sample_counts(sim_feats, metric, spec)
    scored = valid.any(axis=1)
    if config.per_object_histograms:
        scored &= counts.sum(axis=1) > 0
        counts = counts[scored]
    else:
        counts = counts.sum(axis=0, keepdims=True)
        scored &= counts.any()
    if not scored.any():
        return np.empty(0)
    probs = fit_metric_distribution(counts, spec)
    return time_series_likelihood(values[scored], valid[scored], probs, spec)


@dataclass(frozen=True)
class DatasetSummary:
    scenario_count: int
    composite: float
    mean_ade: float
    mean_min_ade: float
    component_means: Mapping[MetricKind, float]

    def __post_init__(self):
        object.__setattr__(self, "component_means", dict(self.component_means))


def summarize(bundles: Sequence[MetricsBundle]) -> DatasetSummary:
    comp_means = {}
    for metric in MetricKind:
        vals = [b.components[metric] for b in bundles if metric in b.components]
        if vals:
            comp_means[metric] = float(np.mean(vals))
    return DatasetSummary(
        scenario_count=len(bundles),
        composite=dataset_composite(bundles),
        mean_ade=float(np.mean([b.ade for b in bundles])),
        mean_min_ade=float(np.mean([b.min_ade for b in bundles])),
        component_means=comp_means,
    )


def _evaluate_one(args) -> MetricsBundle:
    scenario, rollouts, config = args
    return evaluate_scenario(scenario, rollouts, config)


def evaluate_dataset(
    pairs: Iterable[tuple[Scenario, ScenarioRollouts]],
    config: EvalConfig = DEFAULT_CONFIG,
    jobs: int = 1,
) -> tuple[list[MetricsBundle], DatasetSummary]:
    """Score many scenarios, optionally across worker processes."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no scenarios to evaluate")
    if jobs > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            bundles = list(pool.map(_evaluate_one, [(s, r, config) for s, r in pairs]))
    else:
        bundles = [evaluate_scenario(s, r, config) for s, r in pairs]
    bundles.sort(key=lambda b: b.scenario_id)
    return bundles, summarize(bundles)
