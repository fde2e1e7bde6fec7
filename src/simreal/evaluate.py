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
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .aggregation import (  # ade and min_ade stay importable here: bench/probes.py wraps them
    MetricsBundle,
    ade,  # noqa: F401
    composite,
    dataset_composite,
    displacements_per_rollout,
    min_ade,  # noqa: F401
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
    extracted.  The check is :func:`~simreal.scene.rollout_problems`; it
    reads the poses through the bundle's kept ``pose_extremes``, so a bundle
    ``io.match_scenarios`` has checked on the ``evaluate`` path (in this
    process or before it was sent to a worker) is not scanned again.
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
        values, valid = (series[0, logged_rows] for series in logged_feats[metric])
        nll = _metric_nll(metric, values, valid, sim_feats, config)
        try:
            components[metric] = scenario_component(nll, metric, config.object_aggregation)
        except MetricUnscorable:
            excluded.append(metric)

    weights = config.weights
    if excluded:
        weights = weights.renormalized(components.keys())
    score = composite(components, weights)
    displacements = displacements_per_rollout(rollouts, logged)
    return MetricsBundle(
        scenario_id=scenario.scenario_id,
        components=components,
        composite=score,
        ade=float(displacements.mean()),
        min_ade=float(displacements.min()),
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


def fan_out(fn: Callable[[Any], Any], items: Sequence, jobs: int) -> list:
    """``[fn(item) for item in items]``, over ``min(jobs, len(items))`` worker processes.

    ``jobs <= 1`` or one item runs in this process.  The cap matters: with the
    ``fork`` start method every worker process starts at the first submit.
    ``evaluate`` hands out one scenario per item; ``rollout`` hands out one
    :func:`contiguous_chunks` run of scenarios per worker, which it rolls out
    in batches.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def contiguous_chunks(items: Sequence, weights: Sequence[float], parts: int) -> list[list]:
    """``items`` cut into ``min(parts, len(items))`` contiguous non-empty runs of near-equal weight.

    Each cut falls where the running weight comes nearest its share of the total.
    """
    parts = min(parts, len(items))
    running = np.concatenate([[0.0], np.cumsum(weights, dtype=float)])
    cuts = [0]
    for i in range(1, parts):
        lo, hi = cuts[-1] + 1, len(items) - parts + i  # leave each later run an item
        share = running[-1] * i / parts
        cuts.append(lo + int(np.argmin(np.abs(running[lo : hi + 1] - share))))
    cuts.append(len(items))
    return [list(items[a:b]) for a, b in zip(cuts, cuts[1:]) if b > a]


def _evaluate_one(args) -> MetricsBundle:
    scenario, rollouts, config = args
    return evaluate_scenario(scenario, rollouts, config)


def evaluate_dataset(
    pairs: Iterable[tuple[Scenario, ScenarioRollouts]],
    config: EvalConfig = DEFAULT_CONFIG,
    jobs: int = 1,
) -> tuple[list[MetricsBundle], DatasetSummary]:
    """Score many scenarios, across up to ``jobs`` worker processes (see :func:`fan_out`)."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no scenarios to evaluate")
    bundles = fan_out(_evaluate_one, [(s, r, config) for s, r in pairs], jobs)
    bundles.sort(key=lambda b: b.scenario_id)
    return bundles, summarize(bundles)
