"""Evaluation configuration: weights, histogram specs, and feature thresholds.

Everything the scoring pipeline leaves open as a convention lives in one
versioned document so that reports can echo the exact parameters they were
produced under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .aggregation import OBJECT_AGGREGATIONS, MetricWeights
from .errors import ParseError
from .estimators import DEFAULT_HISTOGRAM_SPECS, HistogramSpec
from .features import BOOLEAN_METRICS, FeatureParams, MetricKind

CONFIG_VERSION = 1


@dataclass(frozen=True)
class EvalConfig:
    weights: MetricWeights = field(default_factory=MetricWeights.default)
    histograms: Mapping[MetricKind, HistogramSpec] = field(
        default_factory=lambda: dict(DEFAULT_HISTOGRAM_SPECS)
    )
    features: FeatureParams = field(default_factory=FeatureParams)
    object_aggregation: str = "log_mean"
    per_object_histograms: bool = True
    version: int = CONFIG_VERSION

    def __post_init__(self):
        if self.object_aggregation not in OBJECT_AGGREGATIONS:
            raise ValueError(f"object_aggregation must be one of {OBJECT_AGGREGATIONS}")
        missing = set(MetricKind) - set(self.histograms)
        if missing:
            names = ", ".join(sorted(m.value for m in missing))
            raise ValueError(f"histogram specs missing for: {names}")
        for metric in sorted(BOOLEAN_METRICS, key=lambda m: m.value):
            spec = self.histograms[metric]
            if (spec.min_value, spec.max_value, spec.bins) != (0.0, 1.0, 2):
                raise ValueError(
                    f"{metric.value} counts one event per rollout: its histogram must "
                    f"span [0, 1] with 2 bins, got [{spec.min_value}, {spec.max_value}] "
                    f"with {spec.bins}"
                )


DEFAULT_CONFIG = EvalConfig()


def config_to_dict(config: EvalConfig) -> dict[str, Any]:
    """JSON-ready form of a config; weights keep full float precision."""
    return {
        "version": config.version,
        "weights": {m.value: config.weights[m] for m in MetricKind},
        "histograms": {
            m.value: {
                "min": spec.min_value,
                "max": spec.max_value,
                "bins": spec.bins,
                "pseudocount": spec.pseudocount,
            }
            for m, spec in config.histograms.items()
        },
        "features": {
            "ttc_max": config.features.ttc_max,
            "ttc_heading_threshold": config.features.ttc_heading_threshold,
            "ttc_min_lateral": config.features.ttc_min_lateral,
            "ttc_closing_eps": config.features.ttc_closing_eps,
        },
        "object_aggregation": config.object_aggregation,
        "per_object_histograms": config.per_object_histograms,
    }


def _object(value, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def config_from_dict(data: Mapping[str, Any], path: str | None = None) -> EvalConfig:
    """Parse a config document; unknown metrics or bad shapes raise ParseError."""
    try:
        data = _object(data, "the config")
        version = int(data.get("version", CONFIG_VERSION))
        defaults = EvalConfig()

        weights = defaults.weights
        if "weights" in data:
            raw = _object(data["weights"], "weights")
            weights = MetricWeights({MetricKind(name): float(w) for name, w in raw.items()})

        histograms = dict(defaults.histograms)
        for name, h in _object(data.get("histograms", {}), "histograms").items():
            metric = MetricKind(name)
            histograms[metric] = HistogramSpec(
                metric=metric,
                min_value=float(h["min"]),
                max_value=float(h["max"]),
                bins=int(h["bins"]),
                pseudocount=float(h.get("pseudocount", 0.1)),
            )

        feats = defaults.features
        if "features" in data:
            f = _object(data["features"], "features")
            feats = FeatureParams(
                ttc_max=float(f.get("ttc_max", feats.ttc_max)),
                ttc_heading_threshold=float(
                    f.get("ttc_heading_threshold", feats.ttc_heading_threshold)
                ),
                ttc_min_lateral=float(f.get("ttc_min_lateral", feats.ttc_min_lateral)),
                ttc_closing_eps=float(f.get("ttc_closing_eps", feats.ttc_closing_eps)),
            )

        return EvalConfig(
            weights=weights,
            histograms=histograms,
            features=feats,
            object_aggregation=str(data.get("object_aggregation", "log_mean")),
            per_object_histograms=bool(data.get("per_object_histograms", True)),
            version=version,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad evaluation config: {exc}", path=path) from exc
