"""Evaluation configuration: weights, histogram specs, and feature thresholds.

Everything the scoring pipeline leaves open as a convention lives in one
versioned document so that reports can echo the exact parameters they were
produced under.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
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
        "version": CONFIG_VERSION,
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
        "features": asdict(config.features),
        "object_aggregation": config.object_aggregation,
        "per_object_histograms": config.per_object_histograms,
    }


def _object(value, what: str, keys=None) -> Mapping[str, Any]:
    """``value`` as a JSON object, holding only ``keys`` when they are given."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(keys)}")
    return value


_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               bool: (bool, "true or false"), str: (str, "a string")}


def _typed(value, kind, what: str):
    """``value`` as ``kind`` when it has that JSON type, else TypeError.

    A JSON integer is a number; true and false are neither numbers nor integers.
    """
    accepted, name = _JSON_TYPES[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{what} must be {name}, got {value!r}")
    return kind(value)


_TOP_KEYS = ("version", "weights", "histograms", "features", "object_aggregation",
             "per_object_histograms")
_HISTOGRAM_KEYS = ("min", "max", "bins", "pseudocount")
_FEATURE_KEYS = tuple(f.name for f in fields(FeatureParams))


def config_from_dict(data: Mapping[str, Any], path: str | None = None) -> EvalConfig:
    """Parse a config document; an unknown key or metric, a value of the wrong
    JSON type, another version or a bad value raises ParseError."""
    try:
        data = _object(data, "the config", _TOP_KEYS)
        version = _typed(data.get("version", CONFIG_VERSION), int, "version")
        if version != CONFIG_VERSION:
            raise ValueError(f"version must be {CONFIG_VERSION}, got {version}")
        defaults = EvalConfig()

        weights = defaults.weights
        if "weights" in data:
            raw = _object(data["weights"], "weights")
            missing = [m.value for m in MetricKind if m.value not in raw]
            if missing:  # reports echo every metric's weight
                raise ValueError(f"weights has no value for {', '.join(missing)}")
            weights = MetricWeights({MetricKind(name): _typed(w, float, f"weights.{name}")
                                     for name, w in raw.items()})

        histograms = dict(defaults.histograms)
        for name, h in _object(data.get("histograms", {}), "histograms").items():
            metric = MetricKind(name)
            h = _object(h, f"histograms.{name}", _HISTOGRAM_KEYS)
            histograms[metric] = HistogramSpec(
                metric=metric,
                min_value=_typed(h["min"], float, f"histograms.{name}.min"),
                max_value=_typed(h["max"], float, f"histograms.{name}.max"),
                bins=_typed(h["bins"], int, f"histograms.{name}.bins"),
                pseudocount=_typed(h.get("pseudocount", 0.1), float,
                                   f"histograms.{name}.pseudocount"),
            )

        f = _object(data.get("features", {}), "features", _FEATURE_KEYS)
        feats = replace(defaults.features, **{
            key: _typed(value, float, f"features.{key}") for key, value in f.items()
        })

        return EvalConfig(
            weights=weights,
            histograms=histograms,
            features=feats,
            object_aggregation=_typed(data.get("object_aggregation", "log_mean"), str,
                                      "object_aggregation"),
            per_object_histograms=_typed(data.get("per_object_histograms", True), bool,
                                         "per_object_histograms"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad evaluation config: {exc}", path=path) from exc
