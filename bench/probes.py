"""Span wrappers around each simreal layer, installed from outside the package.

Callers bind library functions by name (``from .harness import
generate_submission``), so each wrapper replaces the name in the module that
makes the call, e.g. ``simreal.cli.generate_submission`` or
``simreal.features.box_signed_distance_batch``.  ``Policy.step`` is timed
through a delegating proxy returned by a wrapped ``simreal.cli.create_policy``.
:func:`installed` restores every original on exit.

Worker processes inherit the wrappers through ``fork`` but their spans die
with them, so at ``jobs > 1`` the inside-worker layers must be read from a
second traced pass at ``jobs=1`` (see :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from spans import Tracer

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("synth.generate_s", "s", "lower"),
    ("harness.generate_submission_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.audit_trace_s", "s", "lower"),
    ("policies.step_s", "s", "lower"),
    ("policies.step_calls", "count", "lower"),
    ("policies.objects_stepped", "count", "lower"),
    ("io.read_scenario_dir_s", "s", "lower"),
    ("io.write_submission_s", "s", "lower"),
    ("io.read_submission_s", "s", "lower"),
    ("io.validate_submission_s", "s", "lower"),
    ("io.write_report_s", "s", "lower"),
    ("features.scene_states_s", "s", "lower"),
    ("features.extract_s", "s", "lower"),
    ("features.extract_calls", "count", "lower"),
    ("geometry.box_distance_s", "s", "lower"),
    ("geometry.box_pair_steps", "count", "lower"),
    ("geometry.box_disjoint_share", "ratio", "lower"),
    ("geometry.polyline_s", "s", "lower"),
    ("geometry.polyline_point_segments", "count", "lower"),
    ("estimators.rollout_features_s", "s", "lower"),
    ("estimators.dedup_ratio", "ratio", "lower"),
    ("estimators.extractions", "count", "lower"),
    ("estimators.rollouts_in", "count", "higher"),
    ("estimators.fit_s", "s", "lower"),
    ("estimators.fits", "count", "lower"),
    ("estimators.score_s", "s", "lower"),
    ("aggregation.displacement_s", "s", "lower"),
    ("aggregation.component_s", "s", "lower"),
    ("evaluate.scenario_s", "s", "lower"),
    ("evaluate.self_s", "s", "lower"),
    ("evaluate.pool_overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _timed(tracer: Tracer, name: str, fn: Callable, after: Callable | None = None):
    """``fn`` inside a span; ``after(args, result)`` records counts afterwards."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _policy_proxy_factory(tracer: Tracer, create_policy: Callable):
    from simreal.harness import Policy

    class TimedPolicy(Policy):
        """Delegates to the real policy; only ``step`` is timed and counted."""

        def __init__(self, inner: Policy):
            self.inner = inner

        def step(self, context, controlled_ids):
            with tracer.span("policies.step"):
                out = self.inner.step(context, controlled_ids)
            tracer.count("policies.step_calls")
            tracer.count("policies.objects_stepped", len(controlled_ids))
            return out

        def plan(self, context, controlled_ids, horizon):
            return self.inner.plan(context, controlled_ids, horizon)

    @functools.wraps(create_policy)
    def wrapper(*args, **kwargs):
        return TimedPolicy(create_policy(*args, **kwargs))

    return wrapper


def _timed_classmethod(tracer: Tracer, name: str, descriptor: classmethod) -> classmethod:
    fn = descriptor.__func__

    @functools.wraps(fn)
    def wrapper(cls, *args, **kwargs):
        with tracer.span(name):
            return fn(cls, *args, **kwargs)

    return classmethod(wrapper)


def _count_box(tracer: Tracer):
    def after(args, out):
        tracer.count("geometry.box_pair_steps", out.size)
        tracer.count("geometry.box_disjoint", int(np.count_nonzero(out >= 0.0)))

    return after


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every probed call site with spans recorded into ``tracer``."""
    import simreal.cli as cli
    import simreal.estimators as est
    import simreal.evaluate as ev
    import simreal.features as feat
    import simreal.io as sio

    def timed(module, attr, span, after=None):
        return module, attr, _timed(tracer, span, getattr(module, attr), after)

    patches = [
        timed(cli, "generate", "synth.generate"),
        timed(cli, "generate_submission", "harness.generate_submission"),
        timed(cli, "audit_trace", "harness.audit_trace"),
        (cli, "create_policy", _policy_proxy_factory(tracer, cli.create_policy)),
        timed(cli, "evaluate_dataset", "evaluate.dataset"),
        timed(sio, "read_scenario_dir", "io.read_scenario_dir"),
        timed(sio, "write_submission", "io.write_submission"),
        timed(sio, "read_submission", "io.read_submission"),
        timed(sio, "validate_submission", "io.validate_submission"),
        timed(sio, "write_report", "io.write_report"),
        timed(ev, "evaluate_scenario", "evaluate.scenario"),
        timed(ev, "extract_features", "features.extract"),
        timed(ev, "rollout_features", "estimators.rollout_features",
              lambda args, out: tracer.count("estimators.rollouts_in", len(args[1].rollouts))),
        timed(ev, "fit_metric_distribution", "estimators.fit"),
        timed(ev, "time_series_likelihood", "estimators.score"),
        timed(ev, "ade", "aggregation.displacement"),
        timed(ev, "min_ade", "aggregation.displacement"),
        timed(ev, "scenario_component", "aggregation.component"),
        timed(ev, "composite", "aggregation.component"),
        timed(est, "extract_features", "features.extract",
              lambda args, out: tracer.count("estimators.extractions")),
        timed(feat, "box_signed_distance_batch", "geometry.box_distance", _count_box(tracer)),
        timed(feat, "polyline_distance_batch", "geometry.polyline",
              lambda args, out: tracer.count(
                  "geometry.polyline_point_segments", len(args[0]) * len(args[1]))),
    ]
    for attr in ("from_logged_future", "from_rollout"):
        descriptor = feat.SceneStates.__dict__[attr]
        patches.append(
            (feat.SceneStates, attr,
             _timed_classmethod(tracer, "features.scene_states", descriptor))
        )

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(main: Tracer, serial: Tracer, jobs: int, untraced_pipeline_s: float,
                  traced_pipeline_s: float) -> dict[str, float]:
    """Per-layer figures from one traced pass (``main``, at the workload's jobs).

    ``serial`` is a traced pass at ``jobs=1``; inside-worker layers are read
    from it (it is ``main`` itself when the workload already runs at jobs=1).
    Every ``_s`` figure is summed over the pass; self times subtract direct
    child spans.  ``evaluate.pool_overhead_s`` is the ``evaluate_dataset``
    wall time minus the scenario time an ideal ``jobs``-way split would take.
    """
    c = serial.counts
    extractions = c["estimators.extractions"]
    rollouts_in = c["estimators.rollouts_in"]
    pair_steps = c["geometry.box_pair_steps"]
    return {
        "synth.generate_s": main.total("synth.generate"),
        "harness.generate_submission_s": serial.total("harness.generate_submission"),
        "harness.self_s": serial.self_time("harness.generate_submission"),
        "harness.audit_trace_s": serial.total("harness.audit_trace"),
        "policies.step_s": serial.total("policies.step"),
        "policies.step_calls": c["policies.step_calls"],
        "policies.objects_stepped": c["policies.objects_stepped"],
        "io.read_scenario_dir_s": main.total("io.read_scenario_dir"),
        "io.write_submission_s": main.total("io.write_submission"),
        "io.read_submission_s": main.total("io.read_submission"),
        "io.validate_submission_s": main.total("io.validate_submission"),
        "io.write_report_s": main.total("io.write_report"),
        "features.scene_states_s": serial.total("features.scene_states"),
        "features.extract_s": serial.self_time("features.extract"),
        "features.extract_calls": len(serial.durations("features.extract")),
        "geometry.box_distance_s": serial.total("geometry.box_distance"),
        "geometry.box_pair_steps": pair_steps,
        "geometry.box_disjoint_share": c["geometry.box_disjoint"] / pair_steps if pair_steps else 0.0,
        "geometry.polyline_s": serial.total("geometry.polyline"),
        "geometry.polyline_point_segments": c["geometry.polyline_point_segments"],
        "estimators.rollout_features_s": serial.total("estimators.rollout_features"),
        "estimators.dedup_ratio": extractions / rollouts_in if rollouts_in else 0.0,
        "estimators.extractions": extractions,
        "estimators.rollouts_in": rollouts_in,
        "estimators.fit_s": serial.total("estimators.fit"),
        "estimators.fits": len(serial.durations("estimators.fit")),
        "estimators.score_s": serial.total("estimators.score"),
        "aggregation.displacement_s": serial.total("aggregation.displacement"),
        "aggregation.component_s": serial.total("aggregation.component"),
        "evaluate.scenario_s": serial.total("evaluate.scenario"),
        "evaluate.self_s": serial.self_time("evaluate.scenario"),
        "evaluate.pool_overhead_s": (
            main.total("evaluate.dataset") - serial.total("evaluate.scenario") / jobs
        ),
        "trace.overhead_s": traced_pipeline_s - untraced_pipeline_s,
    }
