"""One tiny end-to-end pass (2 agents, k=2) through the benchmark's code."""

from dataclasses import replace

import probes
import run
from spans import Tracer

TINY = run.Workload("tiny", "straight_road", 1, 2, "constant-velocity", 1, k=2)


def test_tiny_pass_traced_matches_untraced(tmp_path):
    import simreal.cli

    original = simreal.cli.generate_submission
    outcome = run.Outcome()
    pipe = run.Pipeline(TINY, 0, tmp_path, outcome)
    pipe.synth(Tracer())
    plain = pipe.run_pass(Tracer(), jobs=1)
    traced = Tracer()
    with probes.installed(traced):
        again = pipe.run_pass(traced, jobs=1)

    assert outcome.correct, outcome.problems
    assert outcome.attempted == 7  # synth, then two passes of three stages
    assert again == plain
    assert simreal.cli.generate_submission is original

    metrics = probes.layer_metrics(traced, traced, 1, 0.0, 0.0)
    assert set(metrics) == {name for name, _, _ in probes.LAYER_METRICS}
    # 2 rollouts x 80 steps, AV and environment policy each stepped once.
    assert metrics["policies.step_calls"] == 320
    assert metrics["policies.objects_stepped"] == 320
    # Constant velocity repeats the rollout: one extraction for two rollouts.
    assert (metrics["estimators.extractions"], metrics["estimators.rollouts_in"]) == (1, 2)
    assert metrics["estimators.dedup_ratio"] == 0.5
    # One box pair, 80 steps, for the logged scene and the one extraction.
    assert metrics["features.extract_calls"] == 2
    assert metrics["geometry.box_pair_steps"] == 160
    assert metrics["harness.self_s"] < metrics["harness.generate_submission_s"]


def test_measure_and_trace_report_every_metric(tmp_path):
    measured = run.measure(TINY, 0, 0.0, tmp_path / "measure")
    assert measured.correct, measured.problems
    assert list(measured.metrics) == [name for name, _ in run.END_TO_END]
    assert all(value > 0 for value, _ in measured.metrics.values())
    assert measured.info["inputs"]["scored_object_steps"] == 2 * 2 * 80

    pooled = replace(TINY, template="all", count=2, agents=None, jobs=2)
    traced = run.trace(pooled, 0, tmp_path / "trace")
    assert traced.correct, traced.problems
    assert traced.metrics["estimators.rollouts_in"][0] == 4
    assert traced.metrics["policies.step_calls"][0] > 0


def test_disagreeing_passes_are_incorrect():
    outcome = run.Outcome()
    run.check_passes(outcome, TINY, 0, [((0.5, 1.0, 0.9), "a"), ((0.5, 1.0, 0.8), "a")])
    assert not outcome.correct

    outcome = run.Outcome()
    dense = run.WORKLOADS["dense_cv"]
    run.check_passes(outcome, dense, 0, [((0.5, 1.0, 1.0), "a")])
    assert any("reference" in p for p in outcome.problems)


def test_failed_stages_are_counted_and_later_stages_still_run(tmp_path):
    outcome = run.Outcome()
    pipe = run.Pipeline(replace(TINY, policy="no-such-policy"), 0, tmp_path, outcome)
    pipe.synth(Tracer())
    assert pipe.run_pass(Tracer(), jobs=1) is None
    # rollout rejects the policy, so validate and evaluate find no archive.
    assert (outcome.attempted, outcome.failed) == (4, 3)
    assert not outcome.correct
