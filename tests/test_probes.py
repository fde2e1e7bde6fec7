"""The benchmark still finds every library name it uses.

``bench/probes.py`` replaces library names by attribute, and ``bench/run.py``
reads the synthesized scenario set through the library, so renaming one of
those names breaks the benchmark; these tests make it break tier-1 too.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import probes  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

import simreal.cli  # noqa: E402
import simreal.estimators  # noqa: E402
import simreal.evaluate  # noqa: E402
import simreal.features  # noqa: E402
from simreal.harness import generate_submission  # noqa: E402
from simreal.policies import POLICY_REGISTRY, create_policy  # noqa: E402
from simreal.synth import SynthSpec, Template, generate  # noqa: E402

#: (owner, name) of the probed call sites evaluation goes through.
PROBED = [
    (simreal.evaluate, "extract_features"),
    (simreal.estimators, "extract_features"),
    (simreal.features, "polyline_distance_batch"),
    (simreal.features, "box_signed_distance_batch"),
    (simreal.features.SceneStates, "from_logged_future"),
    (simreal.features.SceneStates, "from_rollout"),
]


def test_probes_wrap_evaluation_and_restore_the_originals():
    scenario = generate(SynthSpec(Template.FOLLOWING_PAIR, seed=0)).scenario
    rollouts = generate_submission(
        scenario, create_policy("constant-velocity", scenario),
        create_policy("constant-velocity", scenario), k=2, base_seed=0,
    )
    originals = [owner.__dict__[name] for owner, name in PROBED]

    tracer = Tracer()
    with probes.installed(tracer):
        assert all(owner.__dict__[name] is not orig
                   for (owner, name), orig in zip(PROBED, originals))
        simreal.evaluate.evaluate_scenario(scenario, rollouts)

    assert [owner.__dict__[name] for owner, name in PROBED] == originals
    # One extraction: the logged scene stacked with the one distinct rollout.
    assert len(tracer.durations("features.extract")) == 1
    assert len(tracer.durations("features.scene_states")) == 1
    assert tracer.counts["estimators.extractions"] == 1
    assert tracer.counts["estimators.rollouts_in"] == 2
    assert tracer.durations("geometry.box_distance")
    assert tracer.durations("geometry.polyline")
    # The map has no road-edge grid, so every corner of every valid slot is
    # counted against every segment: the no-grid path still goes through the probe.
    edges = simreal.features._road_edge_segments(scenario.map_features)
    assert edges.size == 0
    slots = (simreal.features.SceneStates.from_logged_future(scenario).valid.sum()
             + rollouts.rollouts[0, ..., 0].size)
    assert tracer.counts["geometry.polyline_point_segments"] == 4 * slots * len(edges.starts)


@pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
def test_probed_policies_hold_plans_as_the_policies_do(name):
    # Above interval 1 the rollout loop calls ``plan`` on the benchmark's policy proxy.
    scenario = generate(SynthSpec(Template.FOLLOWING_PAIR, seed=0)).scenario

    def submission():
        return simreal.cli.generate_submission(
            scenario, simreal.cli.create_policy(name, scenario),
            simreal.cli.create_policy(name, scenario), k=2, base_seed=0, replan_interval=3,
        ).rollouts.tobytes()

    plain = submission()
    tracer = Tracer()
    with probes.installed(tracer):
        assert submission() == plain
    assert len(tracer.durations("harness.generate_submission")) == 1
    if name != "noisy-plan":  # the probe times ``step`` only, and noisy-plan holds plans
        # A policy with no plan is stepped at every step: two policies, 80 steps.
        assert tracer.counts["policies.step_calls"] == 160


def test_bench_pipeline_reads_the_scenario_set_it_synthesizes(tmp_path):
    workload = replace(run.WORKLOADS["dense_noisy"], agents=2)
    outcome = run.Outcome()
    pipe = run.Pipeline(workload, 0, tmp_path, outcome)
    pipe.synth(Tracer())
    assert outcome.correct, outcome.problems
    inputs = pipe.inputs()
    assert (inputs["scenarios"], inputs["agents"], inputs["simulated_objects"]) == (1, 2, 2)
    assert inputs["scored_object_steps"] == 2 * 80 * workload.k
