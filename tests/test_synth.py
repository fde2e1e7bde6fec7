from __future__ import annotations

import numpy as np
import pytest

from simreal.features import BOOLEAN_METRICS, MetricKind, SceneStates, extract_features
from simreal.scene import MAX_SIMULATED_OBJECTS, simulated_object_ids, strip_late_spawns
from simreal.synth import SynthSpec, Template, generate, suite_specs

KINEMATIC = {
    MetricKind.LINEAR_SPEED,
    MetricKind.LINEAR_ACCEL,
    MetricKind.ANGULAR_SPEED,
    MetricKind.ANGULAR_ACCEL,
}


@pytest.mark.parametrize("template", list(Template))
@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_features_reproduce_fixtures(template, noise):
    synth = generate(SynthSpec(template, seed=3, noise_level=noise))
    states = SceneStates.from_logged_future(synth.scenario)
    assert list(states.ids) == sorted(synth.scenario.tracks.ids.tolist())
    feats = extract_features(states, synth.scenario.map_features)
    assert len(synth.fixtures) >= 6
    for metric, (values, valid) in synth.fixtures.items():
        got_values, got_valid = (series[0] for series in feats[metric])
        assert values.shape == valid.shape == got_valid.shape
        np.testing.assert_array_equal(
            got_valid, valid, err_msg=f"{template.value} {metric.value}: validity mask"
        )
        tol = 1e-9 if metric in KINEMATIC or metric in BOOLEAN_METRICS else 1e-6
        np.testing.assert_allclose(
            got_values[valid], values[valid], atol=tol, rtol=0.0,
            err_msg=f"{template.value} {metric.value}",
        )


@pytest.mark.parametrize("template", list(Template))
def test_deterministic_in_template_and_seed(template):
    a = generate(SynthSpec(template, seed=9, noise_level=0.4))
    b = generate(SynthSpec(template, seed=9, noise_level=0.4))
    assert a.scenario == b.scenario
    c = generate(SynthSpec(template, seed=10, noise_level=0.4))
    assert not np.array_equal(a.scenario.tracks.poses[..., :2], c.scenario.tracks.poses[..., :2])


@pytest.mark.parametrize("template", list(Template))
def test_strip_late_spawns_is_identity(template):
    scenario = generate(SynthSpec(template, seed=2)).scenario
    assert strip_late_spawns(scenario) is scenario
    simulated_object_ids(scenario)  # must not raise


def test_collision_course_fixture_flags_collision():
    synth = generate(SynthSpec(Template.COLLISION_COURSE, seed=0))
    values, _ = synth.fixtures[MetricKind.COLLISION]  # rows are object ids 0 and 1
    assert np.all(values[[0, 1], 0] == 1.0)


def test_offroad_drift_fixture_flags_drifter_only():
    synth = generate(SynthSpec(Template.OFFROAD_DRIFT, seed=0))
    values, _ = synth.fixtures[MetricKind.OFFROAD]  # rows are object ids 0 and 1
    assert values[1, 0] == 1.0
    assert values[0, 0] == 0.0


def test_curved_road_angular_speed_fixture_value():
    synth = generate(SynthSpec(Template.CURVED_ROAD, seed=0))
    values, valid = synth.fixtures[MetricKind.ANGULAR_SPEED]
    assert np.allclose(values[0][valid[0]], 0.2)


def test_heading_wrap_occurs_in_curved_template():
    scenario = generate(SynthSpec(Template.CURVED_ROAD, seed=0)).scenario
    heading = scenario.tracks.poses[0, :, 3].tolist()
    jumps = np.abs(np.diff(heading))
    assert jumps.max() > 5.0  # stored heading values wrap through 2*pi


def test_extra_agents_appended():
    synth = generate(SynthSpec(Template.FOLLOWING_PAIR, agent_count=5, seed=0))
    assert len(synth.scenario.tracks) == 5


def test_agent_count_minimum_enforced():
    with pytest.raises(ValueError):
        SynthSpec(Template.COLLISION_COURSE, agent_count=1)


@pytest.mark.parametrize("template, most", [
    (Template.CURVED_ROAD, 42),
    *((t, MAX_SIMULATED_OBJECTS) for t in Template if t is not Template.CURVED_ROAD),
])
def test_agent_count_maximum_enforced(template, most):
    # The largest count keeps every construction guarantee at the noise extremes.
    for noise in (0.0, 0.5):
        synth = generate(SynthSpec(template, most, seed=1, noise_level=noise))
        assert len(synth.scenario.tracks) == most
    with pytest.raises(ValueError, match=f"agent count {most + 1}: {template.value} holds at most"):
        SynthSpec(template, most + 1)


def test_suite_specs_cover_all_templates():
    specs = suite_specs(list(Template), 12, seed=0, noise_level=0.2)
    assert len(specs) == 12
    assert [spec.template for spec in specs] == list(Template) * 2
    assert [spec.seed for spec in specs] == list(range(12))
    suite = [generate(spec) for spec in specs]
    templates = {s.scenario.scenario_id.split("-s")[0] for s in suite}
    assert templates == {t.value for t in Template}


def test_suite_specs_check_every_spec_first():
    with pytest.raises(ValueError, match="agent count 1: following_pair needs >= 2 agents"):
        suite_specs([Template.STRAIGHT_ROAD, Template.FOLLOWING_PAIR], 3, agent_count=1)
