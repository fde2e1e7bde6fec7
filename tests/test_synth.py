from __future__ import annotations

import numpy as np
import pytest

from simreal.features import (
    BOOLEAN_METRICS,
    FeatureSeries,
    MetricKind,
    SceneStates,
    extract_features,
)
from simreal.scene import simulated_object_ids, strip_late_spawns
from simreal.synth import SynthSpec, Template, generate, make_suite

KINEMATIC = {
    MetricKind.LINEAR_SPEED,
    MetricKind.LINEAR_ACCEL,
    MetricKind.ANGULAR_SPEED,
    MetricKind.ANGULAR_ACCEL,
}


def _extracted(synth):
    """Extracted logged features, as series keyed by metric and object id."""
    states = SceneStates.from_logged_future(synth.scenario)
    return {
        metric: {
            oid: FeatureSeries(oid, metric, values[row], valid[row])
            for row, oid in enumerate(states.ids)
        }
        for metric, (values, valid) in extract_features(
            states, synth.scenario.map_features
        ).items()
    }


@pytest.mark.parametrize("template", list(Template))
@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_features_reproduce_fixtures(template, noise):
    synth = generate(SynthSpec(template, seed=3, noise_level=noise))
    feats = _extracted(synth)
    checked = 0
    for oid, per_metric in synth.fixtures.items():
        for metric, fixture in per_metric.items():
            got = feats[metric][oid]
            np.testing.assert_array_equal(
                got.valid, fixture.valid,
                err_msg=f"{template.value} {metric.value} object {oid}: validity mask",
            )
            tol = 1e-9 if metric in KINEMATIC or metric in BOOLEAN_METRICS else 1e-6
            mask = fixture.valid
            np.testing.assert_allclose(
                got.values[mask], fixture.values[mask], atol=tol, rtol=0.0,
                err_msg=f"{template.value} {metric.value} object {oid}",
            )
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("template", list(Template))
def test_deterministic_in_template_and_seed(template):
    a = generate(SynthSpec(template, seed=9, noise_level=0.4))
    b = generate(SynthSpec(template, seed=9, noise_level=0.4))
    assert a.scenario == b.scenario
    c = generate(SynthSpec(template, seed=10, noise_level=0.4))
    tracks_a = [t.poses[:, :2].tolist() for t in a.scenario.tracks]
    tracks_c = [t.poses[:, :2].tolist() for t in c.scenario.tracks]
    assert tracks_a != tracks_c


@pytest.mark.parametrize("template", list(Template))
def test_strip_late_spawns_is_identity(template):
    scenario = generate(SynthSpec(template, seed=2)).scenario
    assert strip_late_spawns(scenario) is scenario
    simulated_object_ids(scenario)  # must not raise


def test_collision_course_fixture_flags_collision():
    synth = generate(SynthSpec(Template.COLLISION_COURSE, seed=0))
    for oid in (0, 1):
        assert synth.fixtures[oid][MetricKind.COLLISION].values[0] == 1.0


def test_offroad_drift_fixture_flags_drifter_only():
    synth = generate(SynthSpec(Template.OFFROAD_DRIFT, seed=0))
    assert synth.fixtures[1][MetricKind.OFFROAD].values[0] == 1.0
    assert synth.fixtures[0][MetricKind.OFFROAD].values[0] == 0.0


def test_curved_road_angular_speed_fixture_value():
    synth = generate(SynthSpec(Template.CURVED_ROAD, seed=0))
    series = synth.fixtures[0][MetricKind.ANGULAR_SPEED]
    assert np.allclose(series.values[series.valid], 0.2)


def test_heading_wrap_occurs_in_curved_template():
    scenario = generate(SynthSpec(Template.CURVED_ROAD, seed=0)).scenario
    headings = scenario.tracks[0].poses[:, 3].tolist()
    jumps = np.abs(np.diff(headings))
    assert jumps.max() > 5.0  # raw stored headings wrap through 2*pi


def test_extra_agents_appended():
    synth = generate(SynthSpec(Template.FOLLOWING_PAIR, agent_count=5, seed=0))
    assert len(synth.scenario.tracks) == 5


def test_agent_count_minimum_enforced():
    with pytest.raises(ValueError):
        SynthSpec(Template.COLLISION_COURSE, agent_count=1)


def test_make_suite_covers_all_templates():
    suite = make_suite(count=12, base_seed=0, noise_level=0.2)
    assert len(suite) == 12
    templates = {s.scenario.scenario_id.split("-s")[0] for s in suite}
    assert templates == {t.value for t in Template}
