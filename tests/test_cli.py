from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simreal.cli
import simreal.evaluate
from simreal.cli import main
from simreal.config import DEFAULT_CONFIG, config_to_dict
from simreal.harness import AuditReport
from simreal.policies import POLICY_REGISTRY
from simreal.io import (
    encode_rollouts,
    match_scenarios,
    read_report,
    read_scenario_dir,
    read_submission,
    write_submission,
)
from simreal.scene import ScenarioRollouts
from simreal.synth import Template


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> rollout (cv + oracle) once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    scenarios = root / "scenarios"
    assert main([
        "synth", "--template", "all", "--count", "6", "--seed", "0",
        "--noise", "0.2", "--out", str(scenarios),
    ]) == 0
    archives = {}
    for policy in ("constant-velocity", "logged-oracle"):
        out = root / f"{policy}.tar.gz"
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", policy, "--av-policy", policy,
            "--k", "32", "--seed", "0", "--jobs", "1", "--out", str(out),
        ]) == 0
        archives[policy] = out
    return root, scenarios, archives


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


#: One non-finite number in a following_pair scenario document, by where it sits.
NON_FINITE_EDITS = {
    "timestep": lambda doc: _set_path(doc, ["timestep"], "nan"),
    "road-edge-point": lambda doc: _set_path(doc, ["map_features", 0, "polyline", 0, 1], "nan"),
    "valid-pose": lambda doc: _set_path(doc, ["tracks", 1, "states", 50, "x"], "nan"),
}


class TestSynth:
    def test_writes_scenarios_and_fixtures(self, workspace):
        _, scenarios, _ = workspace
        loaded = read_scenario_dir(scenarios)
        assert len(loaded) == 6
        assert len(list(scenarios.glob("*.fixtures.json"))) == 6
        manifest = json.loads((scenarios / "synth_manifest.json").read_text())
        assert manifest["seed"] == 0

    def test_deterministic_given_seed(self, workspace, tmp_path):
        _, scenarios, _ = workspace
        again = tmp_path / "again"
        assert main([
            "synth", "--template", "all", "--count", "6", "--seed", "0",
            "--noise", "0.2", "--out", str(again),
        ]) == 0
        for path in sorted(scenarios.glob("*.json")):
            assert (again / path.name).read_text() == path.read_text()


    @pytest.mark.parametrize("argv, named", [
        (["--agents", "0"], "agent count 0"),
        (["--agents", "-3"], "agent count -3"),
        (["--template", "following_pair", "--agents", "1"], "agent count 1"),
        (["--template", "all", "--agents", "1"], "agent count 1"),
        (["--seed", "-1"], "seed -1"),
        (["--count", "0"], "--count"),
        (["--count", "-2"], "--count"),
        (["--noise", "nan"], "noise level"),
    ])
    def test_bad_option_exits_two_without_files(self, tmp_path, capsys, argv, named):
        out = tmp_path / "scenarios"
        assert main(["synth", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not out.exists()

    def test_non_empty_out_exits_two_without_files(self, tmp_path, capsys):
        out = tmp_path / "s"
        argv = ["synth", "--template", "straight_road", "--out", str(out)]
        assert main([*argv, "--count", "2", "--seed", "0"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main([*argv, "--count", "1", "--seed", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "already holds scenario files" in err[0], err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_existing_out_without_scenario_files_is_used(self, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["synth", "--template", "straight_road", "--count", "1",
                     "--out", str(out)]) == 0
        assert len(read_scenario_dir(out)) == 1

    @pytest.mark.parametrize("template", ["curved_road", "all"])
    def test_more_agents_than_the_template_holds_exits_two_without_files(
        self, tmp_path, capsys, template
    ):
        # Curved-road lane slots sit 0.3 rad apart, so a lane's 22nd slot comes
        # round onto its first: 43 agents used to raise RuntimeError.
        out = tmp_path / "scenarios"
        argv = ["synth", "--template", template, "--agents", "43", "--noise", "0.2"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "agent count 43" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("noise, applied", [
        ("inf", 0.5), ("9", 0.5), ("-1", 0.0), ("-inf", 0.0), ("0.3", 0.3),
    ])
    def test_manifest_records_the_applied_noise_as_strict_json(self, tmp_path, noise, applied):
        out = tmp_path / "scenarios"
        assert main(["synth", "--template", "following_pair", "--count", "1",
                     f"--noise={noise}", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        text = (out / "synth_manifest.json").read_text()
        assert json.loads(text, parse_constant=reject)["noise"] == applied

    @settings(max_examples=25, deadline=None)
    @given(
        template=st.sampled_from(["all"] + [t.value for t in Template]),
        count=st.integers(-2, 2),
        agents=st.none() | st.integers(-3, 129),
        seed=st.integers(-1, 3) | st.just(2**64),
        noise=st.sampled_from(["0", "0.3", "-1", "9", "nan", "inf", "-inf"]),
        fmt=st.sampled_from(["json", "binary"]),
    )
    @example(template="following_pair", count=1, agents=1, seed=0, noise="0", fmt="json")
    @example(template="straight_road", count=0, agents=None, seed=0, noise="nan", fmt="json")
    @example(template="curved_road", count=1, agents=43, seed=0, noise="0.2", fmt="json")
    @example(template="straight_road", count=1, agents=129, seed=0, noise="0", fmt="binary")
    def test_never_raises(self, template, count, agents, seed, noise, fmt):
        argv = ["synth", f"--template={template}", f"--count={count}", f"--seed={seed}",
                f"--noise={noise}", f"--format={fmt}"]
        if agents is not None:
            argv.append(f"--agents={agents}")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "scenarios"
            code = main([*argv, f"--out={out}"])
            assert code in (0, 2)
            assert out.exists() == (code == 0)


class TestRolloutAndValidate:
    def test_archive_validates_clean(self, workspace):
        _, scenarios, archives = workspace
        for archive in archives.values():
            assert main([
                "validate", "--archive", str(archive), "--scenarios", str(scenarios),
            ]) == 0

    def test_manifest_echoes_seed_and_policy(self, workspace):
        _, _, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        assert archive.manifest["seed"] == 0
        assert archive.manifest["env_policy"] == "constant-velocity"
        assert archive.manifest["replan_interval"] == 1

    def test_determinism_given_seed(self, workspace, tmp_path):
        _, scenarios, archives = workspace
        out = tmp_path / "again.tar.gz"
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", "constant-velocity", "--av-policy", "constant-velocity",
            "--k", "32", "--seed", "0", "--jobs", "1", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == archives["constant-velocity"].read_bytes()

    def test_validation_failure_exits_one(self, workspace, tmp_path):
        root, scenarios, archives = workspace
        assert main([
            "validate", "--archive", str(archives["constant-velocity"]),
            "--scenarios", str(scenarios), "--expected-rollouts", "31",
        ]) == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_expected_rollouts_below_one_is_refused(self, workspace, capsys, count):
        # No archive can hold fewer than one rollout per scenario, so the option
        # is refused (exit 2), not reported as one BAD_ROLLOUT_COUNT a scenario.
        _, scenarios, archives = workspace
        capsys.readouterr()
        assert main([
            "validate", "--archive", str(archives["constant-velocity"]),
            "--scenarios", str(scenarios), f"--expected-rollouts={count}",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --expected-rollouts must be >= 1, got {count}\n"

    def test_failed_audit_exits_one_without_archive(self, workspace, tmp_path, monkeypatch,
                                                    capsys):
        _, scenarios, _ = workspace
        failing = AuditReport(ok=False, issues=("forged",))
        monkeypatch.setattr(simreal.cli, "audit_trace", lambda *args, **kwargs: failing)
        out = tmp_path / "audited.tar.gz"
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", "constant-velocity", "--av-policy", "constant-velocity",
            "--k", "2", "--seed", "0", "--jobs", "1", "--out", str(out),
        ]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert "AUDIT FAILED" in captured.out
        assert "no archive written" in captured.err

    def test_replan_interval_flags_hybrid(self, workspace, tmp_path, capsys):
        _, scenarios, _ = workspace
        tags = {}
        for interval in (5, 1):
            capsys.readouterr()
            assert main([
                "rollout", "--scenarios", str(scenarios),
                "--env-policy", "constant-velocity", "--av-policy", "constant-velocity",
                "--k", "2", "--seed", "0", "--replan-interval", str(interval),
                "--jobs", "1", "--out", str(tmp_path / f"replan{interval}.tar.gz"),
            ]) == 0
            tags[interval] = capsys.readouterr().out.splitlines()[:-1]  # one line per scenario
        assert len(tags[5]) == 6
        assert all(line.endswith("audit ok, hybrid (replan=5)") for line in tags[5])
        assert all(line.endswith("audit ok, closed-loop (replan=1)") for line in tags[1])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_box_extent_exits_two_without_archive(
        self, workspace, tmp_path, capsys, value
    ):
        _, scenarios, _ = workspace
        bad = tmp_path / "scenarios"
        bad.mkdir()
        source = sorted(scenarios.glob("*-s0000.json"))[0]
        doc = json.loads(source.read_text())
        doc["tracks"][0]["length"] = value
        (bad / source.name).write_text(json.dumps(doc))
        out = tmp_path / "bad.tar.gz"
        capsys.readouterr()
        assert main([
            "rollout", "--scenarios", str(bad),
            "--env-policy", "constant-velocity", "--av-policy", "constant-velocity",
            "--k", "2", "--seed", "0", "--jobs", "1", "--out", str(out),
        ]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("k,seed", [(2, -1), (2, 2**64 - 1), (0, 0)])
    def test_bad_seed_or_k_exits_two_without_archive(self, workspace, tmp_path, capsys, k, seed):
        _, scenarios, _ = workspace
        out = tmp_path / "bad.tar.gz"
        capsys.readouterr()
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", "noisy-plan", "--av-policy", "noisy-plan",
            "--k", str(k), "--seed", str(seed), "--jobs", "1", "--out", str(out),
        ]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err

    @pytest.mark.parametrize(
        "policy,flags",
        [
            ("constant-velocity", ["--env-opt", "foo"]),
            ("constant-velocity", ["--av-opt", "speed_sigma"]),
            ("random", ["--env-opt", "sigma=abc"]),
            ("noisy-plan", ["--env-opt", "speed_sigma=nan"]),
            ("noisy-plan", ["--av-opt", "heading_sigma=-1"]),
            ("random", ["--env-opt", "mu=inf"]),
            ("noisy-plan", ["--env-opt", "speed_sgima=5"]),
            ("constant-velocity", ["--av-opt", "speed_sigma=1"]),
        ],
    )
    def test_bad_policy_option_exits_two_without_archive(
        self, workspace, tmp_path, capsys, policy, flags
    ):
        _, scenarios, _ = workspace
        out = tmp_path / "bad.tar.gz"
        capsys.readouterr()
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", policy, "--av-policy", policy, *flags,
            "--k", "2", "--seed", "0", "--jobs", "1", "--out", str(out),
        ]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("interval", ["0", "-3"])
    def test_replan_interval_below_one_exits_two_without_archive(
        self, workspace, tmp_path, capsys, interval
    ):
        _, scenarios, _ = workspace
        out = tmp_path / "bad.tar.gz"
        capsys.readouterr()
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", "noisy-plan", "--av-policy", "noisy-plan",
            "--replan-interval", interval,
            "--k", "2", "--seed", "0", "--jobs", "1", "--out", str(out),
        ]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--replan-interval" in err

    @pytest.mark.parametrize("policy,option", [
        ("noisy-plan", "heading_sigma=1e308"),  # an infinite heading
        ("noisy-plan", "speed_sigma=1e200"),  # finite poses past the coordinate limit
        ("random", "mu=1e308"),
        ("random", "sigma=1e308"),
    ])
    def test_overflowing_policy_option_exits_three_without_archive(
        self, workspace, tmp_path, capsys, policy, option
    ):
        _, scenarios, _ = workspace
        out = tmp_path / "bad.tar.gz"
        capsys.readouterr()
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", policy, "--av-policy", "constant-velocity", "--env-opt", option,
            "--k", "2", "--seed", "0", "--jobs", "1", "--out", str(out),
        ]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("policy contract violation: ")

    @pytest.mark.parametrize("command", ["rollout", "evaluate"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two_without_output(
        self, workspace, tmp_path, capsys, command, jobs
    ):
        _, scenarios, archives = workspace
        out = tmp_path / "out"
        argv = {
            "rollout": ["--env-policy", "noisy-plan", "--av-policy", "noisy-plan", "--k", "2"],
            "evaluate": ["--archive", str(archives["constant-velocity"])],
        }[command]
        capsys.readouterr()
        assert main([
            command, "--scenarios", str(scenarios), *argv, "--jobs", jobs, "--out", str(out),
        ]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --jobs must be >= 1, got {jobs}\n"

    def test_missing_archive_exits_two(self, workspace, tmp_path):
        _, scenarios, _ = workspace
        assert main([
            "validate", "--archive", str(tmp_path / "nope.tar.gz"),
            "--scenarios", str(scenarios),
        ]) == 2


class TestEvaluate:
    def test_pipeline_closure(self, workspace, tmp_path):
        _, scenarios, archives = workspace
        report = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        plots = tmp_path / "plots"
        assert main([
            "evaluate", "--archive", str(archives["constant-velocity"]),
            "--scenarios", str(scenarios), "--out", str(report),
            "--csv", str(csv), "--plot", str(plots), "--jobs", "1",
        ]) == 0
        doc = read_report(report)
        assert doc["summary"]["scenario_count"] == 6
        for row in doc["scenarios"]:
            assert len(row["components"]) == 9
            assert row["excluded"] == []
        assert csv.exists()
        assert list(plots.glob("*.svg"))

    def test_config_override_is_echoed(self, workspace, tmp_path):
        _, scenarios, archives = workspace
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "version": 1,
            "weights": {
                "linear_speed": 0.05, "linear_accel": 0.05, "angular_speed": 0.05,
                "angular_accel": 0.05, "dist_to_nearest_object": 0.05,
                "collision": 0.5, "time_to_collision": 0.05,
                "dist_to_road_edge": 0.05, "offroad": 0.15,
            },
        }))
        report = tmp_path / "weighted.json"
        assert main([
            "evaluate", "--archive", str(archives["constant-velocity"]),
            "--scenarios", str(scenarios), "--config", str(config_path),
            "--out", str(report), "--jobs", "1",
        ]) == 0
        doc = read_report(report)
        assert doc["config"]["weights"]["collision"] == 0.5

    def test_non_finite_ttc_cap_exits_two(self, workspace, tmp_path, capsys):
        _, scenarios, archives = workspace
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"features": {"ttc_max": math.nan}}))  # NaN literal
        report = tmp_path / "nan_cap.json"
        assert main([
            "evaluate", "--archive", str(archives["constant-velocity"]),
            "--scenarios", str(scenarios), "--config", str(config_path),
            "--out", str(report), "--jobs", "1",
        ]) == 2
        assert "features.ttc_max must be finite and > 0" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("doc,detail", [
        ({"features": {"ttc_maxx": 4.0}}, "features has unknown key(s) 'ttc_maxx'"),
        ({"per_object_histograms": "false"}, "per_object_histograms must be true or false"),
        ({"histograms": {"linear_speed": {"min": 0.0, "max": 30.0, "bins": 64.9}}},
         "histograms.linear_speed.bins must be an integer"),
        ({"version": 7}, "version must be 1, got 7"),
        ({"weights": {"linear_speed": 0.5, "collision": 0.5}},
         "weights has no value for linear_accel, angular_speed"),
    ], ids=["unknown-key", "string-for-boolean", "fraction-for-integer", "other-version",
            "partial-weights"])
    def test_bad_config_exits_two_without_report(
        self, workspace, tmp_path, capsys, doc, detail
    ):
        _, scenarios, archives = workspace
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main([
            "evaluate", "--archive", str(archives["constant-velocity"]),
            "--scenarios", str(scenarios), "--config", str(config_path),
            "--out", str(report), "--jobs", "1",
        ]) == 2
        assert f"bad evaluation config: {detail}" in capsys.readouterr().err
        assert not report.exists()

    def test_config_env_var_is_the_default_config(self, workspace, tmp_path, monkeypatch):
        _, scenarios, archives = workspace
        weights = {m: 0.0625 for m in config_to_dict(DEFAULT_CONFIG)["weights"]}
        weights["collision"] = 0.5
        env_config = tmp_path / "env.json"
        env_config.write_text(json.dumps({"weights": weights}))
        monkeypatch.setenv(simreal.cli.CONFIG_ENV_VAR, str(env_config))
        argv = ["evaluate", "--archive", str(archives["constant-velocity"]),
                "--scenarios", str(scenarios), "--jobs", "1", "--out"]
        assert main(argv + [str(tmp_path / "env_report.json")]) == 0
        assert read_report(tmp_path / "env_report.json")["config"]["weights"]["collision"] == 0.5
        # --config wins over the variable.
        flag_config = tmp_path / "flag.json"
        flag_config.write_text(json.dumps(config_to_dict(DEFAULT_CONFIG)))
        assert main(argv + [str(tmp_path / "flag_report.json"), "--config", str(flag_config)]) == 0
        assert read_report(tmp_path / "flag_report.json")["config"] == config_to_dict(DEFAULT_CONFIG)

    def test_oracle_beats_constant_velocity(self, workspace, tmp_path):
        _, scenarios, archives = workspace
        summaries = {}
        for name, archive in archives.items():
            report = tmp_path / f"{name}.json"
            assert main([
                "evaluate", "--archive", str(archive), "--scenarios", str(scenarios),
                "--out", str(report), "--jobs", "1",
            ]) == 0
            summaries[name] = read_report(report)["summary"]["composite"]
        assert summaries["logged-oracle"] > summaries["constant-velocity"]

    def test_archive_missing_a_scenario_exits_two_without_report(
        self, workspace, tmp_path, capsys
    ):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = sorted((rec for _, rec in archive.entries), key=lambda r: r.scenario_id)
        dropped = [records[0].scenario_id, records[3].scenario_id]
        partial = tmp_path / "partial.tar.gz"
        kept = [rec for rec in records if rec.scenario_id not in dropped]
        write_submission(partial, map(encode_rollouts, kept), archive.manifest)
        report = tmp_path / "partial.json"
        capsys.readouterr()
        assert main([
            "evaluate", "--archive", str(archives["constant-velocity"]),
            "--archive", str(partial), "--scenarios", str(scenarios),
            "--out", str(report), "--jobs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert all(sid in err for sid in dropped)
        assert not list(tmp_path.glob("partial*.json"))

    def test_out_of_range_pose_fails_validate_and_evaluate(self, workspace, tmp_path, capsys):
        # x alternating between +-1e154 overflows the kinematic features to inf
        # and NaN; the contract rejects it before any feature is extracted.
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = sorted((rec for _, rec in archive.entries), key=lambda r: r.scenario_id)
        far = records[0].rollouts.copy()
        far[..., 0] = np.where(np.arange(far.shape[2]) % 2 == 0, 1e154, -1e154)
        records[0] = ScenarioRollouts(records[0].scenario_id, records[0].ids, far)
        path = tmp_path / "far.tar.gz"
        write_submission(path, map(encode_rollouts, records), archive.manifest)
        capsys.readouterr()
        assert main(["validate", "--archive", str(path), "--scenarios", str(scenarios)]) == 1
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert listed == ["[OUT_OF_RANGE_POSE]"] * len(far)
        report = tmp_path / "far.json"
        assert main([
            "evaluate", "--archive", str(path), "--scenarios", str(scenarios),
            "--out", str(report), "--jobs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "beyond 1e+07 m" in err, err
        assert not report.exists()

    def test_contract_violation_in_a_later_archive_writes_no_report(
        self, workspace, tmp_path, capsys
    ):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = sorted((rec for _, rec in archive.entries), key=lambda r: r.scenario_id)
        far = records[-1].rollouts.copy()
        far[0, 0, 0, 0] = 1e154
        records[-1] = ScenarioRollouts(records[-1].scenario_id, records[-1].ids, far)
        path = tmp_path / "far.tar.gz"
        write_submission(path, map(encode_rollouts, records), archive.manifest)
        capsys.readouterr()
        assert main([
            "evaluate", "--archive", str(archives["constant-velocity"]), "--archive", str(path),
            "--scenarios", str(scenarios), "--out", str(tmp_path / "multi.json"), "--jobs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"OUT_OF_RANGE_POSE {records[-1].scenario_id}" in err
        assert str(path) in err
        assert not list(tmp_path.glob("multi*"))

    @pytest.mark.parametrize("command", ["rollout", "evaluate"])
    @pytest.mark.parametrize("edit", sorted(NON_FINITE_EDITS))
    def test_non_finite_scenario_number_exits_two_without_output(
        self, workspace, tmp_path, capsys, command, edit
    ):
        _, scenarios, archives = workspace
        bad = tmp_path / "scenarios"
        bad.mkdir()
        for path in scenarios.glob("*.json"):
            doc = json.loads(path.read_text())
            if path.name.startswith("following_pair-") and "tracks" in doc:
                NON_FINITE_EDITS[edit](doc)
            (bad / path.name).write_text(json.dumps(doc))
        out = tmp_path / ("out.tar.gz" if command == "rollout" else "out.json")
        argv = {
            "rollout": [
                "--env-policy", "constant-velocity", "--av-policy", "constant-velocity",
                "--k", "2", "--seed", "0",
            ],
            "evaluate": ["--archive", str(archives["constant-velocity"])],
        }[command]
        capsys.readouterr()
        code = main([command, "--scenarios", str(bad), *argv, "--jobs", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert not out.exists()
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("interval", ["x", [1], None])
    def test_replan_interval_that_is_not_a_number_is_left_off_the_curve(
        self, workspace, tmp_path, interval
    ):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        odd = tmp_path / "odd.tar.gz"
        write_submission(odd, (encode_rollouts(rec) for _, rec in archive.entries),
                         {**archive.manifest, "replan_interval": interval})
        report = tmp_path / "odd.json"
        assert main([
            "evaluate", "--archive", str(odd), "--archive", str(archives["constant-velocity"]),
            "--scenarios", str(scenarios), "--out", str(report), "--jobs", "1",
        ]) == 0
        assert not (tmp_path / "odd.replan_curve.json").exists()  # one point is no curve

    def test_multiple_archives_emit_replan_curve(self, workspace, tmp_path):
        root, scenarios, archives = workspace
        slow = tmp_path / "slow.tar.gz"
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", "noisy-plan", "--av-policy", "noisy-plan",
            "--k", "8", "--seed", "0", "--replan-interval", "10",
            "--jobs", "1", "--out", str(slow),
        ]) == 0
        fast = tmp_path / "fast.tar.gz"
        assert main([
            "rollout", "--scenarios", str(scenarios),
            "--env-policy", "noisy-plan", "--av-policy", "noisy-plan",
            "--k", "8", "--seed", "0", "--replan-interval", "1",
            "--jobs", "1", "--out", str(fast),
        ]) == 0
        report = tmp_path / "multi.json"
        assert main([
            "evaluate", "--archive", str(fast), "--archive", str(slow),
            "--scenarios", str(scenarios), "--out", str(report), "--jobs", "1",
            "--csv", str(tmp_path / "multi.csv"), "--plot", str(tmp_path / "plots"),
        ]) == 0
        curve = json.loads((tmp_path / "multi.replan_curve.json").read_text())
        assert [p["replan_interval"] for p in curve["points"]] == [1.0, 10.0]
        svg = (tmp_path / "plots" / "replan_curve.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<circle") == 2
        for point in curve["points"]:  # each point is labelled with its composite
            assert f">{point['composite']:.3f}</text>" in svg


class TestCompare:
    def test_side_by_side_table(self, workspace, tmp_path, capsys):
        _, scenarios, archives = workspace
        reports = []
        for name, archive in archives.items():
            report = tmp_path / f"{name}.json"
            assert main([
                "evaluate", "--archive", str(archive), "--scenarios", str(scenarios),
                "--out", str(report), "--jobs", "1",
            ]) == 0
            reports.append(str(report))
        assert main(["compare", "--reports"] + reports) == 0
        out = capsys.readouterr().out
        assert "composite(rank)" in out
        assert "logged-oracle" in out

    @pytest.mark.parametrize("b_scores,notes", [
        ((0.8, 2.5, 1.5), []),
        ((0.8, 1.0, 1.5), ["ADE"]),
        ((0.8, 2.5, 0.5), ["minADE"]),
        ((0.8, 1.0, 0.5), ["ADE", "minADE"]),
    ], ids=["agree", "ade-disagrees", "min-ade-disagrees", "both-disagree"])
    def test_ranking_disagreement_notes(self, tmp_path, capsys, b_scores, notes):
        reports = []
        for name, scores in (("a", (0.9, 2.0, 1.0)), ("b", b_scores)):
            path = tmp_path / f"{name}.json"
            keys = ("composite", "mean_ade", "mean_min_ade")
            path.write_text(json.dumps({"summary": dict(zip(keys, scores))}))
            reports.append(str(path))
        assert main(["compare", "--reports"] + reports) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("note:")] == [
            f"note: ranking by composite disagrees with ranking by {what}" for what in notes
        ]

    @pytest.mark.parametrize(
        "doc",
        [[1], {"summary": {"composite": 0.5, "mean_min_ade": 1.0}}, {"summary": [0.5]}],
        ids=["list-root", "summary-without-mean-ade", "list-summary"],
    )
    def test_malformed_report_exits_two(self, tmp_path, capsys, doc):
        report = tmp_path / "bad.json"
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["compare", "--reports", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and str(report) in captured.err
        assert captured.out == ""


class TestEvaluateArchiveScenarioSet:
    def _evaluate(self, scenarios, records, manifest, tmp_path):
        archive = tmp_path / "odd.tar.gz"
        write_submission(archive, map(encode_rollouts, records), manifest)
        report = tmp_path / "odd.json"
        code = main([
            "evaluate", "--archive", str(archive), "--scenarios", str(scenarios),
            "--out", str(report), "--jobs", "1",
        ])
        return code, report

    def test_duplicate_scenario_exits_two_without_report(self, workspace, tmp_path, capsys):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = [rec for _, rec in archive.entries]
        zeroed = replace(records[0], rollouts=np.zeros_like(records[0].rollouts))
        capsys.readouterr()
        code, report = self._evaluate(scenarios, [zeroed] + records, archive.manifest, tmp_path)
        assert code == 2
        assert not report.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"DUPLICATE_SCENARIO {records[0].scenario_id}" in err

    def test_unknown_scenario_exits_two_without_report(self, workspace, tmp_path, capsys):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = [rec for _, rec in archive.entries]
        stray = replace(records[0], scenario_id="not_in_the_set")
        capsys.readouterr()
        code, report = self._evaluate(scenarios, records + [stray], archive.manifest, tmp_path)
        assert code == 2
        assert not report.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "UNKNOWN_SCENARIO not_in_the_set" in err

    @pytest.mark.parametrize(
        "counts,declared",
        [((2, 3), 32), ((2, 3), None), ((2, 2), 32)],
        ids=["mixed-under-manifest", "mixed-without-manifest", "uniform-off-manifest"],
    )
    def test_rollout_count_mismatch_exits_two_without_report(
        self, workspace, tmp_path, capsys, counts, declared
    ):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = sorted((rec for _, rec in archive.entries), key=lambda r: r.scenario_id)
        # Scenarios take the counts in turn, so every count is held somewhere.
        cut = [
            replace(rec, rollouts=rec.rollouts[: counts[i % len(counts)]])
            for i, rec in enumerate(records)
        ]
        manifest = {k: v for k, v in archive.manifest.items() if k != "rollouts_per_scenario"}
        if declared is not None:
            manifest["rollouts_per_scenario"] = declared
        capsys.readouterr()
        code, report = self._evaluate(scenarios, cut, manifest, tmp_path)
        assert code == 2
        assert not report.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "rollouts per scenario" in err

    def test_rollout_count_matching_manifest_is_scored(self, workspace, tmp_path):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        cut = [replace(rec, rollouts=rec.rollouts[:2]) for _, rec in archive.entries]
        manifest = {**archive.manifest, "rollouts_per_scenario": 2}
        code, report = self._evaluate(scenarios, cut, manifest, tmp_path)
        assert code == 0
        assert report.exists()


@pytest.fixture(scope="module")
def two_agent_scenarios(tmp_path_factory):
    """One 2-agent scenario: a rollout of it starts no process pool, whatever --jobs says."""
    out = tmp_path_factory.mktemp("two_agents") / "scenarios"
    assert main([
        "synth", "--template", "following_pair", "--count", "1", "--agents", "2",
        "--out", str(out),
    ]) == 0
    return out


_OPTION_VALUES = st.sampled_from(["nan", "inf", "-1", "1e308", "1e200", "x", ""])
_OPTIONS = st.lists(
    st.tuples(st.sampled_from(["mu", "sigma", "heading_sigma", "speed_sigma"]), _OPTION_VALUES),
    max_size=2,
)


class TestRolloutNeverRaises:
    @settings(max_examples=40, deadline=None)
    @given(
        env=st.sampled_from(sorted(POLICY_REGISTRY)),
        av=st.sampled_from(sorted(POLICY_REGISTRY)),
        k=st.integers(-1, 2),
        seed=st.integers(-1, 2) | st.integers(2**64 - 3, 2**64),
        interval=st.integers(-1, 3),
        jobs=st.sampled_from([-1, 0, 1, 2]),
        env_opts=_OPTIONS,
        av_opts=_OPTIONS,
    )
    @example(env="noisy-plan", av="noisy-plan", k=2, seed=0, interval=1, jobs=1,
             env_opts=[("heading_sigma", "1e308")], av_opts=[])
    @example(env="random", av="noisy-plan", k=2, seed=2**64 - 2, interval=3, jobs=2,
             env_opts=[("mu", "1e308")], av_opts=[("speed_sigma", "1e200")])
    def test_exit_code_and_archive_agree(
        self, two_agent_scenarios, env, av, k, seed, interval, jobs, env_opts, av_opts
    ):
        argv = [
            "rollout", "--scenarios", str(two_agent_scenarios), "--env-policy", env,
            "--av-policy", av, f"--k={k}", f"--seed={seed}", f"--replan-interval={interval}",
            f"--jobs={jobs}",
        ]
        for flag, opts in (("--env-opt", env_opts), ("--av-opt", av_opts)):
            argv += [f"{flag}={key}={value}" for key, value in opts]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "sub.tar.gz"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, f"--out={out}"])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert out.exists() == (code == 0)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of every process pool asked for; no worker process starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # simreal.cli builds no pool itself; it is covered anyway, so that a pool
    # built there again could not fork --jobs 64 processes in this test.
    for module in (simreal.cli, simreal.evaluate):
        monkeypatch.setattr(module, "ProcessPoolExecutor", RecordingPool, raising=False)
    return sizes


class TestFanOut:
    @pytest.fixture(scope="class")
    def two_scenarios(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("two_scenarios") / "scenarios"
        assert main([
            "synth", "--template", "following_pair", "--count", "2", "--agents", "2",
            "--out", str(out),
        ]) == 0
        return out

    def test_rollout_pool_is_capped_at_the_scenario_count(self, two_scenarios, tmp_path,
                                                          pool_sizes):
        out = tmp_path / "sub.tar.gz"
        assert main([
            "rollout", "--scenarios", str(two_scenarios), "--env-policy", "noisy-plan",
            "--av-policy", "noisy-plan", "--k", "2", "--jobs", "64", "--out", str(out),
        ]) == 0
        assert pool_sizes == [2]
        serial = tmp_path / "serial.tar.gz"
        assert main([
            "rollout", "--scenarios", str(two_scenarios), "--env-policy", "noisy-plan",
            "--av-policy", "noisy-plan", "--k", "2", "--jobs", "1", "--out", str(serial),
        ]) == 0
        assert pool_sizes == [2]
        assert serial.read_bytes() == out.read_bytes()

    def test_evaluate_pool_is_capped_at_the_pair_count(self, two_scenarios, tmp_path, pool_sizes):
        archive = tmp_path / "sub.tar.gz"
        assert main([
            "rollout", "--scenarios", str(two_scenarios), "--env-policy", "constant-velocity",
            "--av-policy", "constant-velocity", "--k", "2", "--jobs", "1", "--out", str(archive),
        ]) == 0
        scenarios = read_scenario_dir(two_scenarios)
        records, _ = match_scenarios(read_submission(archive), scenarios)
        pairs = [(scenarios[sid], records[sid]) for sid in sorted(scenarios)]
        bundles, summary = simreal.evaluate.evaluate_dataset(pairs, jobs=64)
        assert pool_sizes == [2]
        assert simreal.evaluate.evaluate_dataset(pairs[:1], jobs=64)[0] == bundles[:1]
        assert pool_sizes == [2]  # a single pair runs in this process
        assert simreal.evaluate.evaluate_dataset(pairs, jobs=1)[1] == summary


class TestValidateAgreesWithEvaluate:
    @pytest.mark.parametrize(
        "counts,declared",
        [((2, 2), 4), ((2, 2), 32), ((2, 3), None), ((3, 2), 2)],
        ids=["uniform-under-manifest", "uniform-off-default", "mixed-without-manifest",
             "mixed-first-off-manifest"],
    )
    def test_count_refused_by_evaluate_fails_validate(
        self, workspace, tmp_path, capsys, counts, declared
    ):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = sorted((rec for _, rec in archive.entries), key=lambda r: r.scenario_id)
        cut = [
            replace(rec, rollouts=rec.rollouts[: counts[i % len(counts)]])
            for i, rec in enumerate(records)
        ]
        manifest = {k: v for k, v in archive.manifest.items() if k != "rollouts_per_scenario"}
        if declared is not None:
            manifest["rollouts_per_scenario"] = declared
        path = tmp_path / "odd.tar.gz"
        write_submission(path, map(encode_rollouts, cut), manifest)
        capsys.readouterr()
        assert main([
            "validate", "--archive", str(path), "--scenarios", str(scenarios),
            "--expected-rollouts", str(counts[0]),
        ]) == 1
        assert "[ROLLOUT_COUNT_MISMATCH]" in capsys.readouterr().out
        report = tmp_path / "odd.json"
        assert main([
            "evaluate", "--archive", str(path), "--scenarios", str(scenarios),
            "--out", str(report), "--jobs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ROLLOUT_COUNT_MISMATCH" in err
        assert not report.exists()


class TestLoggedPoseEnvelope:
    @pytest.mark.parametrize("command", ["rollout", "validate", "evaluate"])
    def test_logged_pose_beyond_the_limit_exits_two(self, workspace, tmp_path, capsys, command):
        _, scenarios, archives = workspace
        bad = tmp_path / "scenarios"
        bad.mkdir()
        for path in scenarios.glob("*.json"):
            doc = json.loads(path.read_text())
            if path.name.startswith("following_pair-") and "tracks" in doc:
                for state in doc["tracks"][1]["states"]:
                    state["x"] += 1e200
            (bad / path.name).write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "rollout": ["--env-policy", "constant-velocity", "--av-policy", "constant-velocity",
                        "--k", "2", "--jobs", "1", "--out", str(out)],
            "validate": ["--archive", str(archives["constant-velocity"])],
            "evaluate": ["--archive", str(archives["constant-velocity"]), "--jobs", "1",
                         "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([command, "--scenarios", str(bad), *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "has a coordinate beyond 1e+07 m" in err, err
        assert not out.exists()


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """Bytes of a 1-scenario, 2-agent, k=2 set: archive, scenario .bin, config and report."""
    root = tmp_path_factory.mktemp("tiny")
    scenarios, archive, report = root / "scenarios", root / "sub.tar.gz", root / "report.json"
    assert main([
        "synth", "--template", "following_pair", "--count", "1", "--agents", "2",
        "--format", "binary", "--out", str(scenarios),
    ]) == 0
    assert main([
        "rollout", "--scenarios", str(scenarios), "--env-policy", "noisy-plan",
        "--av-policy", "noisy-plan", "--k", "2", "--jobs", "1", "--out", str(archive),
    ]) == 0
    assert main([
        "evaluate", "--archive", str(archive), "--scenarios", str(scenarios),
        "--out", str(report), "--jobs", "1",
    ]) == 0
    (scenario,) = scenarios.glob("*.bin")
    return {
        "archive": archive.read_bytes(),
        "scenario": scenario.read_bytes(),
        "config": json.dumps(config_to_dict(DEFAULT_CONFIG)).encode(),
        "report": report.read_bytes(),
    }


def _mutated(blob: bytes, edits, truncate) -> bytes:
    out = bytearray(blob)
    for pos, value in edits:
        out[pos % len(out)] = value
    if truncate is not None:
        out = out[: truncate % len(out)]
    return bytes(out)


class TestReadersNeverRaise:
    """``main()`` ends in an exit code for ``validate``, ``evaluate`` and ``compare``
    whatever their flags, and whatever bytes their input files hold."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["validate", "evaluate", "compare"]),
        target=st.sampled_from(["archive", "archive-tar", "scenario", "config", "report"]),
        edits=st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 255)), max_size=4),
        truncate=st.none() | st.integers(0, 10**9),
        expected=st.integers(-1, 3),
        config=st.booleans(),
        twice=st.booleans(),
    )
    @example(command="evaluate", target="archive", edits=[], truncate=None, expected=2,
             config=True, twice=True)
    @example(command="compare", target="report", edits=[(0, 0xFF)], truncate=None, expected=2,
             config=False, twice=False)
    @example(command="evaluate", target="config", edits=[(1, 0xFF)], truncate=None, expected=2,
             config=True, twice=False)
    def test_exit_code_without_traceback(
        self, tiny_inputs, command, target, edits, truncate, expected, config, twice
    ):
        blobs = dict(tiny_inputs)
        if target == "archive-tar":  # mutate the tar inside the gzip stream
            tar = _mutated(gzip.decompress(blobs["archive"]), edits, truncate)
            blobs["archive"] = gzip.compress(tar, mtime=0)
        else:
            blobs[target] = _mutated(blobs[target], edits, truncate)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "scenarios").mkdir()
            paths = {
                "archive": tmp / "sub.tar.gz",
                "scenario": tmp / "scenarios" / "scenario.bin",
                "config": tmp / "config.json",
                "report": tmp / "report.json",
            }
            for name, path in paths.items():
                path.write_bytes(blobs[name])
            archive, scenarios = str(paths["archive"]), str(tmp / "scenarios")
            argv = {
                "validate": ["validate", "--archive", archive, "--scenarios", scenarios,
                             f"--expected-rollouts={expected}"],
                "evaluate": ["evaluate", "--archive", archive, "--scenarios", scenarios,
                             "--out", str(tmp / "out.json"), "--csv", str(tmp / "out.csv"),
                             "--jobs", "1"]
                + (["--config", str(paths["config"])] if config else [])
                + (["--archive", archive] if twice else []),
                "compare": ["compare", "--reports", str(paths["report"])]
                + ([str(tmp / "out.json")] if twice else []),
            }[command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def tiny_json_inputs(tmp_path_factory):
    """A 1-scenario, 2-agent JSON scenario (file name and text) and a k=2 archive of it."""
    root = tmp_path_factory.mktemp("tiny_json")
    scenarios, archive = root / "scenarios", root / "sub.tar.gz"
    assert main([
        "synth", "--template", "following_pair", "--count", "1", "--agents", "2",
        "--out", str(scenarios),
    ]) == 0
    assert main([
        "rollout", "--scenarios", str(scenarios), "--env-policy", "noisy-plan",
        "--av-policy", "noisy-plan", "--k", "2", "--jobs", "1", "--out", str(archive),
    ]) == 0
    (scenario,) = (p for p in scenarios.glob("*.json") if "tracks" in json.loads(p.read_text()))
    return {"archive": archive.read_bytes(), "name": scenario.name, "text": scenario.read_text()}


def _json_paths(doc, path=()):
    """Every path into a JSON document, the document's own first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _json_edited(text: str, edits) -> str:
    """``text`` with each ``(pick, in_states, op, value)`` edit applied in turn.

    ``pick`` chooses a path among the pose-state paths (``in_states``) or all
    the others; ``op`` replaces the value there, deletes it, or cuts a list to
    ``value`` items.
    """
    doc = json.loads(text)
    for pick, in_states, op, value in edits:
        paths = [p for p in _json_paths(doc) if p and ("states" in p[:3] and len(p) > 3) == in_states]
        if not paths:
            continue
        path = paths[pick % len(paths)]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "replace":
            parent[path[-1]] = value
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], list) and isinstance(value, int):
            del parent[path[-1]][value % (len(parent[path[-1]]) + 1):]
    return json.dumps(doc)


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, 1, 2, 11, 80, 91, 10**400]),
    st.floats(),  # NaN and infinities too, written as JSON's NaN and Infinity
    st.text(max_size=3),
    st.sampled_from(["\ud800", "a\udcff", "vehicle", "pedestrian", "road_edge", "lane", ""]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2), max_size=3),
    st.just({}),
)


class TestJsonScenarioNeverRaises:
    """``main()`` ends in an exit code for ``validate``, ``evaluate`` and ``rollout``
    whatever a JSON scenario file holds: edited JSON values or bytes."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["validate", "evaluate", "rollout"]),
        edits=st.lists(
            st.tuples(st.integers(0, 10**6), st.booleans(),
                      st.sampled_from(["replace", "delete", "cut"]), _JSON_VALUES),
            max_size=3,
        ),
        byte_edits=st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 255)), max_size=2),
        truncate=st.none() | st.integers(0, 10**9),
    )
    @example(command="rollout", edits=[(0, False, "replace", "\ud800")], byte_edits=[],
             truncate=None)  # a lone surrogate in the first top-level value
    @example(command="evaluate", edits=[(10**6, True, "replace", math.nan)], byte_edits=[],
             truncate=None)
    def test_exit_code_without_traceback(
        self, tiny_json_inputs, command, edits, byte_edits, truncate
    ):
        text = _json_edited(tiny_json_inputs["text"], edits)
        blob = _mutated(text.encode("utf-8", "surrogatepass"), byte_edits, truncate)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            scenarios, archive = tmp / "scenarios", tmp / "sub.tar.gz"
            scenarios.mkdir()
            (scenarios / tiny_json_inputs["name"]).write_bytes(blob)
            archive.write_bytes(tiny_json_inputs["archive"])
            common = ["--scenarios", str(scenarios)]
            argv = {
                "validate": ["validate", "--archive", str(archive), *common,
                             "--expected-rollouts=2"],
                "evaluate": ["evaluate", "--archive", str(archive), *common,
                             "--out", str(tmp / "out.json"), "--csv", str(tmp / "out.csv"),
                             "--jobs", "1"],
                "rollout": ["rollout", *common, "--env-policy", "noisy-plan",
                            "--av-policy", "noisy-plan", "--k", "2", "--jobs", "1",
                            "--out", str(tmp / "out.tar.gz")],
            }[command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("command", ["rollout", "evaluate", "validate"])
    def test_scenario_id_with_a_lone_surrogate_is_malformed(
        self, tiny_json_inputs, tmp_path, command
    ):
        # JSON's "\ud800" escape decodes to a str that UTF-8 cannot encode:
        # rollout raised UnicodeEncodeError writing the archive record.
        doc = json.loads(tiny_json_inputs["text"])
        doc["scenario_id"] = "\ud800"
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        (scenarios / tiny_json_inputs["name"]).write_text(json.dumps(doc))
        archive = tmp_path / "sub.tar.gz"
        archive.write_bytes(tiny_json_inputs["archive"])
        argv = {
            "rollout": ["rollout", "--env-policy", "noisy-plan", "--av-policy", "noisy-plan",
                        "--k", "2", "--jobs", "1", "--out", str(tmp_path / "o.tar.gz")],
            "evaluate": ["evaluate", "--archive", str(archive), "--jobs", "1",
                         "--out", str(tmp_path / "o.json")],
            "validate": ["validate", "--archive", str(archive)],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--scenarios", str(scenarios)])
        assert code == 2, err.getvalue()
        assert "scenario_id" in err.getvalue()


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    """Six scenes over all templates: small enough to roll out three times."""
    out = tmp_path_factory.mktemp("small_suite") / "scenarios"
    assert main([
        "synth", "--template", "all", "--count", "6", "--seed", "3", "--noise", "0.2",
        "--out", str(out),
    ]) == 0
    return out


def _edited_suite(suite: Path, out: Path, edit) -> str:
    """A copy of ``suite`` whose second scenario (in id order) is ``edit(doc)``; its id."""
    out.mkdir()
    paths = sorted(suite.glob("*.json"))
    docs = [json.loads(p.read_text()) for p in paths]
    target = sorted(doc["scenario_id"] for doc in docs if "tracks" in doc)[1]
    for path, doc in zip(paths, docs):
        if doc.get("scenario_id") == target and "tracks" in doc:
            edit(doc)
        (out / path.name).write_text(json.dumps(doc))
    return target


class TestBatchedRollout:
    @pytest.mark.parametrize("interval", [1, 3])
    def test_archive_bytes_do_not_depend_on_jobs(self, small_suite, tmp_path, interval):
        digests = set()
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}.tar.gz"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([
                    "rollout", "--scenarios", str(small_suite), "--env-policy", "noisy-plan",
                    "--av-policy", "random", "--k", "3", "--seed", "5",
                    f"--replan-interval={interval}", f"--jobs={jobs}", "--out", str(out),
                ]) == 0
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1

    def _rollout(self, scenarios, policy, tmp_path, capsys):
        out = tmp_path / "sub.tar.gz"
        capsys.readouterr()
        code = main([
            "rollout", "--scenarios", str(scenarios), "--env-policy", policy,
            "--av-policy", policy, "--k", "2", "--jobs", "1", "--out", str(out),
        ])
        return code, capsys.readouterr().err, out

    def test_negative_ids_in_one_scenario_exit_three(self, small_suite, tmp_path, capsys):
        def negate(doc):
            for track in doc["tracks"]:
                track["object_id"] = -1 - track["object_id"]
            doc["av_track_id"] = -1 - doc["av_track_id"]

        bad = _edited_suite(small_suite, tmp_path / "scenarios", negate)
        code, err, out = self._rollout(tmp_path / "scenarios", "noisy-plan", tmp_path, capsys)
        assert code == 3 and not out.exists()
        assert f"{bad} objects [-" in err and "negative ids" in err
        assert err.count("\n") == 1

    def test_non_finite_output_in_one_scenario_exits_three(self, small_suite, tmp_path, capsys):
        # A tiny timestep turns any history motion into an infinite speed.
        bad = _edited_suite(small_suite, tmp_path / "scenarios",
                            lambda doc: doc.update(timestep=1e-310))
        code, err, out = self._rollout(tmp_path / "scenarios", "constant-velocity", tmp_path,
                                       capsys)
        assert code == 3 and not out.exists()
        assert f"{bad} objects [" in err and "are not finite" in err
        assert err.count("\n") == 1
