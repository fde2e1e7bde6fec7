from __future__ import annotations

import json

import pytest

import simreal.cli
from simreal.cli import main
from simreal.harness import AuditReport
from simreal.io import read_report, read_scenario_dir, read_submission


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

    def test_failed_audit_exits_one_without_archive(self, workspace, tmp_path, monkeypatch,
                                                    capsys):
        _, scenarios, _ = workspace
        failing = AuditReport(ok=False, hybrid=False, replan_interval=1, issues=("forged",))
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
            "--csv", str(tmp_path / "multi.csv"),
        ]) == 0
        curve = json.loads((tmp_path / "multi.replan_curve.json").read_text())
        assert len(curve["points"]) == 2


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
