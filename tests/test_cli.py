from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import simreal.cli
from simreal.cli import main
from simreal.harness import AuditReport
from simreal.io import read_report, read_scenario_dir, read_submission, write_submission


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

    def test_archive_missing_a_scenario_exits_two_without_report(
        self, workspace, tmp_path, capsys
    ):
        _, scenarios, archives = workspace
        archive = read_submission(archives["constant-velocity"])
        records = sorted((rec for _, rec in archive.entries), key=lambda r: r.scenario_id)
        dropped = [records[0].scenario_id, records[3].scenario_id]
        partial = tmp_path / "partial.tar.gz"
        kept = [rec for rec in records if rec.scenario_id not in dropped]
        write_submission(partial, kept, archive.manifest)
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


class TestEvaluateArchiveScenarioSet:
    def _evaluate(self, scenarios, records, manifest, tmp_path):
        archive = tmp_path / "odd.tar.gz"
        write_submission(archive, records, manifest)
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
