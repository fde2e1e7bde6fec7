#!/usr/bin/env python3
"""simreal benchmark: ``synth -> rollout -> validate -> evaluate`` through the CLI.

    python3 bench/run.py --workload dense_noisy --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, one process each

Every stage is a real ``simreal.cli.main(argv)`` call made in-process, on
files written under ``.bench_work/`` in the checkout (removed on exit).  The
library is imported from the checkout's ``src/``; without it the run exits
non-zero before printing a result.  Workloads and metrics are described in
``BENCHMARK.json``.

``--trace 0`` synthesizes the scenario set ``SETUP_REPEATS`` times, then
repeats whole passes (rollout, ``VALIDATE_REPEATS`` validates, evaluate)
until ``--seconds`` have passed, at least once.  Each stage time is the
median over the run.  Before each stage the library's ``lru_cache``s are
cleared and garbage is collected, so a stage starts the way a fresh
``simreal`` process does.  Times are wall times rescaled to a reference CPU
speed by :class:`spans.CpuSpeedProbe`, which samples the speed inside the
timed processes; the raw wall medians are printed on the info line.

``--trace 1`` runs one untraced pass and one traced pass (plus a traced
``jobs=1`` pass when the workload runs at ``jobs > 1``, because spans inside
pool workers are lost) and reports the per-layer metrics of ``probes.py``.

Correctness: every stage must exit 0, ``validate`` must pass, no rollout may
print ``AUDIT FAILED``, every pass must write a byte-identical archive and the
same fingerprint (composite, mean ADE, mean minADE), the report must be
self-consistent, a traced pass must reproduce the untraced fingerprint, and
at a seed in ``REFERENCE_FINGERPRINTS`` the fingerprint must equal it exactly.

The last stdout line is the JSON result: ``correct``, ``attempted`` and
``failed`` (CLI calls made / failed) and ``metrics``.  The line before it
records the environment, the inputs and the fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import probes  # noqa: E402
from spans import CpuSpeedProbe, Tracer  # noqa: E402

NOISE = "0.2"
SETUP_REPEATS = 5
VALIDATE_REPEATS = 5  # validate is short, so one run samples it more often
DEFAULT_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    count: int
    agents: int | None  # None: each template's default agent count
    policy: str
    jobs: int
    k: int = 32


WORKLOADS = {
    w.name: w
    for w in (
        # Distinct rollouts: box distance and TTC tensors dominate evaluate.
        Workload("dense_noisy", "straight_road", 1, 32, "noisy-plan", 1),
        # Identical rollouts, extracted once: conversion, ADE and decode dominate.
        Workload("dense_cv", "straight_road", 1, 64, "constant-velocity", 1),
        # Many small scenes over all templates: fixed costs, archive I/O, pool.
        Workload("mixed_suite", "all", 24, None, "noisy-plan", 2),
    )
}

# (composite, mean ADE, mean minADE) recorded at the default seed.
REFERENCE_FINGERPRINTS = {
    ("dense_noisy", 0): (0.3301668243995333, 2.163939117414646, 2.0392918741092787),
    ("dense_cv", 0): (0.7364985825678371, 1.7659687500000072, 1.7659687500000072),
    ("mixed_suite", 0): (0.33169427751920655, 5.127941171737586, 4.503703402680636),
}

END_TO_END = (
    ("setup_s", "s"),
    ("rollout_s", "s"),
    ("validate_s", "s"),
    ("evaluate_s", "s"),
    ("pipeline_s", "s"),
    ("rollout_agent_steps_per_s", "1/s"),
    ("evaluate_agent_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("archive_bytes", "B"),
)

PIPELINE_STAGES = ("rollout", "validate", "evaluate")


def import_simreal():
    """Import simreal from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import simreal.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import simreal from {src}: {exc}")
    if Path(simreal.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"bench: simreal was imported from outside {src}")
    return simreal


@dataclass
class Outcome:
    """What one run produced: metrics plus the correctness verdict."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in self.metrics.items()},
        }


class Pipeline:
    """Drives the CLI for one workload inside a scratch directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, outcome: Outcome,
                 speed: CpuSpeedProbe | None = None):
        import simreal.cli

        self.cli = simreal.cli
        self.wl = workload
        self.seed = seed
        self.scenarios = work / "scenarios"
        self.archive = work / "submission.tar.gz"
        self.report = work / "report.json"
        self.outcome = outcome
        self.speed = speed

    def call(self, tracer: Tracer, stage: str, argv: list[str]) -> None:
        """One CLI call in a ``cli.<stage>`` span; failures are counted, not raised."""
        _clear_library_caches()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        sampling = self.speed.sampling() if self.speed else contextlib.nullcontext({})
        code = span = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with sampling as reading, tracer.span(f"cli.{stage}") as span:
                    code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            err.write(traceback.format_exc())
        if span is not None:
            span.attrs.update(reading)  # filled in when sampling ends
        text = out.getvalue()
        self.outcome.attempted += 1
        audit_failed = stage == "rollout" and "AUDIT FAILED" in text
        if code != 0 or audit_failed:
            self.outcome.failed += 1
            reason = "audit failed" if code == 0 else f"exit {code}"
            print(f"bench: {stage} failed ({reason})\n{text}{err.getvalue()}", file=sys.stderr)

    def synth(self, tracer: Tracer) -> None:
        shutil.rmtree(self.scenarios, ignore_errors=True)
        agents = [] if self.wl.agents is None else ["--agents", str(self.wl.agents)]
        self.call(tracer, "synth", [
            "synth", "--template", self.wl.template, "--count", str(self.wl.count), *agents,
            "--seed", str(self.seed), "--noise", NOISE, "--format", "binary",
            "--out", str(self.scenarios),
        ])

    def run_pass(self, tracer: Tracer, jobs: int, validations: int = 1) -> tuple | None:
        """rollout, validate, evaluate; returns (fingerprint, archive sha256)."""
        self.archive.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)
        common = ["--scenarios", str(self.scenarios)]
        self.call(tracer, "rollout", [
            "rollout", *common, "--env-policy", self.wl.policy, "--av-policy", self.wl.policy,
            "--k", str(self.wl.k), "--seed", str(self.seed), "--jobs", str(jobs),
            "--out", str(self.archive),
        ])
        for _ in range(validations):
            self.call(tracer, "validate", [
                "validate", "--archive", str(self.archive), *common,
                "--expected-rollouts", str(self.wl.k),
            ])
        self.call(tracer, "evaluate", [
            "evaluate", "--archive", str(self.archive), *common, "--jobs", str(jobs),
            "--out", str(self.report),
        ])
        if not (self.archive.exists() and self.report.exists()):
            self.outcome.problems.append("pass left no archive or no report")
            return None
        digest = hashlib.sha256(self.archive.read_bytes()).hexdigest()
        doc = json.loads(self.report.read_text())
        self.outcome.problems += report_problems(doc, self.wl.count)
        summary = doc["summary"]
        return (summary["composite"], summary["mean_ade"], summary["mean_min_ade"]), digest

    def inputs(self) -> dict:
        """Scenario, agent and object-step counts of the synthesized inputs."""
        from simreal.io import read_scenario_dir
        from simreal.scene import simulated_object_ids

        scenarios = read_scenario_dir(self.scenarios).values()
        object_steps = sum(len(simulated_object_ids(s)) * s.future_length for s in scenarios)
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "scenarios": len(scenarios),
            "agents": sum(len(s.tracks) for s in scenarios),
            "simulated_objects": sum(len(simulated_object_ids(s)) for s in scenarios),
            "rollouts_per_scenario": self.wl.k,
            "scored_object_steps": object_steps * self.wl.k,
            "jobs": self.wl.jobs,
        }


def _clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "simreal" or name.startswith("simreal."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def report_problems(doc: dict, scenario_count: int) -> list[str]:
    """Consistency checks on a report that hold for every seed."""
    problems = []
    summary = doc["summary"]
    if summary["scenario_count"] != scenario_count or len(doc["scenarios"]) != scenario_count:
        problems.append(f"report covers {summary['scenario_count']} of {scenario_count} scenarios")
    comp, ade, min_ade = summary["composite"], summary["mean_ade"], summary["mean_min_ade"]
    if not all(math.isfinite(v) for v in (comp, ade, min_ade)):
        problems.append(f"non-finite fingerprint {(comp, ade, min_ade)}")
    elif not (0.0 < comp <= 1.0 and 0.0 <= min_ade <= ade):
        problems.append(f"fingerprint out of range {(comp, ade, min_ade)}")
    for sc in doc["scenarios"]:
        parts = list(sc["components"].values())
        # The composite is a convex combination of the scored components.
        if not parts or not min(parts) - 1e-12 <= sc["composite"] <= max(parts) + 1e-12:
            problems.append(f"{sc['scenario_id']}: composite outside its components")
        if not 0.0 <= sc["min_ade"] <= sc["ade"]:
            problems.append(f"{sc['scenario_id']}: minADE exceeds ADE")
    return problems


def check_passes(outcome: Outcome, wl: Workload, seed: int, passes: list) -> None:
    """All passes agree with each other and with the recorded reference."""
    if not passes or any(p is None for p in passes):
        outcome.problems.append("a pass produced no fingerprint")
        return
    fingerprints = {p[0] for p in passes}
    if len(fingerprints) != 1:
        outcome.problems.append(f"passes disagree on the fingerprint: {sorted(fingerprints)}")
    if len({p[1] for p in passes}) != 1:
        outcome.problems.append("passes wrote different archives")
    fingerprint = passes[0][0]
    reference = REFERENCE_FINGERPRINTS.get((wl.name, seed))
    if reference is not None and tuple(reference) != fingerprint:
        outcome.problems.append(f"fingerprint {fingerprint} != reference {reference}")
    outcome.info["fingerprint"] = dict(zip(("composite", "mean_ade", "mean_min_ade"), fingerprint))
    outcome.info["reference_checked"] = reference is not None


def pipeline_seconds(tracer: Tracer) -> float:
    return sum(tracer.total(f"cli.{stage}") for stage in PIPELINE_STAGES)


def warm_up(wl: Workload, seed: int, work: Path, outcome: Outcome) -> None:
    """One untimed pass on tiny inputs of the same shape.

    It loads what the library imports lazily (tarfile, the process pool) so
    the first timed pass pays no more one-time cost than the later ones.
    """
    tiny = replace(wl, count=min(wl.count, 2), agents=None if wl.agents is None else 2, k=2)
    pipe = Pipeline(tiny, seed, work / "warm_up", outcome)
    pipe.synth(Tracer())
    pipe.run_pass(Tracer(), tiny.jobs)
    shutil.rmtree(work / "warm_up", ignore_errors=True)


def measure(wl: Workload, seed: int, seconds: float, work: Path) -> Outcome:
    """Untraced run: end-to-end metrics."""
    outcome = Outcome()
    warm_up(wl, seed, work, outcome)
    pipe = Pipeline(wl, seed, work, outcome, speed=CpuSpeedProbe())
    tracer = Tracer()
    for _ in range(SETUP_REPEATS):
        pipe.synth(tracer)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(pipe.run_pass(tracer, wl.jobs, VALIDATE_REPEATS))
    check_passes(outcome, wl, seed, passes)
    inputs = pipe.inputs()

    def stage_spans(stage: str):
        return [s for s in tracer.spans if s.name == f"cli.{stage}"]

    def scaled(stage: str) -> float:
        return statistics.median(s.duration * s.attrs["scale"] for s in stage_spans(stage))

    stages = ("synth", *PIPELINE_STAGES)
    times = {stage: scaled(stage) for stage in stages}
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    values = {
        "setup_s": times["synth"],
        "rollout_s": times["rollout"],
        "validate_s": times["validate"],
        "evaluate_s": times["evaluate"],
        "pipeline_s": sum(times[stage] for stage in PIPELINE_STAGES),
        "rollout_agent_steps_per_s": inputs["scored_object_steps"] / times["rollout"],
        "evaluate_agent_steps_per_s": inputs["scored_object_steps"] / times["evaluate"],
        "peak_rss_mb": max(usage) / 1024.0,  # ru_maxrss is in KiB on Linux
        "archive_bytes": pipe.archive.stat().st_size if pipe.archive.exists() else 0,
    }
    outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    outcome.info.update(
        inputs=inputs,
        passes=len(passes),
        wall_s={st: statistics.median(s.duration for s in stage_spans(st)) for st in stages},
        cpu_scale={st: statistics.median(s.attrs["scale"] for s in stage_spans(st))
                   for st in stages},
    )
    return outcome


def trace(wl: Workload, seed: int, work: Path) -> Outcome:
    """Traced run: per-layer metrics, checked against an untraced pass."""
    outcome = Outcome()
    warm_up(wl, seed, work, outcome)
    pipe = Pipeline(wl, seed, work, outcome)
    plain = Tracer()
    pipe.synth(plain)
    passes = [pipe.run_pass(plain, wl.jobs)]

    main = Tracer()
    with probes.installed(main):
        pipe.synth(main)
        passes.append(pipe.run_pass(main, wl.jobs))
    serial = main
    if wl.jobs > 1:
        serial = Tracer()
        with probes.installed(serial):
            passes.append(pipe.run_pass(serial, 1))
    check_passes(outcome, wl, seed, passes)

    values = probes.layer_metrics(
        main, serial, wl.jobs,
        untraced_pipeline_s=pipeline_seconds(plain),
        traced_pipeline_s=pipeline_seconds(main),
    )
    outcome.metrics = {name: (values[name], unit) for name, unit, _ in probes.LAYER_METRICS}
    outcome.info.update(inputs=pipe.inputs(), passes=len(passes))
    return outcome


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(f"== {name}\n{child.stdout}", end="", flush=True)
        worst = max(worst, child.returncode)
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{metric}": value for metric, value in result["metrics"].items()}
        )
    print(json.dumps(merged))
    return worst


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    import_simreal()
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            outcome = trace(wl, args.seed, work)
        else:
            outcome = measure(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    width = max(len(name) for name in outcome.metrics)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<{width}}  {value:>16.6f}  {unit}")
    if not args.trace:
        error_rate = outcome.failed / outcome.attempted
        print(f"{'error_rate':<{width}}  {error_rate:>16.6f}  ratio")
    for problem in outcome.problems:
        print(f"bench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(), **outcome.info}, sort_keys=True))
    print(json.dumps(outcome.result()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
