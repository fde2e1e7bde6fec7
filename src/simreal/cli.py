"""Command-line interface.

Subcommands wire the pipeline end to end:

    simreal synth     --template all --count 6 --seed 0 --out scenarios/
    simreal rollout   --scenarios scenarios/ --env-policy constant-velocity \
                      --av-policy constant-velocity --k 32 --seed 0 --out sub.tar.gz
    simreal validate  --archive sub.tar.gz --scenarios scenarios/
    simreal evaluate  --archive sub.tar.gz --scenarios scenarios/ --out report.json
    simreal compare   --reports report_a.json report_b.json

The submission contract lives in ``io.match_scenarios`` and
``scene.rollout_problems``.  Exit codes (0 is success; README has details):

    synth     2  bad --count, --agents, --seed, --noise or an occupied --out
    rollout   1  a failed audit;  2  bad scenarios, --k, --seed, --jobs,
                 --replan-interval or policy option;  3  a non-finite policy
                 output or rollouts that break the contract (no archive)
    validate  1  contract violations, or a count other than --expected-rollouts
              2  unreadable archive, bad scenarios or an --expected-rollouts
                 below 1
    evaluate  2  unreadable archive or config, bad scenarios or --jobs, a
                 contract violation, or a non-finite feature (no report)
    compare   2  a report that is not JSON, or whose composite is not a number
                 in [0, 1] or whose ADE or minADE is not a finite number >= 0

``SIMREAL_CONFIG`` sets the default config path for ``evaluate``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import io as sio
from .config import DEFAULT_CONFIG, EvalConfig
from .errors import InvalidOption, ParseError, PolicyContractViolation, SimRealError
from .evaluate import contiguous_chunks, evaluate_dataset, fan_out
from .harness import SEED_LIMIT, audit_trace, generate_submission, rollout_batches
from .plots import component_bar_chart, replan_curve, save_svg
from .policies import POLICY_REGISTRY, create_policy
from .scene import simulated_object_ids
from .synth import Template, generate, suite_specs

CONFIG_ENV_VAR = "SIMREAL_CONFIG"


def _parse_opts(pairs: list[str] | None, flag: str) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InvalidOption(f"{flag} expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            out[key] = float(raw)
        except ValueError:
            out[key] = raw
    return out


def _add_jobs(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="worker processes across scenarios (default: available cores)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simreal", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic scenarios with sidecar fixtures")
    p.add_argument("--template", default="all",
                   choices=[t.value for t in Template] + ["all"])
    p.add_argument("--count", type=int, default=6, help="number of scenarios")
    p.add_argument("--agents", type=int, default=None, help="agents per scenario (template default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.25, help="initial-condition noise in [0, 0.5]")
    p.add_argument("--format", default="json", choices=["json", "binary"])
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("rollout", help="run closed-loop rollouts and package a submission")
    p.add_argument("--scenarios", required=True, type=Path)
    p.add_argument("--env-policy", required=True, choices=sorted(POLICY_REGISTRY))
    p.add_argument("--av-policy", required=True, choices=sorted(POLICY_REGISTRY))
    p.add_argument("--k", type=int, default=32, help="rollouts per scenario")
    p.add_argument("--replan-interval", type=int, default=1,
                   help="steps a plan is held before re-inference (1 = fully closed loop)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--env-opt", action="append", metavar="KEY=VALUE")
    p.add_argument("--av-opt", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True, type=Path)
    _add_jobs(p)

    p = sub.add_parser("validate", help="check a submission archive against its scenarios")
    p.add_argument("--archive", required=True, type=Path)
    p.add_argument("--scenarios", required=True, type=Path)
    p.add_argument("--expected-rollouts", type=int, default=32)

    p = sub.add_parser("evaluate", help="score archives against logged scenarios")
    p.add_argument("--archive", required=True, action="append", type=Path,
                   help="repeatable; multiple archives also emit replan-curve data")
    p.add_argument("--scenarios", required=True, type=Path)
    p.add_argument("--config", type=Path, default=None,
                   help=f"evaluation config (default: ${CONFIG_ENV_VAR} or built-ins)")
    p.add_argument("--out", required=True, type=Path, help="report JSON path")
    p.add_argument("--csv", type=Path, default=None)
    p.add_argument("--plot", type=Path, default=None, help="directory for SVG charts")
    _add_jobs(p)

    p = sub.add_parser("compare", help="rank reports by composite, ADE, and minADE")
    p.add_argument("--reports", required=True, nargs="+", type=Path)
    return parser


def _cmd_synth(args) -> int:
    if args.count < 1:
        raise InvalidOption(f"--count must be >= 1, got {args.count}")
    templates = list(Template) if args.template == "all" else [Template(args.template)]
    try:
        specs = suite_specs(templates, args.count, args.seed, args.noise, args.agents)
    except ValueError as exc:
        raise InvalidOption(f"synth: {exc}") from exc
    items = [generate(spec) for spec in specs]
    written = sio.write_scenario_dir(items, args.out, fmt=args.format)
    manifest = {
        "seed": args.seed,
        "count": args.count,
        "noise": specs[0].noise_level,  # as clamped into [0, 0.5]
        "template": args.template,
        "scenario_ids": [item.scenario.scenario_id for item in items],
    }
    (args.out / sio.SYNTH_MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True))
    print(f"wrote {len(written)} scenarios (+fixtures) to {args.out} [seed={args.seed}]")
    return 0


def _rollout_chunk(packed):
    """(record, audit ok) of each scenario of one worker's chunk, rolled out batch by batch.

    Each record is encoded and compressed here, in the worker
    (``io.encode_rollouts``), so only archive bytes travel back to the parent.
    """
    chunk, env_name, av_name, env_opts, av_opts, k, interval, seed = packed
    results = []
    for batch in rollout_batches(chunk):
        env_policy = create_policy(env_name, batch, env_opts)
        av_policy = create_policy(av_name, batch, av_opts)
        bundles, traces = generate_submission(
            batch, av_policy, env_policy, k=k, base_seed=seed, with_traces=True,
            replan_interval=interval,
        )
        for rollouts, mine in zip(bundles, traces):
            ok = all(
                audit_trace(trace, poses, rollouts.ids).ok
                for trace, poses in zip(mine, rollouts.rollouts)
            )
            results.append((sio.encode_rollouts(rollouts), ok))
    return results


def _cmd_rollout(args) -> int:
    if args.k < 1 or not 0 <= args.seed <= SEED_LIMIT - args.k:
        raise InvalidOption(f"--k must be >= 1 and --seed in [0, 2**64 - k], "
                            f"got k={args.k} seed={args.seed}")
    if args.replan_interval < 1:
        raise InvalidOption(f"--replan-interval must be >= 1, got {args.replan_interval}")
    scenarios = sio.read_scenario_dir(args.scenarios)
    env_opts = _parse_opts(args.env_opt, "--env-opt")
    av_opts = _parse_opts(args.av_opt, "--av-opt")
    ordered = [scn for _, scn in sorted(scenarios.items())]
    rows = [len(simulated_object_ids(scn)) for scn in ordered]
    work = [
        (chunk, args.env_policy, args.av_policy, env_opts, av_opts,
         args.k, args.replan_interval, args.seed)
        for chunk in contiguous_chunks(ordered, rows, args.jobs)
    ]
    results = [result for chunk in fan_out(_rollout_chunk, work, args.jobs) for result in chunk]

    # Plans held for more than one step make the rollouts hybrid open/closed loop.
    tag = "hybrid" if args.replan_interval > 1 else "closed-loop"
    failed = []
    for (scn_id, _), (_, ok) in zip(sorted(scenarios.items()), results):
        status = "ok" if ok else "AUDIT FAILED"
        print(f"{scn_id}: {args.k} rollouts, audit {status}, "
              f"{tag} (replan={args.replan_interval})")
        if not ok:
            failed.append(scn_id)
    if failed:
        print(f"error: audit failed for {len(failed)} scenario(s): {', '.join(failed)}; "
              f"no archive written", file=sys.stderr)
        return 1

    manifest = {
        "env_policy": args.env_policy,
        "av_policy": args.av_policy,
        "env_options": env_opts,
        "av_options": av_opts,
        "rollouts_per_scenario": args.k,
        "replan_interval": args.replan_interval,
        "seed": args.seed,
    }
    sio.write_submission(args.out, [record for record, _ in results], manifest)
    print(f"archive written to {args.out} [seed={args.seed}]")
    return 0


def _cmd_validate(args) -> int:
    if args.expected_rollouts < 1:
        raise InvalidOption(f"--expected-rollouts must be >= 1, got {args.expected_rollouts}")
    scenarios = sio.read_scenario_dir(args.scenarios)
    report = sio.validate_submission(args.archive, scenarios, args.expected_rollouts)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _load_config(path: Path | None) -> EvalConfig:
    if path is None:
        env = os.environ.get(CONFIG_ENV_VAR)
        if env:
            path = Path(env)
    if path is None:
        return DEFAULT_CONFIG
    return sio.load_config(path)


def _cmd_evaluate(args) -> int:
    scenarios = sio.read_scenario_dir(args.scenarios)
    config = _load_config(args.config)
    multi = len(args.archive) > 1
    archives = []
    for archive_path in args.archive:
        archive = sio.read_submission(archive_path)
        by_scenario, problems = sio.match_scenarios(archive, scenarios)
        if problems:
            by_code: dict[str, list[sio.Violation]] = {}
            for v in problems:
                by_code.setdefault(v.code, []).append(v)
            raise ParseError(
                "archive breaks the submission contract: " + "; ".join(
                    f"{code} {', '.join(v.scenario_id for v in vs)} ({vs[0].detail})"
                    for code, vs in by_code.items()
                ),
                path=str(archive_path),
            )
        archives.append((archive_path, archive, by_scenario))
    curve_points = []
    for idx, (archive_path, archive, by_scenario) in enumerate(archives):
        pairs = [(scenarios[sid], by_scenario[sid]) for sid in sorted(scenarios)]
        bundles, summary = evaluate_dataset(pairs, config, jobs=args.jobs)

        out = args.out if not multi else args.out.with_suffix(f".{idx}{args.out.suffix}")
        extra = {"archive": str(archive_path), "archive_manifest": dict(archive.manifest)}
        sio.write_report(bundles, summary, out, "json", config=config, extra=extra)
        if args.csv is not None:
            csv_path = args.csv if not multi else args.csv.with_suffix(f".{idx}{args.csv.suffix}")
            sio.write_report(bundles, summary, csv_path, "csv")
        if args.plot is not None:
            args.plot.mkdir(parents=True, exist_ok=True)
            chart = component_bar_chart(
                summary.component_means,
                title=f"component likelihoods: {archive_path.name}",
            )
            stem = archive_path.name.partition(".")[0]
            save_svg(chart, args.plot / f"components.{stem}.svg")
        interval = archive.manifest.get("replan_interval")
        # A manifest from outside may hold anything: only an interval as rollout writes it,
        # a JSON integer >= 1, goes on the curve (a bool is an int in Python).
        if type(interval) is int and interval >= 1:
            curve_points.append((float(interval), summary.composite))
        print(f"{archive_path.name}: composite={summary.composite:.6f} "
              f"ade={summary.mean_ade:.3f} min_ade={summary.mean_min_ade:.3f} "
              f"({summary.scenario_count} scenarios)")

    if multi and len(curve_points) >= 2:
        curve_path = args.out.with_suffix(".replan_curve.json")
        curve_path.write_text(json.dumps(
            {"points": [{"replan_interval": x, "composite": y} for x, y in sorted(curve_points)]},
            indent=1,
        ))
        if args.plot is not None:
            save_svg(replan_curve(curve_points), args.plot / "replan_curve.svg")
        print(f"replan curve data written to {curve_path}")
    return 0


# The summary scores compare ranks: each must be a JSON number in [0, high].
# A float bound excludes NaN, the infinities and integers too large for a float.
_SCORE_BOUNDS = {
    "composite": (1.0, "in [0, 1]"),
    "mean_ade": (sys.float_info.max, ">= 0"),
    "mean_min_ade": (sys.float_info.max, ">= 0"),
}


def _summary_score(summary: dict, key: str, path: Path) -> float:
    value = summary.get(key)
    high, what = _SCORE_BOUNDS[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0.0 <= value <= high):
        raise ParseError(
            f"summary {key} must be a finite number {what}, got {value!r}", path=str(path)
        )
    return float(value)


def _cmd_compare(args) -> int:
    rows = []
    for path in args.reports:
        doc = sio.read_report(path)
        summary = doc.get("summary") if isinstance(doc, dict) else None
        if not isinstance(summary, dict):
            raise ParseError("report has no summary section", path=str(path))
        rows.append((path.stem, *(_summary_score(summary, key, path) for key in _SCORE_BOUNDS)))

    def ranks(key, reverse):
        order = sorted(range(len(rows)), key=lambda i: rows[i][key], reverse=reverse)
        out = [0] * len(rows)
        for rank, i in enumerate(order, start=1):
            out[i] = rank
        return out

    comp_rank = ranks(1, reverse=True)   # higher composite is better
    ade_rank = ranks(2, reverse=False)   # lower displacement is better
    min_ade_rank = ranks(3, reverse=False)

    name_w = max(len(r[0]) for r in rows)
    header = f"{'report'.ljust(name_w)}  composite(rank)      ade(rank)       min_ade(rank)"
    print(header)
    print("-" * len(header))
    for i, (name, comp, a, ma) in enumerate(rows):
        print(f"{name.ljust(name_w)}  {comp:9.6f} (#{comp_rank[i]})   "
              f"{a:9.3f} (#{ade_rank[i]})   {ma:9.3f} (#{min_ade_rank[i]})")
    if comp_rank != ade_rank:
        print("note: ranking by composite disagrees with ranking by ADE")
    if comp_rank != min_ade_rank:
        print("note: ranking by composite disagrees with ranking by minADE")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "rollout": _cmd_rollout,
        "validate": _cmd_validate,
        "evaluate": _cmd_evaluate,
        "compare": _cmd_compare,
    }
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InvalidOption(f"--jobs must be >= 1, got {args.jobs}")
        return handlers[args.command](args)
    except PolicyContractViolation as exc:
        print(f"policy contract violation: {exc}", file=sys.stderr)
        return 3
    except (SimRealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
