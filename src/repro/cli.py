"""Command-line interface for the assessment pipeline.

Subcommands mirror the methodology stages::

    repro run          # full pipeline + printed report (optionally --json out)
    repro serve        # host the vetting service, drive a scripted burst
    repro honeypot     # dynamic analysis only
    repro traceability # website crawl + keyword traceability only
    repro code         # GitHub crawl + check detection only
    repro platforms    # list the simulated platform security profiles

All work runs against the built-in synthetic world; ``--bots`` scales it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.report import render_full_report
from repro.core.serialize import save_result
from repro.core.storage import STORAGE_EXIT_CODE, STORAGE_PROFILES, StorageError, install_disk_chaos
from repro.web.chaos import PROFILES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    parser.add_argument("--bots", type=int, default=2_000, help="population size (default 2000)")
    parser.add_argument("--seed", type=int, default=2022, help="world seed (default 2022)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="full pipeline, print the report")
    run.add_argument("--honeypot-sample", type=int, default=None, help="bots to honeypot-test")
    run.add_argument("--json", dest="json_path", default=None, help="also save results as JSON")
    run.add_argument("--markdown", dest="markdown_path", default=None, help="also save a Markdown report")
    run.add_argument("--include-bots", action="store_true", help="include per-bot records in JSON")
    run.add_argument("--chaos", default=None, choices=sorted(PROFILES),
                     help="inject faults from a named chaos profile")
    run.add_argument("--chaos-seed", type=int, default=0, help="fault schedule seed (default 0)")
    run.add_argument("--checkpoint", dest="checkpoint_path", default=None,
                     help="stage-granular checkpoint file; resumes completed stages if present")
    run.add_argument("--journal", dest="journal_path", default=None,
                     help="intra-stage write-ahead journal; resumes mid-stage after a crash "
                          "(shard journals live beside it as <path>.shard<k>)")
    run.add_argument("--journal-fsync-every", type=int, default=1, metavar="N",
                     help="journal fsync cadence: 1 fsyncs every record (default), N batches "
                          "(widens the torn-tail window to N-1 records), 0 never fsyncs")
    run.add_argument("--disk-chaos", default=None, choices=sorted(STORAGE_PROFILES),
                     help="inject storage faults (ENOSPC/EIO/short writes/lost fsyncs/bit rot) "
                          "from a named disk-chaos profile")
    run.add_argument("--disk-chaos-seed", type=int, default=0,
                     help="storage fault schedule seed (default 0)")
    run.add_argument("--crashpoint", dest="crashpoint", default=None, metavar="NAME[:N]",
                     help="debug: abort the process the Nth time the named crash point "
                          "is reached (default N=1); see repro.core.crashpoints.REGISTRY")
    run.add_argument("--stream", action="store_true",
                     help="generate the population lazily and run in fixed-size chunks "
                          "(bounded memory, byte-identical output)")
    run.add_argument("--chunk-size", type=int, default=2_048,
                     help="bots per streamed chunk (default 2048; needs --stream)")
    run.add_argument("--shards", type=int, default=1,
                     help="deterministic shards for stages 2-4 (default 1 = sequential)")
    run.add_argument("--parallel", action="store_true",
                     help="run shard buckets in worker processes instead of one after "
                          "another in this process (same byte-identical output, actual "
                          "multi-core speedup; needs --shards > 1)")
    run.add_argument("--metrics", action="store_true",
                     help="print per-stage/per-shard run metrics after the report")
    run.add_argument("--max-bot-events", type=int, default=None,
                     help="gateway event budget per supervised bot (0 = unlimited)")
    run.add_argument("--bot-deadline", type=float, default=None,
                     help="virtual-second deadline per supervised bot unit (0 = unlimited)")
    run.add_argument("--adversarial", type=int, default=0,
                     help="plant N crasher/flooder/staller bots into the honeypot sample "
                          "(supervision self-test)")

    honeypot = subparsers.add_parser("honeypot", help="dynamic analysis only")
    honeypot.add_argument("--sample", type=int, default=100, help="most-voted bots to test")

    subparsers.add_parser("traceability", help="traceability analysis only")
    subparsers.add_parser("code", help="code analysis only")
    subparsers.add_parser("platforms", help="list simulated platform profiles")
    subparsers.add_parser("plan", help="estimate campaign cost/duration")

    longitudinal = subparsers.add_parser("longitudinal", help="multi-epoch drift study")
    longitudinal.add_argument("--epochs", type=int, default=3, help="snapshots to evolve")

    vet = subparsers.add_parser("vet", help="run the vetting gate over the population")
    vet.add_argument("--dynamic", action="store_true", help="include the sandbox honeypot stage (slow)")

    serve = subparsers.add_parser(
        "serve", help="host the long-lived vetting service and drive a scripted load burst"
    )
    serve.add_argument("--chaos", default=None, choices=sorted(PROFILES),
                       help="inject faults from a named chaos profile")
    serve.add_argument("--chaos-seed", type=int, default=0, help="fault schedule seed (default 0)")
    serve.add_argument("--disk-chaos", default=None, choices=sorted(STORAGE_PROFILES),
                       help="inject storage faults into the persisted service state")
    serve.add_argument("--disk-chaos-seed", type=int, default=0,
                       help="storage fault schedule seed (default 0)")
    serve.add_argument("--state", dest="state_path", default=None,
                       help="persist the verdict cache and counters to this path on shutdown "
                            "and scrub-load them on startup (restarts keep their memory)")
    serve.add_argument("--waves", type=int, default=4, help="request waves to fire (default 4)")
    serve.add_argument("--requests", type=int, default=30, help="requests per wave (default 30)")
    serve.add_argument("--wave-gap", type=float, default=1_800.0,
                       help="virtual seconds between waves (default 1800)")
    serve.add_argument("--repeat-fraction", type=float, default=0.6,
                       help="fraction of requests re-targeting vetted bots (default 0.6)")
    serve.add_argument("--audit-every", type=int, default=0,
                       help="every Nth request audits a guild roster (0 = never)")
    serve.add_argument("--update-every", type=int, default=0,
                       help="every Nth request posts a listing update (0 = never)")
    serve.add_argument("--workers", type=int, default=0,
                       help="vet-worker processes (0 = in-process, default)")
    serve.add_argument("--clients", type=int, default=1,
                       help="interleaved virtual clients (default 1); --requests is per client")
    serve.add_argument("--kill-at-wave", type=int, default=None,
                       help="SIGKILL --kill-workers pool workers halfway through this wave")
    serve.add_argument("--kill-workers", type=int, default=2,
                       help="workers to kill in the kill-storm (default 2)")
    serve.add_argument("--restart-at-wave", type=int, default=None,
                       help="kill + restart the service at the start of this wave")
    serve.add_argument("--queue-capacity", type=int, default=None,
                       help="admission queue bound (default from ServicePolicy)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request virtual-second deadline budget")
    serve.add_argument("--observation", type=float, default=None,
                       help="serving-mode honeypot observation window (virtual seconds)")
    serve.add_argument("--json", dest="json_path", default=None, help="save the run report as JSON")
    serve.add_argument("--metrics", action="store_true", help="print serving metrics after the report")

    subparsers.add_parser("compare", help="run the pipeline and score it against the paper's numbers")
    return parser


def _config(args: argparse.Namespace, **overrides) -> PipelineConfig:
    config = PipelineConfig(seed=args.seed).scaled(
        args.bots, honeypot_sample_size=overrides.pop("honeypot_sample_size", min(200, args.bots))
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    sample = args.honeypot_sample if args.honeypot_sample is not None else min(200, args.bots)
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_size < 1:
        print("--chunk-size must be >= 1", file=sys.stderr)
        return 2
    overrides = {}
    if args.max_bot_events is not None:
        overrides["max_bot_events"] = args.max_bot_events
    if args.bot_deadline is not None:
        overrides["bot_deadline"] = args.bot_deadline
    config = _config(
        args,
        honeypot_sample_size=sample,
        chaos_profile=args.chaos,
        chaos_seed=args.chaos_seed,
        checkpoint_path=args.checkpoint_path,
        journal_path=args.journal_path,
        stream=args.stream,
        chunk_size=args.chunk_size,
        shards=args.shards,
        parallel=args.parallel,
        adversarial_bots=args.adversarial,
        journal_fsync_every=args.journal_fsync_every,
        disk_chaos=args.disk_chaos,
        disk_chaos_seed=args.disk_chaos_seed,
        **overrides,
    )
    if args.crashpoint:
        import os

        from repro.core.crashpoints import ENV_CRASH_AT, REGISTRY, parse_arm

        name, _ = parse_arm(args.crashpoint)
        if name not in REGISTRY:
            print(f"unknown crash point {name!r}; choose from: {', '.join(REGISTRY)}", file=sys.stderr)
            return 2
        os.environ[ENV_CRASH_AT] = args.crashpoint
    result = AssessmentPipeline(config).run()
    print(render_full_report(result))
    if result.degraded:
        statuses = ", ".join(f"{stage}={status}" for stage, status in sorted(result.stage_status.items()))
        print(f"\nDegraded run: {result.fault_ledger.summary_line()}")
        print(f"Stage status: {statuses}")
    if result.quarantines:
        print(f"Supervision: {result.quarantines.summary_line()}")
        for record in result.quarantines.records:
            print(f"  quarantined {record.bot_name} [{record.stage}] — {record.reason} ({record.root_cause})")
    failed = result.failed_stages
    if failed:
        print(f"Failed stage(s): {', '.join(failed)} — their summaries are omitted (no data, not zeros).")
    if args.metrics:
        print()
        print(result.metrics.render())
    if args.json_path:
        path = save_result(result, args.json_path, include_bots=args.include_bots)
        print(f"\nResults saved to {path}")
    if args.markdown_path:
        from pathlib import Path

        from repro.core.markdown_report import render_markdown_report

        Path(args.markdown_path).write_text(render_markdown_report(result))
        print(f"Markdown report saved to {args.markdown_path}")
    return 0


def _cmd_honeypot(args: argparse.Namespace) -> int:
    config = _config(
        args,
        honeypot_sample_size=args.sample,
        run_traceability=False,
        run_code_analysis=False,
        resolve_permissions=False,
    )
    pipeline = AssessmentPipeline(config)
    report = pipeline.run_honeypot()
    print(f"Tested {report.bots_tested} bots ({report.install_failures} install failures).")
    print(f"Manual verifications: {report.manual_verifications}; captcha spend ${report.captcha_cost:.2f}")
    if report.flagged_bots:
        for outcome in report.flagged_bots:
            kinds = ", ".join(sorted(kind.value for kind in outcome.trigger_kinds))
            print(f"FLAGGED: {outcome.bot_name} — tokens: {kinds}; messages: {list(outcome.suspicious_messages)}")
    else:
        print("No unauthorized access detected.")
    print(f"precision={report.precision:.2f} recall={report.recall:.2f}")
    return 0


def _cmd_traceability(args: argparse.Namespace) -> int:
    config = _config(args, run_code_analysis=False, run_honeypot=False)
    result = AssessmentPipeline(config).run()
    summary = result.traceability_summary
    assert summary is not None
    for feature, count, percent in summary.table2():
        print(f"{feature:26s} {count:7d}  {percent:6.2f}%")
    counts = summary.classification_counts()
    print(f"complete={counts['complete']} partial={counts['partial']} broken={counts['broken']}")
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    config = _config(args, run_traceability=False, run_honeypot=False)
    result = AssessmentPipeline(config).run()
    code = result.code_summary
    assert code is not None
    print(f"github links: {code.github_links} ({code.github_link_percent:.2f}% of active)")
    print(f"valid repos : {code.valid_repos} ({code.valid_repo_percent_of_links:.2f}% of links)")
    for language, analyzed, checks, percent in code.check_table():
        print(f"{language:11s} analyzed={analyzed:5d} with_checks={checks:5d} ({percent:.2f}%)")
    return 0


def _cmd_platforms(args: argparse.Namespace) -> int:
    from repro.platforms import PLATFORM_PROFILES

    for name, profile in sorted(PLATFORM_PROFILES.items()):
        enforcer = "runtime enforcer" if profile.runtime_enforcer else "developer-trusted checks"
        vetting = "vetted marketplace" if profile.marketplace_vetting else "no review gate"
        print(f"{name:10s} {enforcer:26s} {vetting:20s} — {profile.notes}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import estimate_campaign

    config = _config(args)
    estimate = estimate_campaign(config)
    print(f"Campaign plan for {config.n_bots} bots "
          f"(honeypot sample {config.honeypot_sample_size}):")
    print("  " + estimate.summary())
    return 0


def _cmd_longitudinal(args: argparse.Namespace) -> int:
    from repro.analysis.longitudinal import compare_snapshots, trend
    from repro.ecosystem.evolution import evolve_ecosystem
    from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem

    snapshots = [generate_ecosystem(EcosystemConfig(n_bots=args.bots, seed=args.seed))]
    for epoch in range(args.epochs):
        next_snapshot, _ = evolve_ecosystem(snapshots[-1], seed=args.seed + 1 + epoch)
        snapshots.append(next_snapshot)
    for epoch in range(len(snapshots) - 1):
        delta = compare_snapshots(snapshots[epoch], snapshots[epoch + 1])
        print(
            f"epoch {epoch}->{epoch + 1}: +{len(delta.added_bots)} bots, "
            f"-{len(delta.removed_bots)}, {delta.escalation_count} escalations "
            f"({len(delta.gained_administrator())} gained admin), "
            f"{len(delta.policy_adopters)} adopted policies"
        )
    for point in trend(snapshots):
        print(
            f"epoch {point.epoch}: {point.total_bots} bots, admin {point.admin_rate * 100:.2f}%, "
            f"policy {point.policy_rate * 100:.2f}%, mean risk {point.mean_risk:.3f}"
        )
    return 0


def _cmd_vet(args: argparse.Namespace) -> int:
    from repro.core.vetting import VettingPipeline, VettingPolicy
    from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem

    ecosystem = generate_ecosystem(EcosystemConfig(n_bots=args.bots, seed=args.seed))
    active = [bot for bot in ecosystem.bots if bot.has_valid_permissions]
    pipeline = VettingPipeline(VettingPolicy(run_dynamic_review=args.dynamic), seed=args.seed)
    report = pipeline.vet_population(active)
    total = len(report.verdicts)
    print(f"Vetted {total} active bots: {len(report.approved)} approved, {len(report.rejected)} rejected "
          f"({len(report.rejected) / total:.1%}).")
    for reason, count in sorted(report.rejection_reasons().items(), key=lambda item: -item[1]):
        print(f"  {count:6d}  {reason}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses as _dataclasses

    from repro.core.metrics import RunMetrics
    from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
    from repro.serving import LoadScript, ServicePolicy, ServingHarness, VettingService
    from repro.sites.botwebsites import BotWebsiteBuilder
    from repro.web.network import VirtualClock, VirtualInternet

    ecosystem = generate_ecosystem(EcosystemConfig(n_bots=args.bots, seed=args.seed))
    clock = VirtualClock()
    internet = VirtualInternet(clock, seed=args.seed)
    BotWebsiteBuilder(ecosystem).register(internet)
    if args.chaos is not None:
        from repro.web.chaos import FaultSchedule

        internet.install_chaos(FaultSchedule(args.chaos, seed=args.chaos_seed))
    if args.disk_chaos is not None:
        install_disk_chaos(args.disk_chaos, seed=args.disk_chaos_seed)

    policy = ServicePolicy()
    overrides = {}
    if args.queue_capacity is not None:
        overrides["queue_capacity"] = args.queue_capacity
    if args.deadline is not None:
        overrides["deadline"] = args.deadline
    if args.observation is not None:
        overrides["honeypot_observation"] = args.observation
    if overrides:
        policy = _dataclasses.replace(policy, **overrides)

    service = VettingService(
        internet, ecosystem.bots, policy=policy, seed=args.seed, workers=args.workers,
        state_path=args.state_path,
    )
    if args.audit_every:
        for index in range(3):
            roster = [bot.name for bot in ecosystem.bots[index * 5 : index * 5 + 5]]
            service.register_guild(f"community-{index}", roster)

    harness = ServingHarness(internet, service, seed=args.seed)
    script = LoadScript(
        waves=args.waves,
        requests_per_wave=args.requests,
        wave_gap=args.wave_gap,
        repeat_fraction=args.repeat_fraction,
        audit_every=args.audit_every,
        update_every=args.update_every,
        restart_at_wave=args.restart_at_wave,
        clients=args.clients,
        kill_workers_at_wave=args.kill_at_wave,
        kill_workers=args.kill_workers,
    )
    chaos_note = f" under {args.chaos!r} chaos" if args.chaos else ""
    pool_note = f" with {args.workers} vet workers" if args.workers else ""
    print(
        f"Serving {len(ecosystem.bots)} listed bots on https://{service.hostname}"
        f"{pool_note}{chaos_note}..."
    )
    try:
        report = harness.run(script)
    finally:
        harness.service.shutdown()
    for line in report.summary_lines():
        print(line)
    if args.metrics:
        metrics = RunMetrics()
        metrics.serving = harness.service.metrics.to_dict()
        if report.pool is not None:
            metrics.serving["pool"] = report.pool
        print()
        print(metrics.render())
    if args.json_path:
        import json as _json
        from pathlib import Path

        payload = report.to_dict()
        Path(args.json_path).write_text(_json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nRun report saved to {args.json_path}")
    if not report.contract_ok:
        print("Serving contract VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.paper import compare_with_paper

    config = _config(args)
    result = AssessmentPipeline(config).run()
    report = compare_with_paper(result)
    print(report.render())
    verdict = "REPRODUCED" if report.all_within_tolerance else "DRIFTED"
    print(f"\n{len(report.rows)} metrics compared at scale {config.n_bots}: {verdict}")
    return 0 if report.all_within_tolerance else 1


_COMMANDS = {
    "run": _cmd_run,
    "vet": _cmd_vet,
    "serve": _cmd_serve,
    "compare": _cmd_compare,
    "honeypot": _cmd_honeypot,
    "traceability": _cmd_traceability,
    "code": _cmd_code,
    "platforms": _cmd_platforms,
    "plan": _cmd_plan,
    "longitudinal": _cmd_longitudinal,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StorageError as error:
        # Same typed exit the crash driver uses: a disk fault is a loud,
        # classified death, distinguishable from any bug of our own.
        print(f"STORAGE_ERROR {type(error).__name__}: {error}", file=sys.stderr)
        return STORAGE_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
