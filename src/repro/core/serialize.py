"""Result serialization: persist a pipeline run as JSON.

A measurement campaign's output should outlive the process — this module
flattens a :class:`~repro.core.results.PipelineResult` into a JSON-able
dict (all tables, headline stats, per-bot records on request) and back-
loads the summary for later comparison runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.results import PipelineResult

SCHEMA_VERSION = 1


def result_to_dict(result: PipelineResult, include_bots: bool = False) -> dict[str, Any]:
    """Flatten a pipeline result.  ``include_bots`` adds per-bot records."""
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "bots_collected": result.bots_collected,
        "active_bots": result.active_bots,
        "virtual_seconds": result.virtual_seconds,
        "wall_seconds": result.wall_seconds,
        "captcha_dollars": result.captcha_dollars,
        "scrape_stats": {
            "pages_fetched": result.scrape_stats.pages_fetched,
            "rate_limited": result.scrape_stats.rate_limited,
            "captchas_seen": result.scrape_stats.captchas_seen,
            "captchas_solved": result.scrape_stats.captchas_solved,
            "timeouts": result.scrape_stats.timeouts,
            "malformed_retry_after": result.scrape_stats.malformed_retry_after,
            "circuit_short_circuits": result.scrape_stats.circuit_short_circuits,
            "retries_denied": result.scrape_stats.retries_denied,
        },
        "summary_lines": result.summary_lines(),
        "stage_status": dict(result.stage_status),
        "failed_stages": result.failed_stages,
        "fault_ledger": result.fault_ledger.to_dict(),
        "quarantine": {
            "count": len(result.quarantines),
            "by_reason": result.quarantines.by_reason(),
            "bots": [record.to_dict() for record in result.quarantines.records],
        },
        "metrics": result.metrics.to_dict(),
    }

    dist = result.permission_distribution
    if dist is not None:
        payload["figure3"] = {
            "valid_fraction": dist.valid_fraction,
            "series": dist.fig3_series(),
            "send_messages_percent": dist.send_messages_percent,
            "administrator_percent": dist.administrator_percent,
            "admin_with_extras_fraction": dist.admin_with_extras_fraction,
            "invalid_breakdown": dist.invalid_breakdown(),
        }

    developers = result.developer_distribution
    if developers is not None:
        prolific_tag, prolific_count = developers.most_prolific()
        payload["table1"] = {
            "rows": developers.table1(),
            "total_developers": developers.total_developers,
            "most_prolific": {"developer": prolific_tag, "bots": prolific_count},
        }

    trace = result.traceability_summary
    if trace is not None:
        payload["table2"] = {
            "rows": trace.table2(),
            "classes": trace.classification_counts(),
            "broken_fraction": trace.broken_fraction,
            "generic_fraction_of_valid": trace.generic_fraction_of_valid,
        }
        if result.validation is not None:
            payload["validation"] = {
                "sample_size": result.validation.sample_size,
                "misclassified": result.validation.misclassified,
                "accuracy": result.validation.accuracy,
            }

    code = result.code_summary
    if code is not None:
        payload["code_analysis"] = {
            "github_link_percent": code.github_link_percent,
            "valid_repo_percent_of_links": code.valid_repo_percent_of_links,
            "source_percent_of_active": code.source_percent_of_active,
            "language_counts": code.language_counts(),
            "check_table": code.check_table(),
        }

    honeypot = result.honeypot
    if honeypot is not None:
        payload["honeypot"] = {
            "bots_tested": honeypot.bots_tested,
            "bots_processed": honeypot.bots_processed,
            "bots_quarantined": honeypot.bots_quarantined,
            "quarantined": [
                {"bot_name": outcome.bot_name, "reason": outcome.quarantine_reason}
                for outcome in honeypot.quarantined_bots
            ],
            "install_failures": honeypot.install_failures,
            "manual_verifications": honeypot.manual_verifications,
            "captcha_cost": honeypot.captcha_cost,
            "precision": honeypot.precision,
            "recall": honeypot.recall,
            "flagged": [
                {
                    "bot_name": outcome.bot_name,
                    "trigger_kinds": sorted(kind.value for kind in outcome.trigger_kinds),
                    "suspicious_messages": list(outcome.suspicious_messages),
                }
                for outcome in honeypot.flagged_bots
            ],
        }

    if include_bots:
        payload["bots"] = [
            {
                "listing_id": bot.listing_id,
                "name": bot.name,
                "developer": bot.developer_tag,
                "tags": list(bot.tags),
                "guild_count": bot.guild_count,
                "votes": bot.votes,
                "permission_status": bot.permission_status.value,
                "permissions": list(bot.permission_names),
                "website_url": bot.website_url,
                "github_url": bot.github_url,
            }
            for bot in result.crawl.bots
        ]
    return payload


#: Ledger stages describing *this process's* recovery, not the campaign.
#: Nothing records ``checkpoint`` any more, but ledgers inside checkpoints
#: saved by earlier versions can still carry it.
_PROVENANCE_STAGES = ("journal", "checkpoint", "storage")


def comparable_result(payload: dict[str, Any]) -> dict[str, Any]:
    """Canonicalize a result dict for crashed-vs-golden comparison.

    A resumed run must produce the *same measurement* as an uninterrupted
    one, but not the same process history.  This strips exactly the fields
    that describe process history and nothing else:

    - wall-clock seconds (top level and per stage) — host timing;
    - journal counters and per-stage ``resumed`` flags;
    - fault-ledger records with the reserved provenance stages
      (``journal`` / ``checkpoint`` / ``storage``), with the "Absorbed N faults" summary
      line regenerated from what remains;
    - ``stage_status`` values of ``resumed``, mapped back to the outcome
      the *executing* run recorded (persisted in the stage metrics).

    Everything else — every statistic, every table, every campaign fault —
    must match byte-for-byte once both sides pass through here.
    """
    data: dict[str, Any] = json.loads(json.dumps(payload))
    data.pop("wall_seconds", None)

    ledger = data.get("fault_ledger")
    records: list[dict[str, Any]] = []
    if isinstance(ledger, dict):
        records = [
            record
            for record in ledger.get("records", [])
            if record.get("stage") not in _PROVENANCE_STAGES
        ]
        ledger["records"] = records

    lines = data.get("summary_lines")
    if isinstance(lines, list):
        rebuilt = [line for line in lines if not (isinstance(line, str) and line.startswith("Absorbed "))]
        if records:
            by_stage: dict[str, int] = {}
            skipped = 0
            for record in records:
                by_stage[record["stage"]] = by_stage.get(record["stage"], 0) + 1
                skipped += record.get("bots_skipped", 0)
            stages = ", ".join(f"{stage}: {count}" for stage, count in sorted(by_stage.items()))
            digest = f"Absorbed {len(records)} faults ({stages or 'none'}); {skipped} bots skipped."
            position = next(
                (
                    index
                    for index, line in enumerate(rebuilt)
                    if isinstance(line, str) and line.startswith("Quarantined ")
                ),
                len(rebuilt),
            )
            rebuilt.insert(position, digest)
        data["summary_lines"] = rebuilt

    metrics = data.get("metrics")
    stage_entries: dict[str, Any] = {}
    if isinstance(metrics, dict):
        metrics.pop("journal", None)
        stage_entries = metrics.get("stages", {}) if isinstance(metrics.get("stages"), dict) else {}
        for entry in stage_entries.values():
            entry.pop("wall_seconds", None)
            entry.pop("resumed", None)

    stage_status = data.get("stage_status")
    if isinstance(stage_status, dict):
        for stage, value in stage_status.items():
            if value == "resumed":
                outcome = stage_entries.get(stage, {}).get("outcome", "")
                if outcome:
                    stage_status[stage] = outcome
    return data


def save_result(result: PipelineResult, path: str | Path, include_bots: bool = False) -> Path:
    """Write the flattened result to ``path`` as pretty-printed JSON."""
    target = Path(path)
    target.write_text(json.dumps(result_to_dict(result, include_bots=include_bots), indent=2))
    return target


def load_result_summary(path: str | Path) -> dict[str, Any]:
    """Load a previously saved result dict, checking the schema version."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported result schema version: {version!r}")
    return payload
