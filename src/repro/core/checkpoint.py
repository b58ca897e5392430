"""Full-pipeline checkpointing: stage-granular snapshot and resume.

After every completed stage (crawl, traceability, code, honeypot) the
pipeline snapshots that stage's raw output plus the fault ledger so far.
A killed run resumes from the last completed stage instead of re-crawling
the world; aggregates are recomputed from the restored raw outputs, so a
resumed run reports the same statistics as an uninterrupted one.

Integrity: every save embeds a sha256 checksum of the whole payload, and
:meth:`PipelineCheckpoint.load` refuses a file that does not verify
(:class:`CheckpointCorruptionError`).  A damaged checkpoint is never
partially trusted: :meth:`repro.core.storage.RecoveryManager.scrub_pipeline_checkpoint`
quarantines it whole and the run redoes the campaign, replaying the
write-ahead journal where one exists.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.codeanalysis.analyzer import RepoAnalysis
from repro.codeanalysis.patterns import PatternHit
from repro.core.crashpoints import crashpoint
from repro.core.resilience import FaultLedger
from repro.core.storage import ArtifactCorruptionError, atomic_write_json
from repro.core.supervision import QuarantineLog
from repro.honeypot.console import TriggerRecord
from repro.honeypot.experiment import BotTestOutcome, HoneypotReport
from repro.honeypot.tokens import TokenKind
from repro.core.spill import SpillList
from repro.scraper.base import ScrapeStats
from repro.scraper.topgg import CrawlResult, scraped_bot_from_dict, scraped_bot_to_dict
from repro.traceability.analyzer import TraceabilityClass, TraceabilityResult
from repro.traceability.validation import ValidationCase, ValidationReport

logger = logging.getLogger(__name__)

PIPELINE_CHECKPOINT_VERSION = 1

#: Canonical stage names, in execution order.
STAGE_CRAWL = "crawl"
STAGE_TRACEABILITY = "traceability"
STAGE_CODE = "code"
STAGE_HONEYPOT = "honeypot"
STAGES = (STAGE_CRAWL, STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT)


class CheckpointCorruptionError(ArtifactCorruptionError):
    """The checkpoint file on disk does not match what was written.

    Also a :class:`~repro.core.storage.StorageError` (and still a
    ``ValueError``), so corruption surfaces through the same typed-error
    contract as every other storage fault.
    """


# -- integrity helpers -------------------------------------------------------


def _payload_checksum(payload: dict) -> str:
    """Whole-file checksum: sha256 over the canonical (sorted-keys) JSON of
    everything except the checksum field itself."""
    scrubbed = {key: value for key, value in payload.items() if key != "checksum"}
    return hashlib.sha256(json.dumps(scrubbed, sort_keys=True).encode("utf-8")).hexdigest()


# -- per-type serializers ----------------------------------------------------


def _scrape_stats_to_dict(stats: ScrapeStats) -> dict:
    return dict(vars(stats))


def _scrape_stats_from_dict(payload: dict) -> ScrapeStats:
    stats = ScrapeStats()
    dropped = []
    for key, value in payload.items():
        if hasattr(stats, key):
            setattr(stats, key, value)
        else:
            dropped.append(key)
    if dropped:
        logger.warning(
            "checkpoint scrape stats carried unknown keys (dropped): %s", ", ".join(sorted(dropped))
        )
    return stats


def _traceability_to_dict(result: TraceabilityResult) -> dict:
    return {
        "bot_name": result.bot_name,
        "classification": result.classification.value,
        "categories_found": sorted(result.categories_found),
        "has_website": result.has_website,
        "has_policy_link": result.has_policy_link,
        "policy_page_valid": result.policy_page_valid,
        "generic_policy": result.generic_policy,
        "undisclosed_data_permissions": list(result.undisclosed_data_permissions),
        "keyword_evidence": {category: list(words) for category, words in result.keyword_evidence.items()},
    }


def _traceability_from_dict(payload: dict) -> TraceabilityResult:
    return TraceabilityResult(
        bot_name=payload["bot_name"],
        classification=TraceabilityClass(payload["classification"]),
        categories_found=frozenset(payload["categories_found"]),
        has_website=payload["has_website"],
        has_policy_link=payload["has_policy_link"],
        policy_page_valid=payload["policy_page_valid"],
        generic_policy=payload["generic_policy"],
        undisclosed_data_permissions=tuple(payload["undisclosed_data_permissions"]),
        keyword_evidence={category: list(words) for category, words in payload["keyword_evidence"].items()},
    )


def _validation_to_dict(report: ValidationReport) -> dict:
    return {
        "cases": [
            {"bot_name": case.bot_name, "expected": case.expected, "predicted": case.predicted}
            for case in report.cases
        ]
    }


def _validation_from_dict(payload: dict) -> ValidationReport:
    return ValidationReport(
        cases=[
            ValidationCase(bot_name=entry["bot_name"], expected=entry["expected"], predicted=entry["predicted"])
            for entry in payload["cases"]
        ]
    )


def _repo_analysis_to_dict(analysis: RepoAnalysis) -> dict:
    return {
        "bot_name": analysis.bot_name,
        "link_valid": analysis.link_valid,
        "main_language": analysis.main_language,
        "has_source_code": analysis.has_source_code,
        "performs_check": analysis.performs_check,
        "hits": [
            {"pattern": hit.pattern, "path": hit.path, "line_number": hit.line_number, "line": hit.line}
            for hit in analysis.hits
        ],
    }


def _repo_analysis_from_dict(payload: dict) -> RepoAnalysis:
    return RepoAnalysis(
        bot_name=payload["bot_name"],
        link_valid=payload["link_valid"],
        main_language=payload["main_language"],
        has_source_code=payload["has_source_code"],
        performs_check=payload["performs_check"],
        hits=[
            PatternHit(
                pattern=entry["pattern"],
                path=entry["path"],
                line_number=entry["line_number"],
                line=entry["line"],
            )
            for entry in payload["hits"]
        ],
    )


def _honeypot_to_dict(report: HoneypotReport) -> dict:
    return {
        "outcomes": [
            {
                "bot_name": outcome.bot_name,
                "behavior": outcome.behavior,
                "installed": outcome.installed,
                "tokens_deployed": outcome.tokens_deployed,
                "trigger_kinds": sorted(kind.value for kind in outcome.trigger_kinds),
                "suspicious_messages": list(outcome.suspicious_messages),
                "functionality_explained": outcome.functionality_explained,
                "quarantined": outcome.quarantined,
                "quarantine_reason": outcome.quarantine_reason,
            }
            for outcome in report.outcomes
        ],
        "triggers": [
            {
                "time": record.time,
                "token_id": record.token_id,
                "kind": record.kind.value,
                "context": record.context,
                "client_id": record.client_id,
            }
            for record in report.triggers
        ],
        "manual_verifications": report.manual_verifications,
        "install_failures": report.install_failures,
        "captcha_cost": report.captcha_cost,
    }


def _honeypot_from_dict(payload: dict) -> HoneypotReport:
    return HoneypotReport(
        outcomes=[
            BotTestOutcome(
                bot_name=entry["bot_name"],
                behavior=entry["behavior"],
                installed=entry["installed"],
                tokens_deployed=entry["tokens_deployed"],
                trigger_kinds=frozenset(TokenKind(value) for value in entry["trigger_kinds"]),
                suspicious_messages=tuple(entry["suspicious_messages"]),
                functionality_explained=entry["functionality_explained"],
                quarantined=entry.get("quarantined", False),
                quarantine_reason=entry.get("quarantine_reason", ""),
            )
            for entry in payload["outcomes"]
        ],
        triggers=[
            TriggerRecord(
                time=entry["time"],
                token_id=entry["token_id"],
                kind=TokenKind(entry["kind"]),
                context=entry["context"],
                client_id=entry["client_id"],
            )
            for entry in payload["triggers"]
        ],
        manual_verifications=payload["manual_verifications"],
        install_failures=payload["install_failures"],
        captcha_cost=payload["captcha_cost"],
    )


# -- spill references --------------------------------------------------------
#
# Streamed runs accumulate stage output in JSONL spill files
# (:class:`repro.core.spill.SpillList`) instead of lists; their checkpoint
# payloads then carry a *reference* — path, record count, content sha256 —
# rather than re-embedding every record, so the checkpoint document itself
# stays O(1) in the population.  Restore verifies the reference before
# trusting the file; a missing or altered spill fails like any other
# corruption and the stage simply re-runs.


def _spill_ref(spill: SpillList) -> dict:
    # ``reference`` syncs the spill to media *before* hashing and verifies
    # the on-disk record count against the acknowledged one, so a
    # checkpoint can never reference bytes that did not actually land.
    return spill.reference()


def _restore_spill(ref: dict, encode, decode) -> SpillList:
    path = Path(ref["path"])
    if not path.exists():
        raise CheckpointCorruptionError(f"stage spill file missing: {path}")
    if hashlib.sha256(path.read_bytes()).hexdigest() != ref["sha256"]:
        raise CheckpointCorruptionError(f"stage spill file altered since save: {path}")
    spill = SpillList(path, encode, decode, restore=True)
    if len(spill) != ref["count"]:
        raise CheckpointCorruptionError(
            f"stage spill file holds {len(spill)} records, checkpoint expects {ref['count']}: {path}"
        )
    return spill


# -- the checkpoint ----------------------------------------------------------


@dataclass
class PipelineCheckpoint:
    """Persistent pipeline progress: one payload per completed stage."""

    stages: dict[str, dict] = field(default_factory=dict)
    stage_status: dict[str, str] = field(default_factory=dict)
    ledger: FaultLedger = field(default_factory=FaultLedger)
    #: Per-stage run metrics (``StageMetrics.to_dict()`` payloads), so a
    #: resumed run reports complete metrics for stages it did not re-run.
    metrics: dict[str, dict] = field(default_factory=dict)
    #: Bots the supervision layer quarantined in completed stages.
    quarantines: QuarantineLog = field(default_factory=QuarantineLog)
    #: World-state snapshot (a :func:`repro.core.journal.capture_world_state`
    #: payload keyed ``main``) taken at the same boundary as
    #: the last stored stage, so a resumed run re-enters the simulation in
    #: the exact state the saving run left it — RNG streams, chaos draws,
    #: circuit breakers and captcha accounts included.
    world_state: dict = field(default_factory=dict)

    def has_stage(self, stage: str) -> bool:
        return stage in self.stages

    @property
    def completed_stages(self) -> list[str]:
        return [stage for stage in STAGES if stage in self.stages]

    # -- stage-typed store/restore ---------------------------------------

    def store_crawl(self, crawl: CrawlResult, stats: ScrapeStats) -> None:
        payload: dict[str, Any] = {
            "pages_traversed": crawl.pages_traversed,
            "scrape_stats": _scrape_stats_to_dict(stats),
        }
        if isinstance(crawl.bots, SpillList):
            payload["bots_spill"] = _spill_ref(crawl.bots)
        else:
            payload["bots"] = [scraped_bot_to_dict(bot) for bot in crawl.bots]
        self.stages[STAGE_CRAWL] = payload

    def restore_crawl(self) -> tuple[CrawlResult, ScrapeStats]:
        payload = self.stages[STAGE_CRAWL]
        if "bots_spill" in payload:
            bots = _restore_spill(payload["bots_spill"], scraped_bot_to_dict, scraped_bot_from_dict)
        else:
            bots = [scraped_bot_from_dict(entry) for entry in payload["bots"]]
        crawl = CrawlResult(pages_traversed=payload["pages_traversed"])
        crawl.bots = bots
        return crawl, _scrape_stats_from_dict(payload["scrape_stats"])

    def store_traceability(self, results: list[TraceabilityResult], validation: ValidationReport | None) -> None:
        payload: dict[str, Any] = {
            "validation": _validation_to_dict(validation) if validation is not None else None,
        }
        if isinstance(results, SpillList):
            payload["results_spill"] = _spill_ref(results)
        else:
            payload["results"] = [_traceability_to_dict(result) for result in results]
        self.stages[STAGE_TRACEABILITY] = payload

    def restore_traceability(self) -> tuple[list[TraceabilityResult], ValidationReport | None]:
        payload = self.stages[STAGE_TRACEABILITY]
        validation = payload["validation"]
        if "results_spill" in payload:
            results = _restore_spill(payload["results_spill"], _traceability_to_dict, _traceability_from_dict)
        else:
            results = [_traceability_from_dict(entry) for entry in payload["results"]]
        return results, _validation_from_dict(validation) if validation is not None else None

    def store_code(self, analyses: list[RepoAnalysis]) -> None:
        if isinstance(analyses, SpillList):
            self.stages[STAGE_CODE] = {"analyses_spill": _spill_ref(analyses)}
        else:
            self.stages[STAGE_CODE] = {
                "analyses": [_repo_analysis_to_dict(analysis) for analysis in analyses]
            }

    def restore_code(self) -> list[RepoAnalysis]:
        payload = self.stages[STAGE_CODE]
        if "analyses_spill" in payload:
            return _restore_spill(payload["analyses_spill"], _repo_analysis_to_dict, _repo_analysis_from_dict)
        return [_repo_analysis_from_dict(entry) for entry in payload["analyses"]]

    def store_honeypot(self, report: HoneypotReport) -> None:
        self.stages[STAGE_HONEYPOT] = {"report": _honeypot_to_dict(report)}

    def restore_honeypot(self) -> HoneypotReport:
        return _honeypot_from_dict(self.stages[STAGE_HONEYPOT]["report"])

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "version": PIPELINE_CHECKPOINT_VERSION,
            "checksum": "",
            "stage_status": self.stage_status,
            "ledger": self.ledger.to_dict(),
            "metrics": self.metrics,
            "quarantines": self.quarantines.to_dict(),
            "world_state": self.world_state,
            "stages": self.stages,
        }
        payload["checksum"] = _payload_checksum(payload)
        return payload

    def save(self, path: str | Path) -> Path:
        # Write-then-fsync-then-rename (via the unified storage layer) so a
        # crash mid-save never corrupts progress: the rename only happens
        # once the bytes are on disk.  The crash hook keeps the kill
        # harness's ``checkpoint.after_tmp_write`` point in its old spot.
        return atomic_write_json(
            path,
            self.to_dict(),
            label="checkpoint",
            crash_hook=lambda: crashpoint("checkpoint.after_tmp_write"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "PipelineCheckpoint":
        """Read and verify a checkpoint; raise on any damage.

        Keys this version does not read (such as the ``stage_checksums``
        earlier writers embedded) are covered by the whole-document
        checksum and otherwise ignored.
        """
        text = Path(path).read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointCorruptionError(f"checkpoint is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise CheckpointCorruptionError("checkpoint payload is not a JSON object")
        version = payload.get("version")
        if version != PIPELINE_CHECKPOINT_VERSION:
            raise ValueError(f"unsupported pipeline checkpoint version: {version!r}")
        stored = payload.get("checksum")
        if stored and stored != _payload_checksum(payload):
            raise CheckpointCorruptionError("checkpoint checksum mismatch: file corrupted on disk")
        return cls(
            stages=dict(payload.get("stages", {})),
            stage_status=dict(payload.get("stage_status", {})),
            ledger=FaultLedger.from_dict(payload.get("ledger", {})),
            metrics=dict(payload.get("metrics", {})),
            quarantines=QuarantineLog.from_dict(payload.get("quarantines", {})),
            world_state=dict(payload.get("world_state", {})),
        )

    @classmethod
    def _stage_round_trips(cls, stage: str, entry: dict) -> bool:
        """Probe: does this stage payload restore into real objects?"""
        probe = cls(stages={stage: entry})
        restore = {
            STAGE_CRAWL: probe.restore_crawl,
            STAGE_TRACEABILITY: probe.restore_traceability,
            STAGE_CODE: probe.restore_code,
            STAGE_HONEYPOT: probe.restore_honeypot,
        }[stage]
        try:
            restore()
        except Exception:
            return False
        return True


# Public aliases: the write-ahead journal (PR 5) reuses the stage
# serializers for per-unit record payloads.
traceability_to_dict = _traceability_to_dict
traceability_from_dict = _traceability_from_dict
repo_analysis_to_dict = _repo_analysis_to_dict
repo_analysis_from_dict = _repo_analysis_from_dict
honeypot_to_dict = _honeypot_to_dict
honeypot_from_dict = _honeypot_from_dict
