"""Typed results for an end-to-end pipeline run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.code_stats import CodeAnalysisSummary
from repro.analysis.developer_stats import DeveloperDistribution
from repro.analysis.permission_stats import PermissionDistribution
from repro.analysis.risk import RiskSummary
from repro.analysis.traceability_stats import TraceabilitySummary
from repro.codeanalysis.analyzer import RepoAnalysis
from repro.core.metrics import RunMetrics
from repro.core.resilience import FaultLedger, StageStatus
from repro.core.supervision import QuarantineLog
from repro.honeypot.experiment import HoneypotReport
from repro.scraper.base import ScrapeStats
from repro.scraper.topgg import CrawlResult
from repro.traceability.analyzer import TraceabilityResult
from repro.traceability.validation import ValidationReport


@dataclass
class PipelineResult:
    """Everything one assessment run produced.

    ``permission_distribution`` et al. are the aggregates the paper's
    tables/figures come from; the raw per-bot records are kept alongside
    for drill-down.
    """

    # Stage outputs.
    crawl: CrawlResult
    traceability_results: list[TraceabilityResult] = field(default_factory=list)
    validation: ValidationReport | None = None
    repo_analyses: list[RepoAnalysis] = field(default_factory=list)
    honeypot: HoneypotReport | None = None

    # Aggregates.
    permission_distribution: PermissionDistribution | None = None
    developer_distribution: DeveloperDistribution | None = None
    traceability_summary: TraceabilitySummary | None = None
    code_summary: CodeAnalysisSummary | None = None
    risk_summary: RiskSummary | None = None

    # Run accounting.
    scrape_stats: ScrapeStats = field(default_factory=ScrapeStats)
    virtual_seconds: float = 0.0
    wall_seconds: float = 0.0
    captcha_dollars: float = 0.0

    # Resilience accounting: every fault the run absorbed, and how each
    # stage ended (stage name -> StageStatus value).
    fault_ledger: FaultLedger = field(default_factory=FaultLedger)
    #: Bots the supervision layer pulled out of a stage mid-flight.
    quarantines: QuarantineLog = field(default_factory=QuarantineLog)
    stage_status: dict[str, str] = field(default_factory=dict)

    # Operational metrics: per-stage wall/virtual time and traffic.
    metrics: RunMetrics = field(default_factory=RunMetrics)

    @property
    def degraded(self) -> bool:
        """Whether any part of the run lost coverage to faults."""
        return len(self.fault_ledger) > 0

    @property
    def failed_stages(self) -> list[str]:
        """Stages that aborted; their summaries are ``None``, not all-zero."""
        return sorted(
            stage for stage, status in self.stage_status.items() if status == StageStatus.FAILED.value
        )

    @property
    def bots_collected(self) -> int:
        return len(self.crawl.bots)

    @property
    def active_bots(self) -> int:
        return len(self.crawl.with_valid_permissions())

    def summary_lines(self) -> list[str]:
        """One-line-per-finding digest (the abstract's numbers)."""
        lines = [f"Collected {self.bots_collected} chatbots; {self.active_bots} with valid permissions."]
        if self.permission_distribution:
            dist = self.permission_distribution
            lines.append(
                f"administrator requested by {dist.administrator_percent:.2f}% of active bots; "
                f"send messages by {dist.send_messages_percent:.2f}%."
            )
        if self.traceability_summary:
            summary = self.traceability_summary
            lines.append(
                f"{summary.broken_fraction * 100:.2f}% of active bots have broken traceability; "
                f"{summary.complete_count} complete, {summary.partial_count} partial."
            )
        if self.code_summary:
            code = self.code_summary
            js = code.check_rate("JavaScript") * 100
            py = code.check_rate("Python") * 100
            lines.append(
                f"{code.github_link_percent:.2f}% of active bots link GitHub; "
                f"permission checks in {js:.2f}% of JS and {py:.2f}% of Python repos."
            )
        if self.risk_summary and self.risk_summary.scores:
            risk = self.risk_summary
            lines.append(
                f"Mean permission risk {risk.mean_risk:.2f}; "
                f"{risk.high_risk_fraction * 100:.1f}% of active bots are high-risk; "
                f"mean over-privilege index {risk.mean_over_privilege:.2f}."
            )
        if self.honeypot:
            flagged = ", ".join(outcome.bot_name for outcome in self.honeypot.flagged_bots) or "none"
            lines.append(
                f"Honeypot: {self.honeypot.bots_tested} bots tested, "
                f"{len(self.honeypot.flagged_bots)} flagged ({flagged})."
            )
        failed = self.failed_stages
        if failed:
            lines.append(
                "Stage(s) failed: " + ", ".join(failed) + " — their summaries are omitted (no data, not zeros)."
            )
        if self.degraded:
            lines.append(self.fault_ledger.summary_line())
        if self.quarantines:
            lines.append(self.quarantines.summary_line())
        return lines
