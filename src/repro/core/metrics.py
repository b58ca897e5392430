"""Run metrics: per-stage wall/virtual time and traffic.

The metrics layer answers the operational questions a real measurement
campaign asks ("which stage is slow?", "how many exchanges did the crawl
issue?") without touching any of the paper's statistics.  Each pipeline
stage records one :class:`StageMetrics`.  The whole structure serializes
through the pipeline checkpoint so a resumed run still reports complete
metrics for the stages it did not re-execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class StageMetrics:
    """One pipeline stage's cost and coverage."""

    stage: str
    wall_seconds: float = 0.0
    #: Simulated seconds the stage consumed.
    virtual_seconds: float = 0.0
    #: Exchanges the stage issued on the virtual internet.
    exchanges: int = 0
    bots_processed: int = 0
    bots_skipped: int = 0
    #: Bots the supervision layer pulled out of the stage mid-flight.
    bots_quarantined: int = 0
    #: True when the stage's output came from a checkpoint, not execution.
    resumed: bool = False
    #: The stage status the *executing* run recorded ("completed" /
    #: "degraded").  Persisted through the checkpoint so a resumed run can
    #: still report — and be compared against — the original outcome even
    #: though its own ``stage_status`` says "resumed".
    outcome: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "wall_seconds": self.wall_seconds,
            "virtual_seconds": self.virtual_seconds,
            "exchanges": self.exchanges,
            "bots_processed": self.bots_processed,
            "bots_skipped": self.bots_skipped,
            "bots_quarantined": self.bots_quarantined,
            "resumed": self.resumed,
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StageMetrics":
        return cls(
            stage=payload["stage"],
            wall_seconds=payload.get("wall_seconds", 0.0),
            virtual_seconds=payload.get("virtual_seconds", 0.0),
            exchanges=payload.get("exchanges", 0),
            bots_processed=payload.get("bots_processed", 0),
            bots_skipped=payload.get("bots_skipped", 0),
            bots_quarantined=payload.get("bots_quarantined", 0),
            resumed=payload.get("resumed", False),
            outcome=payload.get("outcome", ""),
        )


@dataclass
class RunMetrics:
    """Every stage's metrics for one pipeline run, in execution order."""

    stages: dict[str, StageMetrics] = field(default_factory=dict)
    #: Write-ahead journal counters (``JournalStats.to_dict()``) when
    #: journaling is enabled.
    journal: dict[str, int] | None = None
    #: Serving counters (``ServingMetrics.to_dict()``) when the run hosted
    #: the vetting service: requests served/shed/degraded, cache hit and
    #: stale rates, p50/p99 virtual latency per endpoint.
    serving: dict[str, Any] | None = None

    def record(self, stage_metrics: StageMetrics) -> StageMetrics:
        self.stages[stage_metrics.stage] = stage_metrics
        return stage_metrics

    def stage(self, name: str) -> StageMetrics | None:
        return self.stages.get(name)

    @property
    def total_wall_seconds(self) -> float:
        return sum(stage.wall_seconds for stage in self.stages.values())

    @property
    def total_exchanges(self) -> int:
        return sum(stage.exchanges for stage in self.stages.values())

    @property
    def total_bots_processed(self) -> int:
        return sum(stage.bots_processed for stage in self.stages.values())

    @property
    def total_bots_skipped(self) -> int:
        return sum(stage.bots_skipped for stage in self.stages.values())

    @property
    def total_bots_quarantined(self) -> int:
        return sum(stage.bots_quarantined for stage in self.stages.values())

    def render(self) -> str:
        """A compact table for the CLI's ``--metrics`` flag."""
        lines = ["=== Run metrics ==="]
        header = (
            f"{'stage':14s} {'wall(s)':>9s} {'virtual(s)':>12s} {'exchanges':>10s} "
            f"{'processed':>10s} {'skipped':>8s} {'quar':>5s}"
        )
        lines.append(header)
        for stage in self.stages.values():
            suffix = "  (resumed)" if stage.resumed else ""
            lines.append(
                f"{stage.stage:14s} {stage.wall_seconds:9.2f} {stage.virtual_seconds:12.1f} "
                f"{stage.exchanges:10d} {stage.bots_processed:10d} {stage.bots_skipped:8d} "
                f"{stage.bots_quarantined:5d}{suffix}"
            )
        lines.append(
            f"{'total':14s} {self.total_wall_seconds:9.2f} {'':>12s} "
            f"{self.total_exchanges:10d} {self.total_bots_processed:10d} {self.total_bots_skipped:8d} "
            f"{self.total_bots_quarantined:5d}"
        )
        if self.journal is not None:
            lines.append(
                f"journal: {self.journal.get('appended', 0)} appended, "
                f"{self.journal.get('replayed', 0)} replayed, "
                f"{self.journal.get('discarded', 0)} discarded"
            )
        if self.serving is not None:
            lines.append(
                f"serving: {self.serving.get('served', 0)}/{self.serving.get('requests_total', 0)} served, "
                f"{self.serving.get('shed', 0)} shed, {self.serving.get('degraded', 0)} degraded, "
                f"{self.serving.get('stale_served', 0)} stale"
            )
            for endpoint, stats in sorted((self.serving.get("latency") or {}).items()):
                lines.append(
                    f"    {endpoint}: {stats.get('count', 0)} requests, "
                    f"p50 {stats.get('p50', 0.0):.3f}s, p99 {stats.get('p99', 0.0):.3f}s virtual"
                )
            pool = self.serving.get("pool")
            if pool:
                dispatch = pool.get("dispatch", {})
                lines.append(
                    f"    pool: {pool.get('workers', 0)} workers ({pool.get('status', '?')}), "
                    f"{pool.get('restarts', 0)} restarts, {pool.get('fallbacks', 0)} fallbacks; "
                    f"dispatch {dispatch.get('opened', 0)} opened, "
                    f"{dispatch.get('redispatched', 0)} re-dispatched, "
                    f"{dispatch.get('hedges', 0)} hedged, "
                    f"{dispatch.get('duplicates_suppressed', 0)} suppressed"
                )
                for worker in pool.get("per_worker", []):
                    lines.append(
                        f"        worker {worker.get('worker', '?')}: {worker.get('vets', 0)} vets, "
                        f"{worker.get('crashes', 0)} crashes, breaker {worker.get('breaker', '?')}, "
                        f"p99 {worker.get('wall_ms_p99', 0.0):.1f}ms wall"
                    )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"stages": {name: stage.to_dict() for name, stage in self.stages.items()}}
        if self.journal is not None:
            payload["journal"] = dict(self.journal)
        if self.serving is not None:
            payload["serving"] = dict(self.serving)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunMetrics":
        return cls(
            stages={name: StageMetrics.from_dict(entry) for name, entry in payload.get("stages", {}).items()},
            journal=dict(payload["journal"]) if isinstance(payload.get("journal"), dict) else None,
            serving=dict(payload["serving"]) if isinstance(payload.get("serving"), dict) else None,
        )
