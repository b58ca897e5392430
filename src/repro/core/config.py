"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.web.chaos import ChaosProfile


@dataclass
class PipelineConfig:
    """All knobs for one end-to-end assessment run.

    The defaults reproduce the paper's full-scale measurement (20,915 bots,
    500-bot honeypot); tests and examples shrink ``n_bots``.
    """

    # World generation.
    n_bots: int = 20_915
    seed: int = 2022

    # Data collection.
    resolve_permissions: bool = True

    # Stage switches.
    run_traceability: bool = True
    run_code_analysis: bool = True
    run_honeypot: bool = True

    # Static analysis.
    validation_sample_size: int = 100

    # Dynamic analysis.
    honeypot_sample_size: int = 500
    #: Source feed text by scraping the OSN site (the paper's data path)
    #: instead of generating it directly.
    use_osn_feed: bool = True

    # Streaming population.
    #: Generate the population lazily (rank-addressable stream) and run the
    #: crawl and stages 2–4 over fixed-size chunks instead of holding every
    #: bot resident.  Output is byte-identical to a materialized run at the
    #: same seed; large result accumulators spill to disk beside the
    #: checkpoint so peak RSS stays bounded regardless of ``n_bots``.
    stream: bool = False
    #: Bots per streamed chunk: the unit of the stream cursor recorded in
    #: checkpoints and the granularity of the ``stream.*`` crash points.
    chunk_size: int = 2_048

    # Resilience and fault injection.
    #: Chaos profile name ("calm", "flaky", "hostile", "outage"), a
    #: :class:`~repro.web.chaos.ChaosProfile` (e.g. a ``scaled()`` variant
    #: matching a shrunken world's compressed timescale), or None to run
    #: without injected faults.
    chaos_profile: str | ChaosProfile | None = None
    chaos_seed: int = 0
    #: With a path, the pipeline snapshots after every stage and a re-run
    #: resumes from the last completed stage.
    checkpoint_path: str | None = None
    #: With a path, stages additionally append to an intra-stage write-ahead
    #: journal after every completed bot unit (one page for the crawl), so a
    #: crash mid-stage resumes at the next unit instead of the stage start.
    journal_path: str | None = None
    #: Journal fsync cadence: ``1`` fsyncs every record (the default — an
    #: acknowledged record is a durable record), ``N`` batches fsyncs for
    #: throughput at the price of a torn-tail window up to ``N-1``
    #: acknowledged records wide, ``0`` never fsyncs implicitly.
    journal_fsync_every: int = 1
    #: Storage-fault injection profile ("calm", "scratched", "torn",
    #: "bitrot", "hostile"), a
    #: :class:`~repro.core.storage.StorageChaosProfile`, or None to leave
    #: the process's storage-fault shim untouched.  Installed process-wide
    #: when the pipeline is built, so one seeded schedule covers every
    #: durable write of the run: checkpoint, spills and the journal.
    disk_chaos: str | None = None
    disk_chaos_seed: int = 0
    #: Aggregate retry cap per stage (transient retries across all fetches).
    stage_retry_budget: int = 500

    # Bot-level supervision: every per-bot unit of work runs inside a
    # firewall that quarantines the bot on crash, gateway flooding, or
    # deadline blow-out instead of crashing the stage.
    #: Gateway events one bot may cause while supervised (0 = unlimited).
    max_bot_events: int = 500
    #: Virtual seconds one supervised unit of work may consume (0 = unlimited).
    bot_deadline: float = 86_400.0
    #: Plant this many adversarial runtimes (crasher/flooder/staller rotation)
    #: into the honeypot sample — a self-test of the supervision layer.
    adversarial_bots: int = 0

    def scaled(self, n_bots: int, honeypot_sample_size: int | None = None) -> "PipelineConfig":
        """A copy at a smaller scale (for tests and quick examples)."""
        from dataclasses import replace

        sample = honeypot_sample_size if honeypot_sample_size is not None else min(self.honeypot_sample_size, n_bots)
        return replace(self, n_bots=n_bots, honeypot_sample_size=sample)
