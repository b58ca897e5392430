"""The assessment pipeline: Figure 1 end to end.

``AssessmentPipeline`` first builds (or accepts) a *world* — the virtual
internet with the listing site, consent pages, bot websites, the GitHub
stand-in, and the messaging platform itself — then runs the paper's four
stages against it:

1. **Data collection** — crawl the listing site, resolve invite permissions.
2. **Traceability analysis** — hunt privacy policies, classify disclosure.
3. **Code analysis** — crawl GitHub links, detect permission-check APIs.
4. **Dynamic analysis** — honeypot campaign over the most-voted bots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.analysis.code_stats import CodeAnalysisSummary
from repro.analysis.developer_stats import DeveloperDistribution
from repro.analysis.permission_stats import PermissionDistribution
from repro.analysis.risk import RiskSummary
from repro.analysis.traceability_stats import TraceabilitySummary
from repro.botstore.host import build_store_host
from repro.codeanalysis.analyzer import CodeAnalyzer
from repro.core.checkpoint import (
    STAGE_CODE,
    STAGE_CRAWL,
    STAGE_HONEYPOT,
    STAGE_TRACEABILITY,
    PipelineCheckpoint,
    honeypot_from_dict,
    honeypot_to_dict,
    repo_analysis_from_dict,
    repo_analysis_to_dict,
    traceability_from_dict,
    traceability_to_dict,
)
from repro.core.config import PipelineConfig
from repro.core.crashpoints import crashpoint
from repro.core.journal import (
    StageRecorder,
    UnitTracker,
    WriteAheadJournal,
    capture_world_state,
    record_resume_provenance,
    restore_world_state,
)
from repro.core.metrics import RunMetrics, StageMetrics
from repro.core.resilience import CircuitBreakerRegistry, FaultLedger, FaultRecord, RetryBudget, StageStatus
from repro.core.results import PipelineResult
from repro.core.storage import RecoveryManager, StorageError, install_disk_chaos
from repro.core.supervision import BotSupervisor, QuarantineLog, QuarantineRecord, verify_accounting
from repro.discordsim import behaviors
from repro.discordsim.permissions import Permission
from repro.discordsim.platform import DiscordPlatform
from repro.ecosystem.generator import InviteStatus
from repro.ecosystem.generator import Ecosystem, EcosystemConfig, generate_ecosystem
from repro.honeypot.experiment import HoneypotExperiment, HoneypotReport
from repro.scraper.github import GitHubScraper
from repro.scraper.topgg import ScrapedBot, TopGGScraper, scraped_bot_from_dict, scraped_bot_to_dict
from repro.scraper.website import PolicyFetchResult, WebsiteScraper
from repro.sites.botwebsites import BotWebsiteBuilder
from repro.sites.discordweb import DiscordWebsite
from repro.sites.github import GitHubSite
from repro.traceability.analyzer import TraceabilityAnalyzer
from repro.traceability.validation import ManualReviewValidator
from repro.web.browser import WebDriverException
from repro.web.captcha import TwoCaptchaClient
from repro.web.http import Url
from repro.web.network import NetworkError, VirtualClock, VirtualInternet

#: Degradation callback handed to stages: ``(host, error, bots_skipped, detail)``.
StageFaultSink = Callable[[str, BaseException, int, str], None]


@dataclass
class PipelineWorld:
    """Everything the pipeline measures: the simulated internet + platform."""

    ecosystem: Ecosystem
    clock: VirtualClock
    internet: VirtualInternet
    platform: DiscordPlatform
    solver: TwoCaptchaClient

    @classmethod
    def build(cls, config: PipelineConfig) -> "PipelineWorld":
        eco_config = EcosystemConfig(
            n_bots=config.n_bots,
            seed=config.seed,
            honeypot_window=config.honeypot_sample_size,
        )
        if config.stream:
            # Same per-rank definition, never materialized: sites decode
            # ranks back out of names/ids instead of holding index maps.
            from repro.ecosystem.stream import StreamingEcosystem

            ecosystem = StreamingEcosystem(eco_config)
        else:
            ecosystem = generate_ecosystem(eco_config)
        clock = VirtualClock()
        internet = VirtualInternet(clock, seed=config.seed)
        platform = DiscordPlatform(clock, captcha_seed=config.seed + 1)
        build_store_host(ecosystem, internet)
        DiscordWebsite(ecosystem).register(internet)
        GitHubSite(ecosystem).register(internet)
        BotWebsiteBuilder(ecosystem).register(internet)
        from repro.sites.reddit import RedditSite

        RedditSite(seed=config.seed + 5).register(internet)
        solver = TwoCaptchaClient(clock, balance=100.0, seed=config.seed + 2)
        if config.chaos_profile is not None:
            from repro.web.chaos import FaultSchedule

            internet.install_chaos(FaultSchedule(config.chaos_profile, seed=config.chaos_seed))
        return cls(ecosystem=ecosystem, clock=clock, internet=internet, platform=platform, solver=solver)


class _StageTimer:
    """Capture one stage's wall/virtual/traffic deltas for the metrics layer."""

    def __init__(self, pipeline: "AssessmentPipeline", stage: str) -> None:
        self._pipeline = pipeline
        self.stage = stage
        self._wall = time.monotonic()
        self._virtual = pipeline.world.clock.now()
        self._exchanges = pipeline.world.internet.exchanges_total
        self._skipped = pipeline.ledger.bots_skipped(stage)
        self._quarantined = pipeline.quarantines.count(stage)

    def finish(self, bots_processed: int) -> StageMetrics:
        return StageMetrics(
            stage=self.stage,
            wall_seconds=time.monotonic() - self._wall,
            virtual_seconds=self._pipeline.world.clock.now() - self._virtual,
            exchanges=self._pipeline.world.internet.exchanges_total - self._exchanges,
            bots_processed=bots_processed,
            bots_skipped=self._pipeline.ledger.bots_skipped(self.stage) - self._skipped,
            bots_quarantined=self._pipeline.quarantines.count(self.stage) - self._quarantined,
        )


class _Stage(NamedTuple):
    """One of stages 2–4, as the stage driver runs it."""

    name: str
    enabled: bool
    #: Run the stage and return its value.
    execute: Callable[[], Any]
    #: Bots a value accounts for, and bots the stage was given.
    processed: Callable[[Any], int]
    population: Callable[[], int]
    #: The value's checkpoint round-trip.
    restore: Callable[[PipelineCheckpoint], Any]
    store: Callable[[PipelineCheckpoint, Any], None]


#: The per-bot stages 2 and 3: the scraper each runs (type and client id),
#: its result codecs, the link whose host a transport fault is
#: charged to, and the fault detail a skipped bot gets.
_UNIT_STAGES = {
    STAGE_TRACEABILITY: (
        WebsiteScraper, "policy-scraper", traceability_to_dict, traceability_from_dict,
        "website_url", "traceability skipped",
    ),
    STAGE_CODE: (
        GitHubScraper, "repo-scraper", repo_analysis_to_dict, repo_analysis_from_dict,
        "github_url", "code analysis skipped",
    ),
}


class AssessmentPipeline:
    """Run the full methodology against a world."""

    def __init__(self, config: PipelineConfig | None = None, world: PipelineWorld | None = None) -> None:
        self.config = config or PipelineConfig()
        self.world = world or PipelineWorld.build(self.config)
        self.traceability_analyzer = TraceabilityAnalyzer()
        self.code_analyzer = CodeAnalyzer()
        #: Per-host circuit breakers shared by every scraper in this run.
        self.breakers = CircuitBreakerRegistry(self.world.clock)
        #: Structured account of every fault the run absorbed.
        self.ledger = FaultLedger()
        #: Bots the supervision layer pulled out of a stage mid-flight.
        self.quarantines = QuarantineLog()
        #: Per-stage run metrics (filled by :meth:`run`).
        self.metrics = RunMetrics()
        #: The intra-stage write-ahead journal (``config.journal_path`` only),
        #: opened when :meth:`run` starts.
        self._journal: WriteAheadJournal | None = None
        #: Where streamed stage results spill (created on first use).
        self._spill_dir: Path | None = None
        # Planting first: a sample too small for the adversaries asked for
        # is a config error, raised before anything process-global is armed.
        if self.config.adversarial_bots > 0:
            self._plant_adversaries()
        # Storage-fault injection is process-global (the durable-I/O
        # primitives consult one shim), so installing it here covers every
        # artifact this run writes: checkpoint, spills and the journal.
        if self.config.disk_chaos is not None:
            install_disk_chaos(self.config.disk_chaos, seed=self.config.disk_chaos_seed)

    # -- resilience helpers -------------------------------------------------

    def _stage_budget(self) -> RetryBudget:
        return RetryBudget(self.config.stage_retry_budget)

    def _sink(self, stage: str) -> StageFaultSink:
        """A fault sink writing to the run's ledger on the world's clock."""

        def sink(host: str, error: BaseException, bots_skipped: int, detail: str) -> None:
            self.ledger.record(stage, host, error, self.world.clock.now(), bots_skipped=bots_skipped, detail=detail)

        return sink

    def _supervisor(self, stage: str) -> BotSupervisor:
        """A per-bot supervision firewall for ``stage``.

        Quarantines land in the run's ledger and log on the world's clock;
        the honeypot stage also guards the platform's event bus.
        Transport faults (``WebDriverException``/``NetworkError``) pass
        through untouched — the existing skip/fault-sink paths own those.
        """
        return BotSupervisor(
            stage=stage,
            clock=self.world.clock,
            ledger=self.ledger,
            quarantines=self.quarantines,
            bus=self.world.platform.events if stage == STAGE_HONEYPOT else None,
            max_events=self.config.max_bot_events,
            deadline=self.config.bot_deadline,
            # Storage faults must never be absorbed into a quarantine — a
            # bot "quarantined by a full disk" would silently diverge from
            # the golden run; typed storage errors stay loud.
            passthrough=(WebDriverException, NetworkError, StorageError),
        )

    def _plant_adversaries(self) -> None:
        """Flip ``config.adversarial_bots`` sample bots to hostile runtimes.

        A self-test of the supervision layer: eligible bots in the
        most-voted (honeypot) sample become a crasher/flooder/staller
        rotation.  Only ``behavior`` changes — invites, permissions and
        listings stay untouched — so every stage before the honeypot, and
        every unplanted bot inside it, produces byte-identical output to
        an adversary-free run.

        Raises :class:`ValueError` when the sample holds fewer eligible
        bots than asked for: a self-test that silently plants fewer
        adversaries would report a clean bill for the ones it never ran.
        """
        rotation = (behaviors.CRASHER, behaviors.FLOODER, behaviors.STALLER)
        wanted = self.config.adversarial_bots
        planted = 0
        for bot in self.world.ecosystem.top_voted(self.config.honeypot_sample_size):
            if planted >= wanted:
                break
            if bot.invite_status is not InviteStatus.VALID:
                continue
            if bot.behavior in behaviors.INVASIVE_BEHAVIORS or bot.behavior in behaviors.ADVERSARIAL_BEHAVIORS:
                continue
            # The adversary must actually get into the guild and speak:
            # keep the bot's real permissions, require ones that suffice.
            capable = bot.permissions.has(Permission.ADMINISTRATOR) or (
                bot.permissions.has(Permission.VIEW_CHANNEL) and bot.permissions.has(Permission.SEND_MESSAGES)
            )
            if not capable:
                continue
            bot.behavior = rotation[planted % len(rotation)]
            planted += 1
        if planted < wanted:
            raise ValueError(
                f"adversarial_bots={wanted}, but the {self.config.honeypot_sample_size}-bot honeypot sample "
                f"holds only {planted} bots that can be planted"
            )

    # -- journal + world-state helpers --------------------------------------

    def _open_journal(self) -> None:
        """Open the run's journal (``config.journal_path`` only)."""
        path = self.config.journal_path
        if path is None:
            return
        self._journal = WriteAheadJournal(path, fsync_every=self.config.journal_fsync_every)
        if self._journal.discard_detail:
            record_resume_provenance(self.ledger, f"{Path(path).name}: {self._journal.discard_detail}")

    def _recorder(self, stage: str, scraper) -> StageRecorder | None:
        """The journal cursor for one stage's unit loop (None without a journal)."""
        if self._journal is None:
            return None
        tracker = UnitTracker(
            self.world.clock,
            self.world.internet,
            self.ledger,
            self.quarantines,
            breakers=self.breakers,
            budget=scraper.retry_budget,
            solver=self.world.solver,
            scraper=scraper,
        )
        return StageRecorder(self._journal, stage, tracker, self.ledger)

    def _capture_world(self) -> dict:
        """Snapshot the world's mutable simulation state.

        The snapshot sits under the key ``main``: checkpoints and journal
        records already on disk hold it there, and they must still resume.
        """
        world = self.world
        return {"main": capture_world_state(world.clock, world.internet, world.solver, self.breakers)}

    def _restore_world(self, payload: dict) -> None:
        """Re-enter the simulation exactly where a snapshot left it."""
        state = payload.get("main")
        if state:
            restore_world_state(self.world.clock, self.world.internet, self.world.solver, self.breakers, state)

    @staticmethod
    def _host_of(url: str | None) -> str:
        if not url:
            return "<unknown>"
        try:
            return Url.parse(url).host or "<unknown>"
        except ValueError:
            return "<unknown>"

    # -- streaming helpers --------------------------------------------------

    def _stream_units(self, bots):
        """Yield a stage's bots in chunk cadence (streamed runs only).

        Materialized runs pass straight through.  Streamed runs fire the
        ``stream.mid_chunk`` / ``stream.after_chunk`` crash points at the
        middle and boundary of every ``config.chunk_size`` window, so the
        crash matrix can kill a run at every phase of chunked consumption.
        """
        if not self.config.stream:
            yield from bots
            return
        chunk = max(self.config.chunk_size, 1)
        for index, bot in enumerate(bots):
            if index % chunk == chunk // 2:
                crashpoint("stream.mid_chunk")
            yield bot
            if (index + 1) % chunk == 0:
                crashpoint("stream.after_chunk")

    def _stage_results(self, stage: str, encode, decode):
        """A stage's result accumulator: a list, or a disk spill when streaming.

        One JSONL spill per stage beside the checkpoint, or in a temp
        directory private to this pipeline, using the stage's checkpoint
        codecs — so the streamed accumulator holds a file handle and a
        count, never the records.
        """
        if not self.config.stream:
            return []
        from repro.core.spill import SpillList, spill_dir_for

        if self._spill_dir is None:
            self._spill_dir = spill_dir_for(self.config.checkpoint_path)
        return SpillList(self._spill_dir / f"{stage}.jsonl", encode, decode)

    # -- stages ------------------------------------------------------------

    def collect(self) -> tuple[TopGGScraper, "CrawlResult"]:
        """Stage 1: crawl the listing site."""
        scraper = TopGGScraper(
            self.world.internet,
            solver=self.world.solver,
            breakers=self.breakers,
            retry_budget=self._stage_budget(),
        )
        sink = self._sink(STAGE_CRAWL)
        recorder = self._recorder(STAGE_CRAWL, scraper)
        bots_store = None
        if self.config.stream:
            bots_store = self._stage_results(STAGE_CRAWL, scraped_bot_to_dict, scraped_bot_from_dict)
        crawl = scraper.crawl(
            resolve_permissions=self.config.resolve_permissions,
            on_fault=sink,
            recorder=recorder,
            bots=bots_store,
        )
        # Reconcile: an abandoned pagination (or an unparseable list page)
        # loses listings nobody counted bot-by-bot.  The pipeline knows the
        # population, so the ledger accounts the remainder — collected +
        # skipped always equals the expected population.
        expected = len(self.world.ecosystem.bots)
        missing = expected - len(crawl.bots) - self.ledger.bots_skipped(STAGE_CRAWL)
        if missing > 0:
            from repro.scraper.topgg import TOPGG_HOST

            self.ledger.record(
                STAGE_CRAWL,
                TOPGG_HOST,
                "PaginationAbandoned",
                self.world.clock.now(),
                bots_skipped=missing,
                detail=f"{missing} listings never reached",
            )
        return scraper, crawl

    def analyze_traceability(
        self,
        active_bots: list[ScrapedBot],
        on_fault: StageFaultSink | None = None,
        supervisor: BotSupervisor | None = None,
    ) -> list:
        """Stage 2: website crawl + keyword traceability per active bot.

        With ``on_fault``, a bot whose website dies at the transport level
        (circuit open, connection dropped) is skipped and reported instead
        of crashing the stage; unreachable-but-resolvable websites remain a
        *classification* outcome (broken traceability), not a fault.
        ``supervisor`` is as in :meth:`_run_units`.
        """

        def study(scraper: WebsiteScraper, bot: ScrapedBot):
            if bot.website_url:
                fetch = scraper.fetch_policy(bot.website_url)
            else:
                fetch = PolicyFetchResult(False, False, False)
            return self.traceability_analyzer.analyze(
                bot_name=bot.name,
                permissions=bot.permissions,
                has_website=fetch.website_reachable,
                has_policy_link=fetch.policy_link_found,
                policy_page_valid=fetch.policy_page_valid,
                policy_text=fetch.policy_text,
            )

        return self._run_units(STAGE_TRACEABILITY, self._stream_units(active_bots), study, on_fault, supervisor)

    def analyze_code(
        self,
        active_bots: list[ScrapedBot],
        on_fault: StageFaultSink | None = None,
        supervisor: BotSupervisor | None = None,
    ) -> list:
        """Stage 3: GitHub crawl + Table-3 pattern detection.

        Arguments match :meth:`analyze_traceability`; only bots with a
        GitHub link become units (the others never run), while the
        streamed chunk cadence still counts every active bot.
        """

        def study(scraper: GitHubScraper, bot: ScrapedBot):
            fetched = scraper.fetch_repo(bot.github_url)
            return self.code_analyzer.analyze_repo(
                bot_name=bot.name,
                files=fetched.files,
                link_valid=fetched.link_valid,
                main_language=fetched.main_language,
            )

        units = (bot for bot in self._stream_units(active_bots) if bot.github_url)
        return self._run_units(STAGE_CODE, units, study, on_fault, supervisor)

    def _run_units(
        self,
        stage: str,
        units,
        study: Callable[[Any, ScrapedBot], Any],
        on_fault: StageFaultSink | None,
        supervisor: BotSupervisor | None,
    ) -> list:
        """The per-bot unit loop behind stages 2 and 3.

        Each unit studies one bot with the stage's scraper.  With a
        ``supervisor``, ``study`` runs inside the supervision firewall: a
        crash or deadline blow-out quarantines the bot instead of killing
        the stage.  Transport faults reach ``on_fault``, which skips the
        bot; without a sink they raise.

        With the run's journal open, every bot — processed, skipped or
        quarantined — commits one write-ahead record after its unit of
        work, and a resumed run replays the journal's prefix instead of
        re-crawling those bots.  Replayed records land in the run's ledger
        and quarantine log, where the live run put them.
        """
        scraper_type, client_id, encode, decode, link, skip_detail = _UNIT_STAGES[stage]
        scraper = scraper_type(
            self.world.internet,
            solver=self.world.solver,
            client_id=client_id,
            breakers=self.breakers,
            retry_budget=self._stage_budget(),
        )
        recorder = self._recorder(stage, scraper)
        results = self._stage_results(stage, encode, decode)
        for bot in units:
            if recorder is not None:
                replayed, payload = recorder.try_replay(bot.name)
                if replayed:
                    if payload is not None:
                        results.append(decode(payload))
                    continue
                recorder.begin_unit()
            value = None
            try:
                if supervisor is None:
                    value = study(scraper, bot)
                else:
                    outcome = supervisor.run(bot.name, lambda: study(scraper, bot))
                    value = outcome.value if outcome.completed else None
            except (WebDriverException, NetworkError) as error:
                if on_fault is None:
                    raise
                on_fault(self._host_of(getattr(bot, link)), error, 1, f"{skip_detail} for {bot.name}")
            if value is not None:
                results.append(value)
            if recorder is not None:
                recorder.commit(bot.name, None if value is None else encode(value))
                crashpoint(f"{stage}.after_bot")
        return results

    def run_honeypot(self, on_fault: StageFaultSink | None = None) -> "HoneypotReport":
        """Stage 4: dynamic analysis over the most-voted sample.

        The campaign runs under a supervisor of its own, so hostile
        runtimes are quarantined instead of killing the stage.

        With the run's journal open, the ``honeypot.after_bot`` crash point
        fires per settled bot outcome, but no per-bot record is written:
        guild and platform internals replay all-or-nothing, so a crash
        mid-stage re-runs the stage from its restored start state, and the
        ``stage_complete`` record :meth:`run` appends afterwards is what a
        resumed run replays.
        """
        supervisor = self._supervisor(STAGE_HONEYPOT)
        unit_sink = None if self._journal is None else (lambda outcome: crashpoint("honeypot.after_bot"))
        world = self.world
        experiment = HoneypotExperiment(world.platform, world.internet, solver=world.solver, seed=self.config.seed + 3)
        feed_source = None
        if self.config.use_osn_feed:
            from repro.honeypot.osn_source import OsnFeedSource

            try:
                source = OsnFeedSource.scrape(world.internet, seed=self.config.seed + 6)
            except (WebDriverException, NetworkError) as error:
                if on_fault is None:
                    raise
                on_fault("reddit.sim", error, 0, "OSN feed unavailable; falling back to generated feed")
                source = None
            if source is not None and len(source):
                feed_source = source.next_message
        return experiment.run(
            world.ecosystem.top_voted(self.config.honeypot_sample_size),
            feed_source=feed_source,
            fault_sink=on_fault,
            supervisor=supervisor,
            unit_sink=unit_sink,
        )

    # -- orchestration ----------------------------------------------------------

    def run(self) -> PipelineResult:
        """Run every enabled stage and aggregate the paper's statistics.

        Stages degrade instead of crashing: per-bot faults skip the bot,
        stage-level faults mark the stage ``FAILED``, and everything lost
        is accounted in ``fault_ledger``.
        With ``config.checkpoint_path``, the pipeline snapshots after every
        stage and a re-run resumes from the last completed one.  The
        journal closes however the run ends.
        """
        try:
            return self._run_stages()
        finally:
            if self._journal is not None:
                self._journal.close()

    def _run_stages(self) -> PipelineResult:
        started_wall = time.monotonic()
        started_virtual = self.world.clock.now()
        spent_before = self.world.solver.total_spent
        self.metrics = RunMetrics()

        checkpoint: PipelineCheckpoint | None = None
        if self.config.checkpoint_path is not None:
            # Scrub-on-load: verify every artifact (checksums, stage
            # round-trips, spill references) before trusting it.  Anything
            # inconsistent is quarantined and the checkpoint reset, with
            # the detection recorded under the ``storage`` provenance
            # stage — the journal then replays what the snapshot lost.
            checkpoint = RecoveryManager(self.ledger).scrub_pipeline_checkpoint(
                self.config.checkpoint_path
            )
            self.ledger.extend(checkpoint.ledger)
            self.quarantines.extend(checkpoint.quarantines)
            # Re-enter the simulation exactly where the saving run left it
            # (after ``started_virtual``/``spent_before`` were captured, so
            # whole-campaign deltas match an uninterrupted run's).  An empty
            # checkpoint (a fresh run, or one the scrub reset) carries no
            # world state, and every stage runs from the fresh world.
            if checkpoint.world_state:
                self._restore_world(checkpoint.world_state)
        self._open_journal()

        status: dict[str, str] = {}

        # Stage 1: data collection.
        if checkpoint is not None and checkpoint.has_stage(STAGE_CRAWL):
            crawl, stats = checkpoint.restore_crawl()
            result = PipelineResult(crawl=crawl, scrape_stats=stats)
            status[STAGE_CRAWL] = StageStatus.RESUMED.value
            self._restore_stage_metrics(checkpoint, STAGE_CRAWL)
        else:
            timer = _StageTimer(self, STAGE_CRAWL)
            scraper, crawl = self.collect()
            result = PipelineResult(crawl=crawl, scrape_stats=scraper.stats)
            status[STAGE_CRAWL] = self._stage_outcome(STAGE_CRAWL)
            entry = timer.finish(bots_processed=len(crawl.bots))
            entry.outcome = status[STAGE_CRAWL]
            self.metrics.record(entry)
            self._enforce_accounting(STAGE_CRAWL, len(self.world.ecosystem.bots), status[STAGE_CRAWL])
            if checkpoint is not None:
                checkpoint.store_crawl(crawl, scraper.stats)
                self._save_checkpoint(checkpoint, status)
        active_count, linked_count = _account_crawl(crawl.bots, result)
        active = crawl.with_valid_permissions(active_count)

        # Stages 2–4: one driver over the stage table.
        values: dict[str, Any] = {}
        for stage in self._stage_table(active, active_count, linked_count):
            if stage.enabled:
                values[stage.name] = self._drive(stage, checkpoint, status)
            else:
                status[stage.name] = StageStatus.SKIPPED.value
        # A dead stage (None) gets no summary: an all-zero one would read
        # as "nothing disclosed" instead of "nothing measured".
        if values.get(STAGE_TRACEABILITY) is not None:
            result.traceability_results, result.validation = values[STAGE_TRACEABILITY]
            result.traceability_summary = TraceabilitySummary.from_results(result.traceability_results)
        if values.get(STAGE_CODE) is not None:
            result.repo_analyses = values[STAGE_CODE]
            result.code_summary = CodeAnalysisSummary.from_analyses(
                active_bots=active_count,
                github_links=linked_count,
                analyses=result.repo_analyses,
            )
        result.honeypot = values.get(STAGE_HONEYPOT)

        crashpoint("run.before_result")
        result.fault_ledger = self.ledger
        result.quarantines = self.quarantines
        result.stage_status = status
        if self._journal is not None:
            self.metrics.journal = self._journal.stats.to_dict()
        result.metrics = self.metrics
        result.wall_seconds = time.monotonic() - started_wall
        result.virtual_seconds = self.world.clock.now() - started_virtual
        result.captcha_dollars = self.world.solver.total_spent - spent_before
        return result

    def _stage_table(self, active, active_count: int, linked_count: int) -> tuple[_Stage, ...]:
        """Stages 2–4 in run order, each with what sets it apart.

        ``active_count`` and ``linked_count`` are stage 2's and stage 3's
        populations, counted by the crawl accounting's walk.
        """

        def traceability():
            results = self.analyze_traceability(
                active, on_fault=self._sink(STAGE_TRACEABILITY), supervisor=self._supervisor(STAGE_TRACEABILITY)
            )
            return results, self._validate_traceability()

        def code():
            return self.analyze_code(active, on_fault=self._sink(STAGE_CODE), supervisor=self._supervisor(STAGE_CODE))

        def honeypot():
            return self.run_honeypot(on_fault=self._sink(STAGE_HONEYPOT))

        return (
            _Stage(
                STAGE_TRACEABILITY,
                self.config.run_traceability,
                traceability,
                processed=lambda value: len(value[0]),
                population=lambda: active_count,
                restore=PipelineCheckpoint.restore_traceability,
                store=lambda checkpoint, value: checkpoint.store_traceability(*value),
            ),
            _Stage(
                STAGE_CODE,
                self.config.run_code_analysis,
                code,
                processed=len,
                population=lambda: linked_count,
                restore=PipelineCheckpoint.restore_code,
                store=PipelineCheckpoint.store_code,
            ),
            _Stage(
                STAGE_HONEYPOT,
                self.config.run_honeypot,
                honeypot,
                processed=lambda report: report.bots_processed,
                population=lambda: len(self.world.ecosystem.top_voted(self.config.honeypot_sample_size)),
                restore=PipelineCheckpoint.restore_honeypot,
                store=PipelineCheckpoint.store_honeypot,
            ),
        )

    def _drive(self, stage: _Stage, checkpoint: PipelineCheckpoint | None, status: dict[str, str]) -> Any:
        """Run one of stages 2–4; return its value, or None when it failed.

        A stage the checkpoint holds resumes from it, and a honeypot stage
        whose ``stage_complete`` record the journal holds replays from that.
        Any other stage executes: timed, marked ``failed`` when a transport
        fault escapes it, and held to the accounting invariant.  A value
        that did not come from the checkpoint is saved into it.
        """
        name = stage.name
        if checkpoint is not None and checkpoint.has_stage(name):
            value = stage.restore(checkpoint)
            status[name] = StageStatus.RESUMED.value
            self._restore_stage_metrics(checkpoint, name)
            return value
        replay = self._replay_honeypot_stage() if name == STAGE_HONEYPOT else None
        if replay is not None:
            value, entry, status[name] = replay
            self.metrics.record(entry)
        else:
            timer = _StageTimer(self, name)
            # The honeypot's stage_complete record carries the stage's records.
            faults_mark = self.ledger.mark()
            quarantines_mark = self.quarantines.mark()
            value = None
            try:
                value = stage.execute()
                status[name] = self._stage_outcome(name)
            except (WebDriverException, NetworkError) as error:
                self.ledger.record(
                    name, "<pipeline>", error, self.world.clock.now(), detail="stage aborted; output incomplete"
                )
                status[name] = StageStatus.FAILED.value
            entry = timer.finish(bots_processed=0 if value is None else stage.processed(value))
            entry.outcome = status[name]
            self.metrics.record(entry)
            self._enforce_accounting(name, stage.population(), status[name])
            if name == STAGE_HONEYPOT and value is not None:
                self._journal_honeypot_complete(value, entry, status[name], faults_mark, quarantines_mark)
        if checkpoint is not None and value is not None:
            stage.store(checkpoint, value)
            self._save_checkpoint(checkpoint, status)
        return value

    def _stage_outcome(self, stage: str) -> str:
        return (StageStatus.DEGRADED if self.ledger.count(stage) else StageStatus.COMPLETED).value

    def _enforce_accounting(self, stage: str, population: int, status: str) -> None:
        """Close the books on a freshly-executed stage.

        Every bot the stage was given must be processed, skipped (ledger)
        or quarantined — nothing silently vanishes.  Only meaningful when
        the stage actually produced output.
        """
        if status == StageStatus.FAILED.value:
            return
        entry = self.metrics.stage(stage)
        if entry is None:
            return
        verify_accounting(stage, population, entry.bots_processed, entry.bots_skipped, entry.bots_quarantined)

    def _journal_honeypot_complete(
        self, report: HoneypotReport, entry: StageMetrics, status: str, faults_mark: int, quarantines_mark: int
    ) -> None:
        """Journal the honeypot's ``stage_complete`` record (journaled runs only).

        This is the stage's only journal record, and what a crash between
        here and the checkpoint save replays: the report, the post-stage
        world, and the stage's fault deltas.
        """
        if self._journal is None:
            return
        self._journal.append(
            STAGE_HONEYPOT,
            "stage_complete",
            {
                "result": {"report": honeypot_to_dict(report), "metrics": entry.to_dict(), "status": status},
                "world": self._capture_world(),
                "faults": [record.to_dict() for record in self.ledger.records_since(faults_mark)],
                "quarantines": [record.to_dict() for record in self.quarantines.records_since(quarantines_mark)],
            },
        )
        crashpoint("honeypot.before_save")

    def _replay_honeypot_stage(self) -> tuple["HoneypotReport", StageMetrics, str] | None:
        """Replay a journaled ``stage_complete`` honeypot record, if present.

        Platform internals replay all-or-nothing, so the stage journals no
        per-bot records: a crash mid-campaign leaves nothing to replay and
        the stage re-runs from its restored start state.  Only a
        ``stage_complete`` record (a crash in the compute-to-checkpoint-save
        window) short-circuits execution.
        """
        if self._journal is None:
            return None
        pending = self._journal.pending(STAGE_HONEYPOT)
        record = next((record for record in pending if record.key == "stage_complete"), None)
        if record is None:
            return None
        self._journal.stats.replayed += 1
        body = record.body
        for payload in body.get("faults", ()):
            self.ledger.records.append(FaultRecord.from_dict(payload))
        for payload in body.get("quarantines", ()):
            self.quarantines.records.append(QuarantineRecord.from_dict(payload))
        self._restore_world(body.get("world", {}))
        stored = body["result"]
        return (
            honeypot_from_dict(stored["report"]),
            StageMetrics.from_dict(stored["metrics"]),
            stored["status"],
        )

    def _save_checkpoint(self, checkpoint: PipelineCheckpoint, status: dict[str, str]) -> None:
        checkpoint.stage_status = dict(status)
        checkpoint.ledger = self.ledger
        checkpoint.quarantines = self.quarantines
        checkpoint.metrics = {stage: entry.to_dict() for stage, entry in self.metrics.stages.items()}
        checkpoint.world_state = self._capture_world()
        assert self.config.checkpoint_path is not None
        if self.config.stream:
            # Streamed checkpoints record spill references + counts (a
            # stream cursor) instead of materialized populations; a kill
            # here must leave a checkpoint/spill pair a resume can trust.
            crashpoint("stream.cursor_save")
        checkpoint.save(self.config.checkpoint_path)
        crashpoint("pipeline.after_stage")

    def _restore_stage_metrics(self, checkpoint: PipelineCheckpoint, stage: str) -> None:
        """Carry a completed stage's metrics into this (resumed) run."""
        payload = checkpoint.metrics.get(stage)
        if payload is None:
            return
        entry = StageMetrics.from_dict(payload)
        entry.resumed = True
        self.metrics.record(entry)

    def _validate_traceability(self):
        """The paper's 100-policy manual-review validation."""
        validator = ManualReviewValidator(self.traceability_analyzer, seed=self.config.seed + 4)
        bots = self.world.ecosystem.bots
        if self.config.stream:
            # Probe ranks for eligibility and build only the drawn bots
            # (through the profile cache); the report is byte-identical,
            # since sampling is by index either way.
            return validator.validate_ranks(
                len(bots),
                self.world.ecosystem.stream.policy_eligible_at,
                lambda rank: _policy_entry(bots[rank]),
                sample_size=self.config.validation_sample_size,
            )
        policies = [_policy_entry(bot) for bot in bots if bot.policy.present and bot.policy.link_valid]
        return validator.validate(policies, sample_size=self.config.validation_sample_size)


def _account_crawl(bots, result: PipelineResult) -> tuple[int, int]:
    """The run-level accounting of the crawl, in one walk of it.

    Fills ``result``'s Fig. 3, Table 1 and risk summaries and returns
    ``(active, github_linked)``: the bots with valid permissions (stage 2's
    population) and those of them with a GitHub link (stage 3's).  A
    streamed crawl is a disk spill that every walk re-reads and re-decodes.
    """
    permissions, developers, risk = PermissionDistribution(), DeveloperDistribution(), RiskSummary()
    active = linked = 0
    for bot in bots:
        permissions.add(bot)
        developers.add(bot)
        risk.add(bot)
        if bot.has_valid_permissions:
            active += 1
            if bot.github_url:
                linked += 1
    result.permission_distribution = permissions
    result.developer_distribution = developers
    result.risk_summary = risk
    return active, linked


def _policy_entry(bot) -> tuple:
    """A bot's manual-review entry: ``(name, ground-truth spec, policy text)``."""
    return bot.name, bot.policy, bot.policy_text
