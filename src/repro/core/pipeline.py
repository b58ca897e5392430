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

import os
import time
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.analysis.code_stats import CodeAnalysisSummary
from repro.analysis.developer_stats import DeveloperDistribution
from repro.analysis.permission_stats import PermissionDistribution
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
    JournalStats,
    StageRecorder,
    UnitTracker,
    WriteAheadJournal,
    record_resume_provenance,
    solver_history_dollars,
)
from repro.core.metrics import RunMetrics, ShardMetrics, StageMetrics
from repro.core.resilience import CircuitBreakerRegistry, FaultRecord, RetryBudget, StageStatus
from repro.core.results import PipelineResult
from repro.core.storage import RecoveryManager, StorageError, install_disk_chaos
from repro.core.sharding import (
    ShardedExecutor,
    ShardOutcome,
    ShardWorld,
    merge_honeypot_reports,
    merge_in_order,
    partition,
)
from repro.core.supervision import BotSupervisor, QuarantineRecord, verify_accounting
from repro.discordsim import behaviors
from repro.discordsim.permissions import Permission
from repro.discordsim.platform import DiscordPlatform
from repro.ecosystem.generator import InviteStatus
from repro.ecosystem.generator import Ecosystem, EcosystemConfig, generate_ecosystem
from repro.honeypot.experiment import HoneypotExperiment, HoneypotReport
from repro.scraper.github import GitHubScraper
from repro.scraper.topgg import ScrapedBot, TopGGScraper
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
            targets=config.targets,
            honeypot_window=config.honeypot_sample_size,
        )
        if config.stream:
            # Same per-rank definition, never materialized: sites decode
            # ranks back out of names/ids instead of holding index maps.
            from repro.ecosystem.stream import StreamingEcosystem

            ecosystem = StreamingEcosystem(eco_config)
        else:
            ecosystem = generate_ecosystem(eco_config)
        return _simulation(config, ecosystem, None, 0.0)


def _simulation(config: PipelineConfig, ecosystem: Ecosystem, index: int | None, start_time: float) -> PipelineWorld:
    """The simulation over ``ecosystem``: the main world, or shard ``index``'s.

    A shard shares only the read-only ecosystem; its clock, internet (with
    every site re-registered), platform and captcha solver are its own.
    Shard seeds are offset by the index, so under chaos each shard draws an
    independent fault schedule; shard 0 seeds like the main world.
    """
    offset = index or 0
    clock = VirtualClock(start_time)
    internet = VirtualInternet(clock, seed=config.seed + offset)
    platform = DiscordPlatform(clock, captcha_seed=config.seed + 1)
    build_store_host(ecosystem, internet, config.defenses)
    DiscordWebsite(ecosystem).register(internet)
    GitHubSite(ecosystem).register(internet)
    BotWebsiteBuilder(ecosystem).register(internet)
    from repro.sites.reddit import RedditSite

    RedditSite(seed=config.seed + 5).register(internet)
    solver = TwoCaptchaClient(clock, balance=config.captcha_balance, seed=config.seed + 2 + offset)
    if config.chaos_profile is not None:
        from repro.web.chaos import FaultSchedule

        internet.install_chaos(FaultSchedule(config.chaos_profile, seed=config.chaos_seed + offset))
    return PipelineWorld(ecosystem=ecosystem, clock=clock, internet=internet, platform=platform, solver=solver)


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

    def finish(self, bots_processed: int, outcomes: list[ShardOutcome] | None = None) -> StageMetrics:
        shards: list[ShardMetrics] = []
        shard_exchanges = 0
        for outcome in outcomes or ():
            shards.append(
                ShardMetrics(
                    shard=outcome.shard_index,
                    bots=len(outcome.items),
                    wall_seconds=outcome.wall_seconds,
                    virtual_seconds=outcome.virtual_seconds,
                    exchanges=outcome.exchanges,
                    quarantined=len(outcome.quarantines),
                )
            )
            shard_exchanges += outcome.exchanges
        return StageMetrics(
            stage=self.stage,
            wall_seconds=time.monotonic() - self._wall,
            virtual_seconds=self._pipeline.world.clock.now() - self._virtual,
            exchanges=self._pipeline.world.internet.exchanges_total - self._exchanges + shard_exchanges,
            bots_processed=bots_processed,
            bots_skipped=self._pipeline.ledger.bots_skipped(self.stage) - self._skipped,
            bots_quarantined=self._pipeline.quarantines.count(self.stage) - self._quarantined,
            shards=shards,
        )


class _Stage(NamedTuple):
    """One of stages 2–4, as the stage driver runs it."""

    name: str
    enabled: bool
    #: Run the stage on every lane: ``(value, per-shard outcomes or None)``.
    execute: Callable[[], tuple[Any, list[ShardOutcome] | None]]
    #: Bots a value accounts for, and bots the stage was given.
    processed: Callable[[Any], int]
    population: Callable[[], int]
    #: The value's checkpoint round-trip.
    restore: Callable[[PipelineCheckpoint], Any]
    store: Callable[[PipelineCheckpoint, Any], None]


#: The per-bot stages 2 and 3: the scraper each runs on its lane (type and
#: client id), its result codecs, the link whose host a transport fault is
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
        self.code_analyzer = CodeAnalyzer(ignore_comments=self.config.ignore_comments_in_code_analysis)
        #: The main world as an execution lane (``index=None``): stages run
        #: on it exactly as they run on a shard's lane.
        self.lane = self._lane(self.world, None)
        #: Per-host circuit breakers shared by every scraper in this run.
        self.breakers = self.lane.breakers
        #: Structured account of every fault the run absorbed.
        self.ledger = self.lane.ledger
        #: Bots the supervision layer pulled out of a stage mid-flight.
        self.quarantines = self.lane.quarantines
        #: Per-stage run metrics (filled by :meth:`run`).
        self.metrics = RunMetrics(shard_count=self.config.shards)
        #: Lazily-built shard worlds (``config.shards > 1`` only).
        self._shard_executor: ShardedExecutor | None = None
        #: Intra-stage write-ahead journals (``config.journal_path`` only):
        #: one for the main world, one per shard (``<path>.shard<k>``).
        self._journal: WriteAheadJournal | None = None
        self._shard_journals: dict[int, WriteAheadJournal] = {}
        #: World-state snapshots for shards not (yet) rebuilt this process,
        #: restored from the checkpoint or a honeypot stage-complete record.
        self._shard_world_states: dict[str, dict] = {}
        #: Where streamed stage results spill (created on first use).
        self._spill_dir: Path | None = None
        #: Process pool for ``config.parallel`` runs (lazily started) and
        #: the journal counters its workers report back.
        self._parallel_runner = None
        self._parallel_journal_stats = JournalStats()
        # Storage-fault injection is process-global (the durable-I/O
        # primitives consult one shim), so installing it here covers every
        # artifact this run writes — and parallel shard workers, which
        # rebuild the pipeline from this same config, arm themselves too.
        if self.config.disk_chaos is not None:
            install_disk_chaos(self.config.disk_chaos, seed=self.config.disk_chaos_seed)
        if self.config.adversarial_bots > 0:
            self._plant_adversaries()

    # -- resilience helpers -------------------------------------------------

    def _stage_budget(self) -> RetryBudget:
        return RetryBudget(self.config.stage_retry_budget)

    def _sink(self, stage: str, lane: ShardWorld) -> StageFaultSink | None:
        """A fault sink writing to the lane's ledger on its clock (None unless faults degrade)."""
        if not self.config.degrade_on_faults:
            return None

        def sink(host: str, error: BaseException, bots_skipped: int, detail: str) -> None:
            lane.ledger.record(stage, host, error, lane.clock.now(), bots_skipped=bots_skipped, detail=detail)

        return sink

    def _supervisor(self, stage: str, lane: ShardWorld) -> BotSupervisor | None:
        """A per-bot supervision firewall for ``stage`` on ``lane`` (None when disabled).

        Quarantines land in the lane's ledger and log on the lane's clock;
        the honeypot stage also guards the lane's platform event bus.
        Transport faults (``WebDriverException``/``NetworkError``) pass
        through untouched — the existing skip/fault-sink paths own those.
        """
        if not (self.config.degrade_on_faults and self.config.supervise_bots):
            return None
        return BotSupervisor(
            stage=stage,
            clock=lane.clock,
            ledger=lane.ledger,
            quarantines=lane.quarantines,
            bus=lane.platform.events if stage == STAGE_HONEYPOT else None,
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
        """
        rotation = (behaviors.CRASHER, behaviors.FLOODER, behaviors.STALLER)
        planted = 0
        for bot in self.world.ecosystem.top_voted(self.config.honeypot_sample_size):
            if planted >= self.config.adversarial_bots:
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

    # -- journal + world-state helpers --------------------------------------

    def _open_journal(self, path: str) -> WriteAheadJournal:
        journal = WriteAheadJournal(path, fsync_every=self.config.journal_fsync_every)
        if journal.discard_detail:
            record_resume_provenance(self.ledger, f"{Path(path).name}: {journal.discard_detail}")
        return journal

    def _main_journal(self) -> WriteAheadJournal | None:
        if self.config.journal_path is None:
            return None
        if self._journal is None:
            self._journal = self._open_journal(self.config.journal_path)
        return self._journal

    def _recorder(
        self, stage: str, lane: ShardWorld, journal: WriteAheadJournal | None, scraper
    ) -> StageRecorder | None:
        """The journal cursor for one stage's unit loop on ``lane`` (None without a journal)."""
        if journal is None:
            return None
        tracker = UnitTracker(
            lane.clock,
            lane.internet,
            lane.ledger,
            lane.quarantines,
            breakers=lane.breakers,
            budget=scraper.retry_budget,
            solver=lane.solver,
            scraper=scraper,
        )
        return StageRecorder(journal, stage, tracker, lane.ledger)

    def _capture_all_worlds(self) -> dict:
        """Snapshot the main world and every built shard world.

        Shards never rebuilt this process keep their stashed snapshots —
        a resumed run that replays stages 2–4 from the checkpoint must not
        lose the shard solver spend those snapshots carry.
        """
        payload: dict[str, Any] = {"main": self.lane.capture(), "shards": dict(self._shard_world_states)}
        if self._shard_executor is not None:
            for shard in self._shard_executor.worlds:
                payload["shards"][str(shard.index)] = shard.capture()
        return payload

    def _restore_all_worlds(self, payload: dict) -> None:
        """Re-enter the simulation exactly where a snapshot left it."""
        main = payload.get("main")
        if main:
            self.lane.restore(main)
        shards = {str(key): value for key, value in payload.get("shards", {}).items()}
        if self._shard_executor is not None:
            for shard in self._shard_executor.worlds:
                state = shards.get(str(shard.index))
                if state:
                    shard.restore(state)
        self._shard_world_states = shards

    def _aggregate_journal_stats(self) -> None:
        journals = [journal for journal in (self._journal, *self._shard_journals.values()) if journal is not None]
        worked = self._parallel_journal_stats.to_dict() != JournalStats().to_dict()
        if not journals and not worked:
            return
        total = JournalStats()
        for journal in journals:
            total.merge(journal.stats)
        # Shard journals owned by worker processes report their counters
        # back through the task payloads.
        total.merge(self._parallel_journal_stats)
        self.metrics.journal = total.to_dict()

    def _close_journals(self) -> None:
        for journal in (self._journal, *self._shard_journals.values()):
            if journal is not None:
                journal.close()

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

    def _stage_results(self, stage: str, encode, decode, shard: int | None = None):
        """A stage's result accumulator: a list, or a disk spill when streaming.

        One JSONL spill per stage (per shard view, when sharded) beside the
        checkpoint, or in a temp directory private to this pipeline, using
        the stage's checkpoint codecs — so the streamed accumulator holds a
        file handle and a count, never the records.
        """
        if not self.config.stream:
            return []
        from repro.core.spill import SpillList, spill_dir_for

        if self._spill_dir is None:
            self._spill_dir = spill_dir_for(self.config.checkpoint_path)
        name = stage if shard is None else f"{stage}.shard{shard}"
        return SpillList(self._spill_dir / f"{name}.jsonl", encode, decode)

    # -- stages ------------------------------------------------------------

    def collect(self) -> tuple[TopGGScraper, "CrawlResult"]:
        """Stage 1: crawl the listing site."""
        scraper = TopGGScraper(
            self.world.internet,
            solver=self.world.solver,
            breakers=self.breakers,
            retry_budget=self._stage_budget(),
        )
        sink = self._sink(STAGE_CRAWL, self.lane)
        recorder = self._recorder(STAGE_CRAWL, self.lane, self._main_journal(), scraper)
        bots_store = None
        if self.config.stream:
            from repro.scraper.checkpoint import scraped_bot_from_dict, scraped_bot_to_dict

            bots_store = self._stage_results(STAGE_CRAWL, scraped_bot_to_dict, scraped_bot_from_dict)
        crawl = scraper.crawl(
            max_pages=self.config.max_pages,
            resolve_permissions=self.config.resolve_permissions,
            on_fault=sink,
            recorder=recorder,
            bots=bots_store,
        )
        if sink is not None and self.config.max_pages is None:
            # Reconcile: an abandoned pagination (or an unparseable list
            # page) loses listings nobody counted bot-by-bot.  The pipeline
            # knows the population, so the ledger accounts the remainder —
            # collected + skipped always equals the expected population.
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
        world: ShardWorld | None = None,
        supervisor: BotSupervisor | None = None,
        journal: WriteAheadJournal | None = None,
    ) -> list:
        """Stage 2: website crawl + keyword traceability per active bot.

        With ``on_fault``, a bot whose website dies at the transport level
        (circuit open, connection dropped) is skipped and reported instead
        of crashing the stage; unreachable-but-resolvable websites remain a
        *classification* outcome (broken traceability), not a fault.

        ``world`` points the stage at a shard's lane (its clock, internet,
        breakers, ledger and quarantine log); by default it runs on the
        main lane.  ``supervisor`` and ``journal`` are as in
        :meth:`_run_units`.
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

        return self._run_units(
            STAGE_TRACEABILITY, self._stream_units(active_bots), study, world, on_fault, supervisor, journal
        )

    def analyze_code(
        self,
        active_bots: list[ScrapedBot],
        on_fault: StageFaultSink | None = None,
        world: ShardWorld | None = None,
        supervisor: BotSupervisor | None = None,
        journal: WriteAheadJournal | None = None,
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
        return self._run_units(STAGE_CODE, units, study, world, on_fault, supervisor, journal)

    def _run_units(
        self,
        stage: str,
        units,
        study: Callable[[Any, ScrapedBot], Any],
        world: ShardWorld | None,
        on_fault: StageFaultSink | None,
        supervisor: BotSupervisor | None,
        journal: WriteAheadJournal | None,
    ) -> list:
        """The per-bot unit loop behind stages 2 and 3.

        Each unit studies one bot with the stage's scraper, built on the
        ``world`` lane (the main lane by default).  With a ``supervisor``,
        ``study`` runs inside the supervision firewall: a crash or deadline
        blow-out quarantines the bot instead of killing the stage.
        Transport faults reach ``on_fault``, which skips the bot; without a
        sink they raise.

        With a ``journal``, every bot — processed, skipped or quarantined —
        commits one write-ahead record after its unit of work, and a resumed
        run replays the journal's prefix instead of re-crawling those bots.
        Replayed records land in the lane's ledger and quarantine log, where
        the live run put them.
        """
        scraper_type, client_id, encode, decode, link, skip_detail = _UNIT_STAGES[stage]
        lane = world or self.lane
        scraper = scraper_type(
            lane.internet,
            solver=lane.solver,
            client_id=client_id,
            breakers=lane.breakers,
            retry_budget=self._stage_budget(),
        )
        recorder = self._recorder(stage, lane, journal, scraper)
        results = self._stage_results(stage, encode, decode, lane.index)
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

    def run_honeypot(
        self,
        on_fault: StageFaultSink | None = None,
        sample: list | None = None,
        world: ShardWorld | None = None,
        seed: int | None = None,
        supervisor: BotSupervisor | None = None,
        journal: WriteAheadJournal | None = None,
    ) -> "HoneypotReport":
        """Stage 4: dynamic analysis over the most-voted sample.

        ``sample``/``world``/``seed`` let a shard run its bucket of bots on
        its own platform view; the defaults reproduce the sequential run.
        Called without a ``world``, a supervisor is built automatically
        (when supervision is enabled) so hostile runtimes are quarantined;
        lane callers pass their own, wired to the lane's clock and bus.

        With a ``journal``, one forensic record is appended per settled bot
        outcome.  Unlike stages 2–3 these records carry no replayable state
        (guild/platform internals replay all-or-nothing): a crash mid-stage
        discards them and re-runs the stage from its restored start state;
        the ``stage_complete`` record :meth:`run` appends afterwards is what
        a resumed run actually replays.
        """
        if supervisor is None and world is None:
            supervisor = self._supervisor(STAGE_HONEYPOT, self.lane)
        world = world or self.lane
        if seed is None:
            # Prime stride keeps shard streams clear of the other
            # seed-derived streams (seed+1..seed+6).
            seed = self.config.seed + 3 + (0 if world.index is None else 7919 * (world.index + 1))
        unit_sink = None
        if journal is not None:

            def unit_sink(outcome) -> None:
                journal.append(STAGE_HONEYPOT, f"bot-{outcome.bot_name}", {"result": None})
                crashpoint("honeypot.after_bot")

        experiment = HoneypotExperiment(world.platform, world.internet, solver=world.solver, seed=seed)
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
        if sample is None:
            sample = self.world.ecosystem.top_voted(self.config.honeypot_sample_size)
        return experiment.run(
            sample,
            personas_per_guild=self.config.personas_per_guild,
            feed_messages=self.config.feed_messages,
            observation_window=self.config.observation_window,
            feed_source=feed_source,
            fault_sink=on_fault,
            supervisor=supervisor,
            unit_sink=unit_sink,
        )

    # -- execution lanes ----------------------------------------------------------

    def _lane(self, world: PipelineWorld, index: int | None) -> ShardWorld:
        """``world`` as an execution lane with circuit breakers of its own."""
        breakers = CircuitBreakerRegistry(
            world.clock,
            failure_threshold=self.config.circuit_failure_threshold,
            recovery_time=self.config.circuit_recovery_time,
        )
        return ShardWorld(index, world.clock, world.internet, world.platform, world.solver, breakers)

    def _shard_lane(self, index: int, start_time: float) -> ShardWorld:
        """Shard ``index``'s isolated lane over this run's ecosystem."""
        return self._lane(_simulation(self.config, self.world.ecosystem, index, start_time), index)

    def _parallel_active(self) -> bool:
        """Whether shard buckets run in worker processes this run.

        Crash injection and crash-point recording need every crashpoint
        hit in one process, so arming either environment knob falls the
        run back to in-process shard buckets — same output, byte for byte,
        just without the parallel speedup.
        """
        from repro.core.crashpoints import ENV_CRASH_AT, ENV_RECORD

        return (
            self.config.parallel
            and self.config.shards > 1
            and not os.environ.get(ENV_CRASH_AT)
            and not os.environ.get(ENV_RECORD)
        )

    def _sharded(self) -> ShardedExecutor:
        """The shard worlds, built lazily at the first sharded stage.

        A resumed run re-enters each shard exactly where the saving run left
        it: freshly built worlds are overwritten with the stashed per-shard
        snapshots (RNG streams, chaos draws, breakers, solver accounts) so a
        sharded resume stays byte-identical to an uninterrupted run.
        """
        if self._shard_executor is None:
            start_time = self.world.clock.now()
            worlds = [self._shard_lane(index, start_time) for index in range(self.config.shards)]
            self._shard_executor = ShardedExecutor(worlds)
            self._restore_all_worlds({"shards": self._shard_world_states})
            # In parallel mode each worker process owns its shard journal
            # exclusively; the parent must not hold (and truncate) them.
            if self.config.journal_path is not None and not self._parallel_active():
                self._shard_journals = {
                    shard.index: self._open_journal(f"{self.config.journal_path}.shard{shard.index}")
                    for shard in worlds
                }
        return self._shard_executor

    def run_shard_bucket(self, stage: str, shard: ShardWorld, bots: list, journal: WriteAheadJournal | None):
        """Run one lane's bucket of ``stage`` — the single per-bot stage
        dispatch shared by the main world, in-process shards and the
        process-pool workers.

        Faults, quarantines and supervision all land in the *lane's* own
        ledger/log/bus; a sharded caller extracts the stage's deltas
        afterwards.
        """
        if stage not in _UNIT_STAGES and stage != STAGE_HONEYPOT:
            raise ValueError(f"stage {stage!r} is not sharded")
        on_fault = self._sink(stage, shard)
        supervisor = self._supervisor(stage, shard)
        if stage in _UNIT_STAGES:
            analyze = self.analyze_traceability if stage == STAGE_TRACEABILITY else self.analyze_code
            return analyze(bots, on_fault=on_fault, world=shard, supervisor=supervisor, journal=journal)
        if shard.index is not None and not bots:
            # An empty shard bucket has nothing to honeypot, so it never
            # scrapes the OSN feed either.
            return HoneypotReport()
        return self.run_honeypot(on_fault=on_fault, sample=bots, world=shard, supervisor=supervisor, journal=journal)

    def _process_runner(self):
        """The run's process pool, started on first parallel stage."""
        if self._parallel_runner is None:
            from repro.core.parallel import ProcessShardRunner

            self._parallel_runner = ProcessShardRunner(max_workers=self.config.shards)
        return self._parallel_runner

    def _close_parallel_runner(self) -> None:
        if self._parallel_runner is not None:
            self._parallel_runner.close()
            self._parallel_runner = None

    def _run_parallel_stage(
        self, stage: str, executor: ShardedExecutor, buckets: list[list]
    ) -> list[ShardOutcome]:
        """Run every shard's bucket in a worker process; outcomes in shard order.

        The parent captures each shard world, ships it to a worker, and on
        return restores the worker's post-stage snapshot into its own shard
        world — so the parent-side worlds evolve exactly as if the stage had
        run in-process, and every later consumer (clock sync, checkpointing,
        captcha accounting) is none the wiser.
        """
        from repro.core.parallel import ShardTaskSpec, decode_stage_value

        child_config = replace(self.config, checkpoint_path=None, journal_path=None, parallel=False)
        specs = []
        for shard, bucket in zip(executor.worlds, buckets):
            specs.append(
                ShardTaskSpec(
                    stage=stage,
                    index=shard.index,
                    start_time=shard.clock.now(),
                    config=child_config,
                    # Honeypot buckets are ecosystem bot profiles, outside
                    # the pickling contract; the worker recomputes its
                    # bucket from the deterministic sample partition.
                    bots=None if stage == STAGE_HONEYPOT else list(bucket),
                    world_state=shard.capture(),
                    journal_path=(
                        f"{self.config.journal_path}.shard{shard.index}"
                        if self.config.journal_path is not None
                        else None
                    ),
                )
            )
        payloads = self._process_runner().run(specs)
        outcomes: list[ShardOutcome] = []
        for shard, bucket, payload in zip(executor.worlds, buckets, payloads):
            shard.restore(payload["world"])
            faults = [FaultRecord.from_dict(record) for record in payload["faults"]]
            quarantined = [QuarantineRecord.from_dict(record) for record in payload["quarantines"]]
            shard.ledger.records.extend(faults)
            shard.quarantines.records.extend(quarantined)
            if payload.get("journal_discard"):
                record_resume_provenance(self.ledger, payload["journal_discard"])
            if payload.get("journal_stats") is not None:
                self._parallel_journal_stats.merge(JournalStats(**payload["journal_stats"]))
            outcomes.append(
                ShardOutcome(
                    shard_index=shard.index,
                    items=list(bucket),
                    value=decode_stage_value(stage, payload["value"]),
                    wall_seconds=payload["wall_seconds"],
                    virtual_seconds=payload["virtual_seconds"],
                    exchanges=payload["exchanges"],
                    faults=faults,
                    quarantines=quarantined,
                )
            )
        return outcomes

    def _run_lanes(
        self, stage: str, units, merge: Callable[[list[ShardOutcome]], Any]
    ) -> tuple[Any, list[ShardOutcome] | None]:
        """Run ``stage`` over ``units``: on the main lane, or split across shards.

        Sharded, units partition by stable id hash (client id for the
        honeypot, listing id otherwise); buckets run in worker processes or
        here in shard order, and ``merge`` folds their values back.  The
        shards' records then join the run's logs and the main clock moves to
        the shards' horizon: virtual time merges as *max across shards*,
        because shards run concurrently in simulated time.
        """
        if self.config.shards <= 1:
            return self.run_shard_bucket(stage, self.lane, units, self._main_journal()), None
        key = (lambda bot: bot.client_id) if stage == STAGE_HONEYPOT else (lambda bot: bot.listing_id)
        buckets = partition(units, self.config.shards, key=key)
        executor = self._sharded()
        if self._parallel_active():
            outcomes = self._run_parallel_stage(stage, executor, buckets)
        else:
            outcomes = executor.run_stage(
                buckets,
                lambda shard, bots: self.run_shard_bucket(stage, shard, bots, self._shard_journals.get(shard.index)),
            )
        for outcome in outcomes:
            self.ledger.records.extend(outcome.faults)
            self.quarantines.records.extend(outcome.quarantines)
        horizon = executor.sync_clocks()
        now = self.world.clock.now()
        if horizon > now:
            self.world.clock.advance(horizon - now)
        crashpoint("sharding.after_merge")
        return merge(outcomes), outcomes

    # -- orchestration ----------------------------------------------------------

    def run(self) -> PipelineResult:
        """Run every enabled stage and aggregate the paper's statistics.

        Stages degrade instead of crashing (``config.degrade_on_faults``):
        per-bot faults skip the bot, stage-level faults mark the stage
        ``FAILED``, and everything lost is accounted in ``fault_ledger``.
        With ``config.checkpoint_path``, the pipeline snapshots after every
        stage and a re-run resumes from the last completed one.  The
        journals and the process pool close however the run ends.
        """
        try:
            return self._run_stages()
        finally:
            self._close_journals()
            self._close_parallel_runner()

    def _run_stages(self) -> PipelineResult:
        started_wall = time.monotonic()
        started_virtual = self.world.clock.now()
        spent_before = self.world.solver.total_spent
        self.metrics = RunMetrics(shard_count=self.config.shards)

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
            # whole-campaign deltas match an uninterrupted run's).  A
            # salvaged checkpoint carries no world state: stages then re-run
            # from the fresh world, as before world capture existed.
            if checkpoint.world_state:
                self._restore_all_worlds(checkpoint.world_state)
        self._main_journal()

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
            if self.config.max_pages is None:
                self._enforce_accounting(STAGE_CRAWL, len(self.world.ecosystem.bots), status[STAGE_CRAWL])
            if checkpoint is not None:
                checkpoint.store_crawl(crawl, scraper.stats)
                self._save_checkpoint(checkpoint, status)
        active = crawl.with_valid_permissions()

        result.permission_distribution = PermissionDistribution.from_bots(crawl.bots)
        result.developer_distribution = DeveloperDistribution.from_bots(crawl.bots)
        from repro.analysis.risk import RiskSummary

        result.risk_summary = RiskSummary.from_bots(crawl.bots)

        # Stages 2–4: one driver over the stage table.
        values: dict[str, Any] = {}
        for stage in self._stage_table(active):
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
                active_bots=len(active),
                github_links=sum(1 for bot in active if bot.github_url),
                analyses=result.repo_analyses,
            )
        result.honeypot = values.get(STAGE_HONEYPOT)

        crashpoint("run.before_result")
        result.fault_ledger = self.ledger
        result.quarantines = self.quarantines
        result.stage_status = status
        self._aggregate_journal_stats()
        result.metrics = self.metrics
        result.wall_seconds = time.monotonic() - started_wall
        result.virtual_seconds = self.world.clock.now() - started_virtual
        # Captcha dollars merge as a *sum*: the main solver's delta plus
        # everything the per-shard solvers spent.  When a resumed run never
        # rebuilt the shard worlds, their spend still lives in the stashed
        # snapshots' solver histories.
        result.captcha_dollars = self.world.solver.total_spent - spent_before
        if self._shard_executor is not None:
            result.captcha_dollars += self._shard_executor.captcha_dollars()
        elif self._shard_world_states:
            result.captcha_dollars += sum(
                solver_history_dollars(state.get("solver", {}))
                for state in self._shard_world_states.values()
            )
        return result

    def _stage_table(self, active) -> tuple[_Stage, ...]:
        """Stages 2–4 in run order, each with what sets it apart."""
        by_name = attrgetter("bot_name")

        def traceability():
            results, outcomes = self._run_lanes(
                STAGE_TRACEABILITY,
                active,
                lambda outcomes: merge_in_order(
                    outcomes, [bot.name for bot in active], key=by_name, what="traceability merge"
                ),
            )
            return (results, self._validate_traceability()), outcomes

        def code():
            # Only GitHub-linked bots ever enter the stage; the others are
            # legitimately absent from every shard, not silently dropped.
            return self._run_lanes(
                STAGE_CODE,
                active,
                lambda outcomes: merge_in_order(
                    outcomes, [bot.name for bot in active if bot.github_url], key=by_name, what="code merge"
                ),
            )

        def sample() -> list:
            return self.world.ecosystem.top_voted(self.config.honeypot_sample_size)

        def honeypot():
            bots = sample()
            return self._run_lanes(
                STAGE_HONEYPOT, bots, lambda outcomes: merge_honeypot_reports(outcomes, [bot.name for bot in bots])
            )

        return (
            _Stage(
                STAGE_TRACEABILITY,
                self.config.run_traceability,
                traceability,
                processed=lambda value: len(value[0]),
                population=lambda: len(active),
                restore=PipelineCheckpoint.restore_traceability,
                store=lambda checkpoint, value: checkpoint.store_traceability(*value),
            ),
            _Stage(
                STAGE_CODE,
                self.config.run_code_analysis,
                code,
                processed=len,
                population=lambda: sum(1 for bot in active if bot.github_url),
                restore=PipelineCheckpoint.restore_code,
                store=PipelineCheckpoint.store_code,
            ),
            _Stage(
                STAGE_HONEYPOT,
                self.config.run_honeypot,
                honeypot,
                processed=lambda report: report.bots_processed,
                population=lambda: len(sample()),
                restore=PipelineCheckpoint.restore_honeypot,
                store=PipelineCheckpoint.store_honeypot,
            ),
        )

    def _drive(self, stage: _Stage, checkpoint: PipelineCheckpoint | None, status: dict[str, str]) -> Any:
        """Run one of stages 2–4; return its value, or None when it failed.

        A stage the checkpoint holds resumes from it, and a honeypot stage
        whose ``stage_complete`` record the journal holds replays from that.
        Any other stage executes on every lane: timed, marked ``failed``
        when a transport fault escapes it, and held to the accounting
        invariant.  A value that did not come from the checkpoint is saved
        into it.
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
            value = outcomes = None
            try:
                value, outcomes = stage.execute()
                status[name] = self._stage_outcome(name)
            except (WebDriverException, NetworkError) as error:
                if not self.config.degrade_on_faults:
                    raise
                self.ledger.record(
                    name, "<pipeline>", error, self.world.clock.now(), detail="stage aborted; output incomplete"
                )
                status[name] = StageStatus.FAILED.value
            entry = timer.finish(bots_processed=0 if value is None else stage.processed(value), outcomes=outcomes)
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
        faults degrade (otherwise they raise before reaching here) and the
        stage actually produced output.
        """
        if status == StageStatus.FAILED.value or not self.config.degrade_on_faults:
            return
        entry = self.metrics.stage(stage)
        if entry is None:
            return
        verify_accounting(stage, population, entry.bots_processed, entry.bots_skipped, entry.bots_quarantined)

    def _journal_honeypot_complete(
        self, report: HoneypotReport, entry: StageMetrics, status: str, faults_mark: int, quarantines_mark: int
    ) -> None:
        """Journal the honeypot's ``stage_complete`` record (journaled runs only).

        Per-bot honeypot records are forensic only; this record is what a
        crash between here and the checkpoint save replays: the merged
        report, the post-stage world, and the stage's fault deltas.
        """
        journal = self._main_journal()
        if journal is None:
            return
        journal.append(
            STAGE_HONEYPOT,
            "stage_complete",
            {
                "result": {"report": honeypot_to_dict(report), "metrics": entry.to_dict(), "status": status},
                "world": self._capture_all_worlds(),
                "faults": [record.to_dict() for record in self.ledger.records_since(faults_mark)],
                "quarantines": [record.to_dict() for record in self.quarantines.records_since(quarantines_mark)],
            },
        )
        crashpoint("honeypot.before_save")

    def _replay_honeypot_stage(self) -> tuple["HoneypotReport", StageMetrics, str] | None:
        """Replay a journaled ``stage_complete`` honeypot record, if present.

        The honeypot's per-bot records carry no replayable state (platform
        internals replay all-or-nothing), so a partial set — a crash
        mid-campaign — is discarded and counted, and the stage re-runs from
        its restored start state.  Only a ``stage_complete`` record (a crash
        in the compute-to-checkpoint-save window) short-circuits execution.
        """
        journal = self._main_journal()
        if journal is None:
            return None
        pending = journal.pending(STAGE_HONEYPOT)
        if not pending:
            return None
        marker: tuple[int, Any] | None = None
        for position, record in enumerate(pending):
            if record.key == "stage_complete":
                marker = (position, record)
        if marker is None:
            journal.stats.discarded += len(pending)
            record_resume_provenance(
                self.ledger,
                f"stage honeypot: discarded {len(pending)} partial per-bot record(s); stage re-runs",
            )
            return None
        position, record = marker
        journal.stats.replayed += position + 1
        body = record.body
        for payload in body.get("faults", ()):
            self.ledger.records.append(FaultRecord.from_dict(payload))
        for payload in body.get("quarantines", ()):
            self.quarantines.records.append(QuarantineRecord.from_dict(payload))
        self._restore_all_worlds(body.get("world", {}))
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
        checkpoint.world_state = self._capture_all_worlds()
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
            # Two passes over the stream — count eligible, then collect the
            # sampled ordinals — instead of one materialized list; the
            # report is byte-identical (sampling is by index either way).
            count = sum(1 for bot in bots if bot.policy.present and bot.policy.link_valid)
            entries = (
                (bot.name, bot.policy, bot.policy_text)
                for bot in bots
                if bot.policy.present and bot.policy.link_valid
            )
            return validator.validate_stream(
                entries, count, sample_size=self.config.validation_sample_size
            )
        policies = [
            (bot.name, bot.policy, bot.policy_text)
            for bot in self.world.ecosystem.bots
            if bot.policy.present and bot.policy.link_valid
        ]
        return validator.validate(policies, sample_size=self.config.validation_sample_size)
