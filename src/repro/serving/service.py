"""The long-lived vetting service: the pipeline as an API under load.

:class:`VettingService` is a :class:`~repro.web.server.VirtualHost` that
platforms query before listing or installing a bot — the paper's
"continuous rigorous vetting process" stood up as a request/response gate
on the virtual internet:

- ``GET/POST /vet/{bot}`` — vet one submission through the pipeline stages.
- ``GET/POST /audit/{guild}`` — vet every bot on a registered guild roster
  (or run the :class:`~repro.core.guardian.GuildGuardian` when the service
  is attached to a platform).
- ``POST /bots/{bot}/update`` — listing changed: invalidate the cached
  verdict so the next request re-vets.
- ``GET /healthz`` / ``GET /readyz`` — liveness and readiness, reporting
  queue depth, shed rate, breaker states and degraded-mode status.

Every request runs under the serving-robustness stack: a bounded admission
queue (shed with ``429 Retry-After``, never unbounded growth), a
per-request virtual-time deadline budget propagated through the stages
(an unaffordable honeypot is skipped-with-degradation, not waited for),
per-stage bulkheads (a stalled sandbox cannot starve cheap static-only
requests), circuit breakers + retry budgets on the service's own outbound
crawling, and a stale-while-revalidate verdict cache so brownouts serve
the last known verdict marked ``stale`` instead of failing.

Degradation ladder: full vet → skip-honeypot (partial verdict,
``degraded=True``) → cached-stale (``stale=True``) → shed (429).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.guardian import GuildGuardian
from repro.core.resilience import (
    CircuitBreakerRegistry,
    CircuitOpenError,
    FaultLedger,
    RetryBudget,
    RetryPolicy,
)
from repro.core.storage import RecoveryManager, atomic_write_json, payload_checksum
from repro.core.vetting import VettingPipeline, VettingPolicy, VettingVerdict
from repro.discordsim.platform import DiscordPlatform
from repro.ecosystem.generator import BotProfile
from repro.serving.admission import AdmissionQueue, Bulkhead, BulkheadSaturatedError
from repro.serving.budget import DeadlineBudget
from repro.serving.cache import CacheEntry, VerdictCache, bot_fingerprint
from repro.serving.metrics import ServingMetrics
from repro.serving.workers import WorkerPool, WorkerPoolPolicy
from repro.sites.botwebsites import POLICY_PATHS, variant_for
from repro.web.client import HttpClient
from repro.web.http import Request, Response, Url
from repro.web.network import NetworkError, VirtualInternet
from repro.web.server import VirtualHost

#: Schema version of the persisted service-state snapshot (``--state``).
SERVING_STATE_VERSION = 1

#: Virtual-second deadline budget for a whole /audit (shared across the
#: roster's bots).
AUDIT_DEADLINE = 21_600.0
#: Bulkhead limits of the two cheap live stages.
TRACEABILITY_LIMIT = 8
CODE_LIMIT = 4
#: Verdict-cache lifetime and size, and the fault ledger's ring size.
CACHE_TTL = 7 * 86_400.0
CACHE_ENTRIES = 10_000
LEDGER_ENTRIES = 5_000
#: Outbound crawling: per-request timeout and attempts, and the retry
#: budget per retry epoch (bounds aggregate retries).
OUTBOUND_TIMEOUT = 30.0
OUTBOUND_ATTEMPTS = 3
RETRY_BUDGET = 256
RETRY_EPOCH = 3_600.0
#: Virtual cost model for the cheap stages.
STATIC_COST = 5.0
CODE_COST = 30.0
TRACEABILITY_ESTIMATE = 60.0
GUARDIAN_COST_PER_BOT = 15.0


def retry_after_header(seconds: float) -> str:
    """``Retry-After`` is whole seconds and must never be 0.

    Rounding to nearest turns any sub-0.5s hint into ``Retry-After: 0`` —
    an invitation to busy-spin that defeats ``AdmissionQueue.min_retry_after``.
    Ceiling, floored at 1, keeps the header an honest "at least this long".
    """
    return str(max(math.ceil(seconds), 1))


@dataclass(frozen=True)
class ServicePolicy:
    """Serving-side knobs: budgets, bounds and the honeypot's cost.

    Stage costs are the virtual seconds a stage charges the request's
    deadline budget (the honeypot charges its *measured* sandbox
    consumption; its estimate below only gates admission to the stage).
    """

    #: Virtual-second deadline budget per /vet request.
    deadline: float = 7_200.0
    queue_capacity: int = 32
    #: /readyz flips unready at this fraction of queue capacity.
    ready_high_water: float = 0.8
    #: The honeypot stage's bulkhead limit.
    honeypot_limit: int = 2
    #: Serving-mode sandbox observation window (shorter than the batch
    #: pipeline's full day — a gate must answer before the listing ships).
    honeypot_observation: float = 3_600.0
    honeypot_overhead: float = 300.0
    #: Seconds after (re)start during which /readyz reports warming.
    warmup: float = 30.0
    #: Virtual cost of a verdict-cache lookup.
    cache_lookup_cost: float = 0.05


class VettingService(VirtualHost):
    """A vet-this-bot / audit-this-guild gate with graceful degradation."""

    def __init__(
        self,
        internet: VirtualInternet,
        bots: list[BotProfile] | dict[str, BotProfile],
        policy: ServicePolicy | None = None,
        vetting_policy: VettingPolicy | None = None,
        seed: int = 1,
        hostname: str = "vetting.gate",
        platform: DiscordPlatform | None = None,
        register: bool = True,
        workers: int = 0,
        pool_policy: WorkerPoolPolicy | None = None,
        state_path: str | Path | None = None,
    ) -> None:
        super().__init__(name=hostname)
        self.internet = internet
        self.clock = internet.clock
        self.policy = policy or ServicePolicy()
        self.hostname = hostname
        self.directory: dict[str, BotProfile] = (
            dict(bots) if isinstance(bots, dict) else {bot.name: bot for bot in bots}
        )
        self.pipeline = VettingPipeline(
            vetting_policy or VettingPolicy(dynamic_observation=self.policy.honeypot_observation),
            seed=seed,
        )
        self.queue = AdmissionQueue(capacity=self.policy.queue_capacity)
        self.bulkheads: dict[str, Bulkhead] = {
            "traceability": Bulkhead("traceability", TRACEABILITY_LIMIT),
            "code": Bulkhead("code", CODE_LIMIT),
            "honeypot": Bulkhead("honeypot", self.policy.honeypot_limit),
        }
        self.cache = VerdictCache(ttl=CACHE_TTL, max_entries=CACHE_ENTRIES)
        self.metrics = ServingMetrics()
        self.ledger = FaultLedger(max_records=LEDGER_ENTRIES)
        self.breakers = CircuitBreakerRegistry(self.clock)
        self.retry_policy = RetryPolicy(max_attempts=OUTBOUND_ATTEMPTS, base_delay=1.0)
        self._retry_epoch_index = -1
        self._retry_budget = RetryBudget(RETRY_BUDGET)
        self.outbound = HttpClient(internet, client_id=f"{hostname}/outbound", default_timeout=OUTBOUND_TIMEOUT)
        self.started_at = self.clock.now()
        self.ready_at = self.started_at + self.policy.warmup
        self.seed = seed
        #: Listing-update epoch per bot: part of the dispatch-ledger job key,
        #: so a vet of the pre-update listing and a vet of the post-update
        #: listing are distinct jobs even when the fingerprint collides.
        self._epochs: dict[str, int] = {}
        self.pool: WorkerPool | None = None
        if workers:
            self.pool = WorkerPool(
                workers,
                seed,
                self.pipeline.policy,
                self.clock,
                fault_ledger=self.ledger,
                policy=pool_policy,
            )
        self._rosters: dict[str, list[str]] = {}
        self.guardian = GuildGuardian(platform) if platform is not None else None
        #: With a path, the verdict cache and counters survive restarts: the
        #: snapshot is scrub-loaded here (damage → quarantine + cold start,
        #: recorded in the fault ledger) and persisted again on shutdown.
        self.state_path = Path(state_path) if state_path is not None else None
        if self.state_path is not None:
            self._restore_persisted_state()
        self._register_routes()
        if register:
            internet.register(hostname, self)

    # -- wiring ---------------------------------------------------------------

    def _register_routes(self) -> None:
        for method in ("GET", "POST"):
            self.add_route("/vet/{bot_name}", self._route_vet, method=method)
            self.add_route("/audit/{guild}", self._route_audit, method=method)
        self.add_route("/bots/{bot_name}/update", self._route_update, method="POST")
        self.add_route("/healthz", self._route_healthz)
        self.add_route("/readyz", self._route_readyz)

    def register_guild(self, guild: str, roster: list[str]) -> None:
        """Declare a guild's installed-bot roster for /audit requests."""
        self._rosters[guild] = list(roster)

    def register_api_client(self, client) -> None:
        """Forward bot API clients to the guardian (usage-based audits)."""
        if self.guardian is None:
            raise ValueError("service was built without a platform; no guardian available")
        self.guardian.register_api_client(client)

    def update_bot(self, bot: BotProfile) -> None:
        """The listing changed: replace the profile and invalidate its verdict."""
        self.directory[bot.name] = bot
        self.cache.invalidate(bot.name)
        self._epochs[bot.name] = self._epochs.get(bot.name, 0) + 1

    def shutdown(self) -> None:
        """Stop the worker pool and persist durable state if configured."""
        if self.pool is not None:
            self.pool.shutdown()
        if self.state_path is not None:
            self.persist_state()

    # -- degraded-mode signal -------------------------------------------------

    @property
    def degraded_mode(self) -> bool:
        """Brownout: saturated admission queue or open outbound breakers."""
        now = self.clock.now()
        return (
            bool(self.breakers.open_hosts())
            or self.queue.depth(now) >= self.policy.queue_capacity
        )

    # -- dispatch (exception firewall) ---------------------------------------

    def handle(self, request: Request, internet: "VirtualInternet | None" = None) -> Response:
        try:
            return super().handle(request, internet)
        except Exception as error:  # the service never lets a request 500 silently
            self.ledger.record(
                "serving", self.hostname, error, self.clock.now(),
                detail=f"unhandled while serving {request.method} {request.path}",
            )
            self.metrics.errors_5xx += 1
            response = self._json({"error": "internal failure; recorded in fault ledger"}, status=503)
            response.headers["Retry-After"] = "5"
            return response

    # -- /vet -----------------------------------------------------------------

    def _route_vet(self, request: Request, bot_name: str) -> Response:
        self.metrics.requests_total += 1
        now = self.clock.now()
        bot = self.directory.get(bot_name)
        if bot is None:
            self.metrics.not_found += 1
            return self._json({"error": f"unknown bot {bot_name!r}"}, status=404)

        shed = self.queue.admit(now)
        if shed is not None:
            return self._degrade_or_shed(bot, now, shed.retry_after, shed.reason)

        budget = DeadlineBudget(start=now, deadline=self.policy.deadline)
        budget.charge("lookup", self.policy.cache_lookup_cost)
        cached = self.cache.lookup(bot, now)
        if cached is not None:
            freshness, entry = cached
            if freshness == "fresh":
                return self._serve_hit(entry, budget)
            if self.degraded_mode:
                # Brownout: answer from the superseded verdict now; the
                # revalidation happens on the next healthy request.
                self.cache.count_stale_hit()
                self.metrics.stale_served += 1
                self.metrics.degraded += 1
                payload = dict(entry.payload)
                payload.update(
                    cache="stale", stale=True, degraded=True,
                    virtual_latency=round(budget.latency, 6),
                )
                return self._serve(payload, budget)
            self.metrics.revalidations += 1

        payload, fingerprint = self._vet_bot(bot, budget)
        payload["cache"] = "revalidated" if cached is not None else "miss"
        payload["virtual_latency"] = round(budget.latency, 6)
        if not payload["degraded"]:
            # Partial (honeypot-skipped) verdicts are not cached: a later,
            # healthier request should produce the full verdict.
            self.cache.store(bot, self._cacheable(payload), now, fingerprint)
        else:
            self.metrics.degraded += 1
        return self._serve(payload, budget)

    def _degrade_or_shed(self, bot: BotProfile, now: float, retry_after: float, reason: str) -> Response:
        """Steps 3-4 of the ladder: cached answer if we have anything, else 429."""
        cached = self.cache.lookup(bot, now)
        if cached is not None:
            freshness, entry = cached
            payload = dict(entry.payload)
            if freshness == "fresh":
                payload.update(cache="hit", stale=False, virtual_latency=self.policy.cache_lookup_cost)
            else:
                self.cache.count_stale_hit()
                self.metrics.stale_served += 1
                self.metrics.degraded += 1
                payload.update(
                    cache="stale", stale=True, degraded=True,
                    virtual_latency=self.policy.cache_lookup_cost,
                )
            self.metrics.served += 1
            self.metrics.observe_latency("/vet", self.policy.cache_lookup_cost)
            return self._json(payload)
        self.metrics.shed += 1
        self.ledger.record(
            "serving", self.hostname, "LoadShed", now, detail=f"{reason}; retry_after={retry_after:.1f}"
        )
        response = self._json({"error": reason, "retry_after": round(retry_after, 3)}, status=429)
        response.headers["Retry-After"] = retry_after_header(retry_after)
        return response

    def _serve(self, payload: dict[str, Any] | str, budget: DeadlineBudget) -> Response:
        """Settle the request and answer with ``payload``, or with a body already encoded."""
        self.queue.settle(budget.cursor)
        self.metrics.served += 1
        self.metrics.observe_latency("/vet", budget.latency)
        return Response.json(payload) if isinstance(payload, str) else self._json(payload)

    def _serve_hit(self, entry: CacheEntry, budget: DeadlineBudget) -> Response:
        """Answer a fresh hit with the body its entry's first fresh hit encoded.

        The body is encoded again only when the latency it carries differs;
        every hit charges the same lookup cost, so once rounded it rarely does.
        """
        latency = round(budget.latency, 6)
        if entry.hit_body is not None and entry.hit_body[0] == latency:
            return self._serve(entry.hit_body[1], budget)
        payload = dict(entry.payload)
        payload.update(cache="hit", stale=False, virtual_latency=latency)
        response = self._serve(payload, budget)
        entry.hit_body = (latency, response.body)
        return response

    @staticmethod
    def _cacheable(payload: dict[str, Any]) -> dict[str, Any]:
        kept = dict(payload)
        for transient in ("cache", "virtual_latency"):
            kept.pop(transient, None)
        return kept

    # -- the staged vet under a deadline budget -------------------------------

    def _vet_bot(self, bot: BotProfile, budget: DeadlineBudget) -> tuple[dict[str, Any], str]:
        """The verdict payload, and the fingerprint it reviewed for the cache entry.

        The profile is digested once here: the pool's job keys and the
        entry the caller stores share the digest.
        """
        fingerprint = bot_fingerprint(bot)
        verdict = VettingVerdict(bot_name=bot.name, approved=True)
        stages: dict[str, str] = {}
        evidence: dict[str, str] = {}

        if not bot.has_valid_permissions:
            verdict.approved = False
            verdict.reasons.append("broken submission: invite link does not resolve")
            stages["static"] = "completed"
        else:
            budget.charge("static", STATIC_COST)
            self.pipeline.review_static(bot, verdict)
            stages["static"] = "completed"
            stages["traceability"] = self._stage_traceability(bot, budget, evidence)
            stages["code"] = self._stage_code(bot, verdict, budget, fingerprint)
            stages["honeypot"] = self._stage_honeypot(bot, verdict, budget, fingerprint)

        return {
            "bot": bot.name,
            "approved": verdict.approved,
            "reasons": list(verdict.reasons),
            "degraded": verdict.degraded,
            "stale": False,
            "stages": stages,
            "evidence": evidence,
            "vetted_at": round(budget.start, 6),
        }, fingerprint

    def _stage_traceability(
        self, bot: BotProfile, budget: DeadlineBudget, evidence: dict[str, str]
    ) -> str:
        """Live disclosure crawl: verify the declared website/policy resolve.

        This is the service's own outbound scraping — it goes over the
        shared virtual internet under whatever chaos is installed, guarded
        by per-host circuit breakers and the service retry budget.
        """
        if bot.website_url is None:
            evidence["website"] = "none"
            return "not_applicable"
        estimate = TRACEABILITY_ESTIMATE
        if not budget.affords(estimate):
            evidence["website"] = "not_checked"
            return "skipped"
        try:
            lease = self.bulkheads["traceability"].acquire(
                budget.cursor, estimate, max_wait=budget.remaining - estimate
            )
        except BulkheadSaturatedError as error:
            self.ledger.record("serving.traceability", self.hostname, "BulkheadSaturated",
                               self.clock.now(), detail=str(error))
            evidence["website"] = "not_checked"
            return "skipped"
        wait = lease.start - budget.cursor
        wall_before = self.clock.now()
        outcome = self._fetch_policy_evidence(bot)
        consumed = max(self.clock.now() - wall_before, 1.0)
        budget.charge("traceability", wait + consumed)
        self.bulkheads["traceability"].release(lease, lease.start + consumed)
        evidence["website"] = outcome
        return "completed" if outcome in ("ok", "dead", "no_policy") else "degraded"

    def _fetch_policy_evidence(self, bot: BotProfile) -> str:
        url = bot.website_url
        assert url is not None
        host = Url.parse(url).host
        attempt = 0
        while True:
            try:
                self.breakers.check(host)
            except CircuitOpenError as error:
                self.ledger.record("serving.traceability", host, error, self.clock.now(),
                                   detail=f"circuit open; skipping live check for {bot.name}")
                return "circuit_open"
            try:
                home = self.outbound.get(url)
            except NetworkError as error:
                self.breakers.record_failure(host)
                if self.retry_policy.should_retry(attempt + 1) and self._spend_retry():
                    self.clock.sleep(self.retry_policy.delay(attempt))
                    attempt += 1
                    continue
                self.ledger.record("serving.traceability", host, error, self.clock.now(),
                                   detail=f"live check failed for {bot.name}")
                return "unreachable"
            if home.status != 200:
                # Rate-limit walls, captcha surges, injected 5xx: the live
                # check is inconclusive, not evidence of a dead site.
                if home.status >= 500:
                    self.breakers.record_failure(host)
                return "inconclusive"
            self.breakers.record_success(host)
            break
        if not bot.policy.present:
            return "no_policy"
        policy_path = POLICY_PATHS[variant_for(bot)]
        try:
            page = self.outbound.get(Url.parse(url).join(policy_path))
        except NetworkError as error:
            self.breakers.record_failure(host)
            self.ledger.record("serving.traceability", host, error, self.clock.now(),
                               detail=f"policy fetch failed for {bot.name}")
            return "unreachable"
        if page.status == 200:
            return "ok"
        if page.status == 404:
            return "dead"
        return "inconclusive"

    def _spend_retry(self) -> bool:
        epoch = int(self.clock.now() // RETRY_EPOCH)
        if epoch != self._retry_epoch_index:
            self._retry_epoch_index = epoch
            self._retry_budget = RetryBudget(RETRY_BUDGET)
        return self._retry_budget.spend()

    def _stage_code(
        self, bot: BotProfile, verdict: VettingVerdict, budget: DeadlineBudget, fingerprint: str
    ) -> str:
        if bot.github is None or not bot.github.has_source_code:
            return "not_applicable"
        if not budget.affords(CODE_COST):
            verdict.skipped_stages.append("code")
            return "skipped"
        try:
            lease = self.bulkheads["code"].acquire(budget.cursor, CODE_COST, max_wait=budget.remaining - CODE_COST)
        except BulkheadSaturatedError as error:
            self.ledger.record("serving.code", self.hostname, "BulkheadSaturated",
                               self.clock.now(), detail=str(error))
            verdict.skipped_stages.append("code")
            return "skipped"
        budget.charge("code", (lease.start - budget.cursor) + CODE_COST)
        self._run_code(bot, verdict, fingerprint)
        return "completed"

    def _stage_honeypot(
        self, bot: BotProfile, verdict: VettingVerdict, budget: DeadlineBudget, fingerprint: str
    ) -> str:
        if not self.pipeline.policy.run_dynamic_review or not verdict.approved:
            return "not_run"
        estimate = self.policy.honeypot_observation + self.policy.honeypot_overhead
        if not budget.affords(estimate):
            verdict.skipped_stages.append("honeypot")
            self.metrics.honeypot_skips += 1
            self.ledger.record("serving.honeypot", self.hostname, "DeadlineExceeded",
                               self.clock.now(),
                               detail=f"{bot.name}: {budget.remaining:.0f}s left, needs {estimate:.0f}s")
            return "skipped"
        try:
            lease = self.bulkheads["honeypot"].acquire(
                budget.cursor, estimate, max_wait=budget.remaining - estimate
            )
        except BulkheadSaturatedError as error:
            verdict.skipped_stages.append("honeypot")
            self.metrics.honeypot_skips += 1
            self.ledger.record("serving.honeypot", self.hostname, "BulkheadSaturated",
                               self.clock.now(), detail=f"{bot.name}: {error}")
            return "skipped"
        consumed = self._run_honeypot(bot, verdict, fingerprint)
        budget.charge("honeypot", (lease.start - budget.cursor) + consumed)
        self.bulkheads["honeypot"].release(lease, lease.start + consumed)
        return "completed"

    # -- worker-pool delegation ------------------------------------------------
    #
    # Both heavy stages are pure deterministic functions of (bot, vetting
    # policy, seed) that only ever *append* to the verdict, so the parent can
    # merge a worker's fresh-verdict result and get bytes identical to running
    # the stage in-process.  All virtual-time accounting (budget charges,
    # bulkhead leases) stays in the parent — worker supervision is wall-clock
    # plumbing that never touches the simulated timeline, which is why
    # workers=0 and workers=N (even under kill-storms) serve identical
    # responses.  A pool that cannot answer (crash cascade, breaker-dark
    # slots, re-dispatch budget spent) returns None and the stage runs
    # in-process: the "in-process fallback" rung of the extended ladder.

    def _job_key(self, bot: BotProfile, fingerprint: str, kind: str) -> str:
        return f"{bot.name}:{fingerprint}:{self._epochs.get(bot.name, 0)}:{kind}"

    def _run_code(self, bot: BotProfile, verdict: VettingVerdict, fingerprint: str) -> None:
        if self.pool is not None:
            result = self.pool.execute("code", bot, key=self._job_key(bot, fingerprint, "code"))
            if result is not None:
                if not result["approved"]:
                    verdict.approved = False
                verdict.reasons.extend(result["reasons"])
                return
        self.pipeline.review_code(bot, verdict)

    def _run_honeypot(self, bot: BotProfile, verdict: VettingVerdict, fingerprint: str) -> float:
        if self.pool is not None:
            result = self.pool.execute(
                "honeypot",
                bot,
                key=self._job_key(bot, fingerprint, "honeypot"),
                observation=self.policy.honeypot_observation,
            )
            if result is not None:
                if not result["approved"]:
                    verdict.approved = False
                verdict.reasons.extend(result["reasons"])
                return result["consumed"]
        return self.pipeline.review_dynamic(bot, verdict, observation=self.policy.honeypot_observation)

    # -- /audit ---------------------------------------------------------------

    def _route_audit(self, request: Request, guild: str) -> Response:
        self.metrics.requests_total += 1
        now = self.clock.now()
        roster = self._rosters.get(guild)
        platform_guild = self._platform_guild(guild) if roster is None else None
        if roster is None and platform_guild is None:
            self.metrics.not_found += 1
            return self._json({"error": f"unknown guild {guild!r}"}, status=404)

        shed = self.queue.admit(now)
        if shed is not None:
            self.metrics.shed += 1
            self.ledger.record("serving", self.hostname, "LoadShed", now,
                               detail=f"audit {guild}: {shed.reason}")
            response = self._json({"error": shed.reason, "retry_after": round(shed.retry_after, 3)}, status=429)
            response.headers["Retry-After"] = retry_after_header(shed.retry_after)
            return response

        budget = DeadlineBudget(start=now, deadline=AUDIT_DEADLINE)
        if platform_guild is not None:
            payload = self._audit_platform_guild(platform_guild, budget)
        else:
            payload = self._audit_roster(guild, roster or [], budget)
        payload["virtual_latency"] = round(budget.latency, 6)
        self.queue.settle(budget.cursor)
        self.metrics.served += 1
        if payload.get("degraded"):
            self.metrics.degraded += 1
        self.metrics.observe_latency("/audit", budget.latency)
        return self._json(payload)

    def _platform_guild(self, guild: str):
        if self.guardian is None:
            return None
        try:
            guild_id = int(guild)
        except ValueError:
            return None
        return self.guardian.platform.guilds.get(guild_id)

    def _audit_roster(self, guild: str, roster: list[str], budget: DeadlineBudget) -> dict[str, Any]:
        verdicts: list[dict[str, Any]] = []
        degraded = False
        for bot_name in roster:
            bot = self.directory.get(bot_name)
            if bot is None:
                verdicts.append({"bot": bot_name, "error": "unknown bot"})
                continue
            cached = self.cache.lookup(bot, self.clock.now())
            if cached is not None and cached[0] == "fresh":
                entry = dict(cached[1].payload)
                entry.update(cache="hit", stale=False)
                verdicts.append(entry)
                budget.charge("lookup", self.policy.cache_lookup_cost)
                continue
            entry, fingerprint = self._vet_bot(bot, budget)
            entry["cache"] = "miss"
            if not entry["degraded"]:
                self.cache.store(bot, self._cacheable(entry), self.clock.now(), fingerprint)
            degraded = degraded or entry["degraded"]
            verdicts.append(entry)
        approved = sum(1 for entry in verdicts if entry.get("approved"))
        return {
            "guild": guild,
            "bots": verdicts,
            "approved": approved,
            "rejected": len(verdicts) - approved,
            "degraded": degraded,
        }

    def _audit_platform_guild(self, guild, budget: DeadlineBudget) -> dict[str, Any]:
        assert self.guardian is not None
        report = self.guardian.audit_guild(guild.guild_id)
        budget.charge("guardian", GUARDIAN_COST_PER_BOT * max(len(report.audits), 1))
        return {
            "guild": str(guild.guild_id),
            "bots": [
                {
                    "bot": audit.bot_name,
                    "risk": round(audit.risk, 4),
                    "high_risk": audit.is_high_risk,
                    "redundant_with_admin": sorted(audit.redundant_with_admin),
                    "granted_but_unused": sorted(audit.granted_but_unused),
                    "data_exposure": sorted(audit.data_exposure),
                }
                for audit in report.audits
            ],
            "high_risk": sum(1 for audit in report.audits if audit.is_high_risk),
            "degraded": False,
        }

    # -- listing updates ------------------------------------------------------

    def _route_update(self, request: Request, bot_name: str) -> Response:
        if bot_name not in self.directory:
            return self._json({"error": f"unknown bot {bot_name!r}"}, status=404)
        invalidated = self.cache.invalidate(bot_name)
        self._epochs[bot_name] = self._epochs.get(bot_name, 0) + 1
        return self._json({"bot": bot_name, "invalidated": invalidated})

    # -- health ---------------------------------------------------------------

    def _route_healthz(self, request: Request) -> Response:
        now = self.clock.now()
        return self._json(
            {
                "status": "ok",
                "uptime": round(now - self.started_at, 3),
                "queue_depth": self.queue.depth(now),
                "queue_capacity": self.policy.queue_capacity,
                "shed_rate": round(self.metrics.shed_rate, 6),
                "breakers_open": self.breakers.open_hosts(),
                "degraded_mode": self.degraded_mode,
                "cache_entries": len(self.cache),
                "pool": self.pool.to_dict() if self.pool is not None else None,
                "ledger": {"faults": len(self.ledger), "dropped": self.ledger.dropped},
                "bulkheads": {
                    name: {"limit": bulkhead.limit, "in_flight": bulkhead.in_flight(now),
                           "saturations": bulkhead.saturations}
                    for name, bulkhead in self.bulkheads.items()
                },
            }
        )

    def _route_readyz(self, request: Request) -> Response:
        now = self.clock.now()
        high_water = int(self.policy.queue_capacity * self.policy.ready_high_water)
        depth = self.queue.depth(now)
        payload = {
            "warming": now < self.ready_at,
            "queue_depth": depth,
            "high_water": high_water,
            "degraded_mode": self.degraded_mode,
        }
        if now < self.ready_at:
            payload["ready"] = False
            response = self._json(payload, status=503)
            response.headers["Retry-After"] = retry_after_header(self.ready_at - now)
            return response
        if depth >= high_water:
            payload["ready"] = False
            earliest = min(self.queue.in_flight) if self.queue.in_flight else now
            response = self._json(payload, status=503)
            response.headers["Retry-After"] = retry_after_header(earliest - now)
            return response
        payload["ready"] = True
        return self._json(payload)

    # -- restart support ------------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["cache"] = self.cache.state_dict()
        state["counters"] = self.metrics.counters_dict()
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        if "cache" in state:
            self.cache.restore_state(state["cache"])
        if "counters" in state:
            self.metrics.restore_counters(state["counters"])

    # -- durable state (--state) ----------------------------------------------

    def persist_state(self) -> Path:
        """Snapshot the verdict cache and counters to ``state_path``.

        Checksummed and written via the unified atomic-write protocol, so a
        crash mid-persist leaves either the previous snapshot or none — a
        reload never sees a torn one.
        """
        if self.state_path is None:
            raise ValueError("service was built without a state_path")
        payload = {
            "version": SERVING_STATE_VERSION,
            "checksum": "",
            "state": self.state_dict(),
        }
        payload["checksum"] = payload_checksum(payload)
        return atomic_write_json(self.state_path, payload, label="serving.state")

    def _restore_persisted_state(self) -> None:
        """Scrub-load the persisted snapshot; damage means a cold start.

        A corrupted or unversioned snapshot is quarantined to ``.corrupt``
        and recorded in the fault ledger — the service starts cold and
        re-earns its cache rather than trusting bytes that failed their
        checksum.
        """
        scrubber = RecoveryManager(self.ledger)
        payload = scrubber.scrub_json_artifact(self.state_path, artifact="serving.state")
        if payload is None:
            return
        if payload.get("version") != SERVING_STATE_VERSION or "state" not in payload:
            scrubber.note(
                "serving.state", self.state_path,
                f"unsupported snapshot version {payload.get('version')!r}",
                "ignored; rebuilding cold",
            )
            return
        try:
            self.restore_state(payload["state"])
        except (KeyError, TypeError, ValueError) as error:
            self.cache = VerdictCache(ttl=CACHE_TTL, max_entries=CACHE_ENTRIES)
            scrubber.note(
                "serving.state", self.state_path,
                f"snapshot fields are damaged: {error}",
                "reset cache; rebuilding cold",
            )

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _json(payload: dict[str, Any], status: int = 200) -> Response:
        return Response.json(json.dumps(payload, sort_keys=True), status=status)
