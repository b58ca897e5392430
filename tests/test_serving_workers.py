"""Tests for the supervised vet-worker pool.

Covers the dispatch ledger's exactly-once book, the BotProfile codec, worker
↔ in-process verdict parity, crash detection / replacement / re-dispatch
(including ``REPRO_CRASH_AT``-armed workers), hedged retries with duplicate
suppression, the extended degradation ladder (pool down → in-process
fallback), the multi-client harness, the kill-storm contract, and the
cross-mode byte-equality guarantee (workers=0 vs workers=N).
"""

import dataclasses
import json
import multiprocessing
import time

import pytest

import repro.serving.cache as cache_module
import repro.serving.service as service_module
import repro.serving.workers as workers_module
from repro.core.vetting import VettingPipeline, VettingPolicy, VettingVerdict
from repro.discordsim import behaviors
from repro.discordsim.permissions import Permission, Permissions
from repro.ecosystem.generator import EcosystemConfig, InviteStatus, generate_ecosystem
from repro.ecosystem.policies import PolicySpec
from repro.serving import (
    DispatchInvariantError,
    DispatchLedger,
    LoadScript,
    ServicePolicy,
    ServingHarness,
    VettingService,
    WorkerPool,
    WorkerPoolPolicy,
)
from repro.serving.cache import bot_fingerprint
from repro.serving.workers import bot_profile_from_payload, bot_profile_to_payload
from repro.sites.botwebsites import BotWebsiteBuilder
from repro.web.chaos import FaultSchedule
from repro.web.client import HttpClient
from repro.web.network import VirtualClock, VirtualInternet

QUICK = ServicePolicy(warmup=0.0, honeypot_observation=600.0, honeypot_overhead=60.0)
#: Tight wall-clock supervision so crash/hedge paths resolve in test time.
FAST_POOL = WorkerPoolPolicy(poll_interval=0.005, hedge_after=30.0, job_timeout=60.0)


@pytest.fixture(scope="module")
def ecosystem():
    return generate_ecosystem(EcosystemConfig(n_bots=120, seed=88, honeypot_window=20))


def build_world(ecosystem, policy=QUICK, seed=9, workers=0, pool_policy=None, chaos=None, bots=None):
    clock = VirtualClock()
    internet = VirtualInternet(clock, seed=seed)
    BotWebsiteBuilder(ecosystem).register(internet)
    if chaos is not None:
        internet.install_chaos(FaultSchedule(chaos, seed=31))
    service = VettingService(
        internet,
        bots if bots is not None else ecosystem.bots,
        policy=policy,
        seed=seed,
        workers=workers,
        pool_policy=pool_policy or (FAST_POOL if workers else None),
    )
    client = HttpClient(internet, client_id="test-driver")
    return internet, service, client


def clean_bot(ecosystem, name=None):
    """A bot that passes every static gate (same recipe as test_vetting)."""
    bot = next(
        b
        for b in ecosystem.bots
        if b.invite_status is InviteStatus.VALID and b.behavior == behaviors.BENIGN
    )
    clone = dataclasses.replace(bot)
    if name is not None:
        clone.name = name
    clone.permissions = Permissions.of(Permission.SEND_MESSAGES, Permission.EMBED_LINKS)
    clone.policy = PolicySpec(present=True, categories=frozenset({"collect", "use"}), link_valid=True)
    clone.github = None
    return clone


def clean_directory(ecosystem, count):
    """``count`` distinct always-approvable bots: every cold vet reaches the
    honeypot stage, so pool traffic is guaranteed, not luck-of-the-draw."""
    return {f"clean-{index:03d}": clean_bot(ecosystem, name=f"clean-{index:03d}") for index in range(count)}


def make_pool(size=2, seed=88, clock=None, policy=None):
    return WorkerPool(
        size,
        seed,
        VettingPolicy(dynamic_observation=600.0),
        clock or VirtualClock(),
        policy=policy or FAST_POOL,
    )


def get_json(client, service, path):
    response = client.get(f"https://{service.hostname}{path}")
    return response, json.loads(response.body)


# -- dispatch ledger ----------------------------------------------------------


class TestDispatchLedger:
    def test_open_complete_balances(self):
        ledger = DispatchLedger()
        job = ledger.open("bot:fp:0:code", "code", "bot", worker_id=0, now=10.0)
        assert job.job_id == 1
        assert ledger.in_flight == {1: job}
        assert ledger.complete(1, worker_id=0, now=12.0)
        assert job.state == "completed"
        assert job.completed_by == 0
        assert ledger.consistent
        assert ledger.to_dict()["opened"] == 1

    def test_duplicate_completion_suppressed(self):
        ledger = DispatchLedger()
        job = ledger.open("k", "code", "bot", 0, 0.0)
        ledger.hedge(job.job_id, 1)
        assert ledger.complete(job.job_id, 1, 1.0)
        assert not ledger.complete(job.job_id, 0, 2.0)  # the hedge loser
        assert ledger.duplicates_suppressed == 1
        assert ledger.completed == 1
        assert ledger.consistent

    def test_redispatch_and_hedge_are_attempts_not_jobs(self):
        ledger = DispatchLedger()
        job = ledger.open("k", "honeypot", "bot", 0, 0.0)
        ledger.redispatch(job.job_id, 1)
        ledger.hedge(job.job_id, 2)
        assert job.attempts == 3
        assert job.workers == [0, 1, 2]
        assert job.redispatches == 1 and job.hedged
        assert ledger.opened == 1
        ledger.complete(job.job_id, 2, 5.0)
        assert ledger.consistent

    def test_abandon_terminalizes(self):
        ledger = DispatchLedger()
        job = ledger.open("k", "code", "bot", 0, 0.0)
        record = ledger.abandon(job.job_id)
        assert record.state == "abandoned"
        assert ledger.abandoned == 1
        assert ledger.consistent
        with pytest.raises(DispatchInvariantError):
            ledger.abandon(job.job_id)

    def test_redispatch_of_settled_job_raises(self):
        ledger = DispatchLedger()
        job = ledger.open("k", "code", "bot", 0, 0.0)
        ledger.complete(job.job_id, 0, 1.0)
        with pytest.raises(DispatchInvariantError):
            ledger.redispatch(job.job_id, 1)

    def test_verify_catches_cooked_books(self):
        ledger = DispatchLedger()
        ledger.open("k", "code", "bot", 0, 0.0)
        ledger.opened += 1  # simulate a lost job
        assert not ledger.consistent
        with pytest.raises(DispatchInvariantError):
            ledger.verify()


# -- BotProfile codec ---------------------------------------------------------


class TestBotProfileCodec:
    def test_round_trip_identity(self, ecosystem):
        with_repo = next(b for b in ecosystem.bots if b.github is not None)
        without_repo = next(b for b in ecosystem.bots if b.github is None)
        for bot in (with_repo, without_repo):
            decoded = bot_profile_from_payload(bot_profile_to_payload(bot))
            assert decoded == bot

    def test_payload_is_json_and_deterministic(self, ecosystem):
        bot = ecosystem.bots[0]
        first = json.dumps(bot_profile_to_payload(bot), sort_keys=True)
        second = json.dumps(bot_profile_to_payload(bot), sort_keys=True)
        assert first == second


# -- worker parity ------------------------------------------------------------


class TestWorkerParity:
    def test_code_and_honeypot_match_in_process(self, ecosystem):
        pool = make_pool(size=2, seed=88)
        pipeline = VettingPipeline(VettingPolicy(dynamic_observation=600.0), seed=88)
        try:
            bot = next(b for b in ecosystem.bots if b.github is not None and b.github.has_source_code)
            delegated = pool.execute("code", bot, key="c")
            local = VettingVerdict(bot_name=bot.name, approved=True)
            pipeline.review_code(bot, local)
            assert delegated["ok"]
            assert delegated["approved"] == local.approved
            assert delegated["reasons"] == local.reasons

            target = ecosystem.bots[0]
            delegated = pool.execute("honeypot", target, key="h", observation=600.0)
            local = VettingVerdict(bot_name=target.name, approved=True)
            consumed = pipeline.review_dynamic(target, local, observation=600.0)
            assert delegated["ok"]
            assert delegated["approved"] == local.approved
            assert delegated["reasons"] == local.reasons
            assert delegated["consumed"] == pytest.approx(consumed)
            assert pool.ledger.consistent
        finally:
            pool.shutdown()

    def test_warmup_pings_make_pool_healthy(self):
        pool = make_pool(size=3)
        try:
            deadline = time.monotonic() + 10.0
            while pool.status != "healthy" and time.monotonic() < deadline:
                pool.reap()
                time.sleep(0.01)
            assert pool.status == "healthy"
            snapshot = pool.to_dict()
            assert snapshot["workers"] == 3
            assert all(worker["state"] == "ready" for worker in snapshot["per_worker"])
        finally:
            pool.shutdown()


# -- crash detection / replacement / re-dispatch ------------------------------


class TestCrashRecovery:
    def test_killed_worker_is_detected_and_replaced(self, ecosystem):
        pool = make_pool(size=2)
        try:
            killed = pool.kill_workers(1)
            assert killed == [0]
            result = pool.execute("code", ecosystem.bots[0], key="k")
            pool.reap()
            assert result is not None and result["ok"]
            assert pool.restarts >= 1
            crashes = [r for r in pool.faults.records if r.error_class == "WorkerCrashed"]
            assert crashes
            assert pool.ledger.consistent
        finally:
            pool.shutdown()

    def test_armed_mid_vet_cascades_to_fallback(self, ecosystem, monkeypatch):
        """REPRO_CRASH_AT reaches inside the pool: every (forked) worker dies
        at its first vet, re-dispatch burns its budget, the job is abandoned
        and the caller falls back in-process."""
        monkeypatch.setenv("REPRO_CRASH_AT", "serving.worker.mid_vet:1")
        pool = make_pool(size=2)
        try:
            result = pool.execute("code", ecosystem.bots[0], key="k")
            assert result is None
            assert pool.fallbacks == 1
            assert pool.ledger.abandoned == 1
            assert pool.ledger.redispatched == pool.policy.max_redispatches
            assert pool.restarts >= 1 + pool.policy.max_redispatches
            assert pool.ledger.consistent
        finally:
            pool.shutdown()

    def test_armed_before_result_loses_the_computed_vet(self, ecosystem, monkeypatch):
        """The worker does the work and dies with it — same observable
        outcome as dying before the work: exactly-once still holds."""
        monkeypatch.setenv("REPRO_CRASH_AT", "serving.worker.before_result:1")
        pool = make_pool(size=2)
        try:
            result = pool.execute("code", ecosystem.bots[0], key="k")
            assert result is None
            assert pool.ledger.abandoned == 1
            assert pool.ledger.consistent
        finally:
            pool.shutdown()

    def test_breakers_open_after_repeated_crashes(self, ecosystem, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_AT", "serving.worker.mid_vet:1")
        pool = make_pool(size=2)
        try:
            for index in range(4):
                pool.execute("code", ecosystem.bots[0], key=f"k{index}")
            snapshot = pool.to_dict()
            assert any(worker["breaker"] == "open" for worker in snapshot["per_worker"])
            # Dark slots mean immediate fallback without burning dispatches.
            before = pool.ledger.opened
            assert pool.execute("code", ecosystem.bots[0], key="final") is None
            assert pool.ledger.opened == before
            assert pool.status in ("degraded", "down")
        finally:
            pool.shutdown()


# -- job failures --------------------------------------------------------------


class TestJobFailure:
    def test_failed_job_is_ledgered_under_the_slot_that_ran_it(self, ecosystem, monkeypatch):
        """A vet that raises inside a worker comes back ``ok=False`` and is
        ledgered as a ``WorkerJobError`` naming the slot that ran it."""
        original_exec = workers_module.execute_vet_job

        def failing(pipeline, job):
            if job.kind == "ping":
                return original_exec(pipeline, job)
            raise RuntimeError(f"raised in {multiprocessing.current_process().name}")

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(workers_module, "execute_vet_job", failing)
        pool = make_pool(size=2)
        try:
            deadline = time.monotonic() + 10.0
            while pool.status != "healthy" and time.monotonic() < deadline:
                pool.reap()
                time.sleep(0.01)
            assert pool.status == "healthy"
            for index in range(2):
                assert pool.execute("code", ecosystem.bots[0], key=f"k{index}") is None
            failures = [r for r in pool.faults.records if r.error_class == "WorkerJobError"]
            assert [record.host for record in failures] == ["vet-worker-0", "vet-worker-1"]
            for record in failures:
                assert record.detail.endswith(f"RuntimeError: raised in {record.host}")
            assert pool.fallbacks == 2
            assert pool.ledger.consistent
        finally:
            pool.shutdown()


# -- hedged retries -----------------------------------------------------------


class TestHedging:
    def test_straggler_is_hedged_and_loser_suppressed(self, ecosystem, monkeypatch):
        original_main = workers_module.vet_worker_main
        original_exec = workers_module.execute_vet_job

        def straggling_main(worker_id, seed, policy, conn):
            if worker_id == 0:
                def delayed(pipeline, job):
                    if job.kind != "ping":
                        time.sleep(1.0)
                    return original_exec(pipeline, job)

                workers_module.execute_vet_job = delayed
            original_main(worker_id, seed, policy, conn)

        monkeypatch.setattr(workers_module, "vet_worker_main", straggling_main)
        pool = make_pool(
            size=2,
            policy=WorkerPoolPolicy(poll_interval=0.005, hedge_after=0.05, job_timeout=30.0),
        )
        try:
            # Round-robin from slot 0: the straggler gets the job first.
            result = pool.execute("code", ecosystem.bots[0], key="k")
            assert result is not None and result["ok"]
            assert pool.ledger.hedges == 1
            assert pool.ledger.completed == 1
            deadline = time.monotonic() + 10.0
            while pool.ledger.duplicates_suppressed == 0 and time.monotonic() < deadline:
                pool.reap()
                time.sleep(0.02)
            assert pool.ledger.duplicates_suppressed == 1
            assert pool.ledger.consistent
        finally:
            pool.shutdown()


# -- service integration: ladder + parity -------------------------------------


class TestServiceWithPool:
    def test_vet_bytes_identical_with_and_without_workers(self, ecosystem):
        targets = [b.name for b in ecosystem.bots[:4]]
        targets += [
            b.name
            for b in ecosystem.bots
            if b.github is not None and b.github.has_source_code
        ][:2]
        bodies = {}
        for workers in (0, 2):
            internet, service, client = build_world(ecosystem, workers=workers)
            try:
                bodies[workers] = [
                    client.get(f"https://{service.hostname}/vet/{name}").body for name in targets
                ]
            finally:
                service.shutdown()
        assert bodies[0] == bodies[2]

    def test_pool_down_falls_back_in_process(self, ecosystem):
        directory = clean_directory(ecosystem, 3)
        internet, service, client = build_world(ecosystem, workers=2, bots=directory)
        try:
            service.pool.kill_workers(2)  # the whole pool, SIGKILL, no warning
            response, payload = get_json(client, service, "/vet/clean-000")
            assert response.status == 200
            assert payload["approved"] is not None
            assert service.pool.fallbacks >= 1
            # Supervision resurrects the pool between requests...
            service.pool.reap()
            assert service.pool.restarts == 2
            before = service.pool.ledger.opened
            response, _ = get_json(client, service, "/vet/clean-001")
            assert response.status == 200
            # ...and the next cold vet is delegated again.
            assert service.pool.ledger.opened > before
        finally:
            service.shutdown()

    def test_armed_workers_never_5xx_the_endpoint(self, ecosystem, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_AT", "serving.worker.mid_vet:1")
        directory = clean_directory(ecosystem, 2)
        internet, service, client = build_world(ecosystem, workers=2, bots=directory)
        try:
            response, payload = get_json(client, service, "/vet/clean-000")
            assert response.status == 200
            assert service.pool.fallbacks >= 1
            assert any(r.error_class == "WorkerCrashed" for r in service.ledger.records)
            assert service.pool.ledger.consistent
        finally:
            service.shutdown()

    def test_a_cold_vet_digests_the_profile_once(self, ecosystem, monkeypatch):
        """Both pool jobs' keys and the stored verdict share one digest of the profile."""
        bot = clean_bot(ecosystem, name="coded")
        bot.github = next(b.github for b in ecosystem.bots if b.github is not None and b.github.has_source_code)
        digested = []

        def counted(profile):
            digested.append(profile.name)
            return bot_fingerprint(profile)

        monkeypatch.setattr(service_module, "bot_fingerprint", counted)
        monkeypatch.setattr(cache_module, "bot_fingerprint", counted)
        internet, service, client = build_world(ecosystem, workers=2, bots={bot.name: bot})
        keys = []
        execute = service.pool.execute

        def recorded(kind, profile, key, **kwargs):
            keys.append(key)
            return execute(kind, profile, key=key, **kwargs)

        service.pool.execute = recorded
        try:
            response, payload = get_json(client, service, "/vet/coded")
            assert response.status == 200 and payload["cache"] == "miss"
            assert payload["stages"]["code"] == payload["stages"]["honeypot"] == "completed"
            assert service.pool.fallbacks == 0
            assert digested == ["coded"]
            fingerprint = bot_fingerprint(bot)
            assert keys == [f"coded:{fingerprint}:0:code", f"coded:{fingerprint}:0:honeypot"]
            assert service.cache.entries["coded"].fingerprint == fingerprint
        finally:
            service.shutdown()

    def test_update_bumps_job_epoch(self, ecosystem):
        internet, service, client = build_world(ecosystem, workers=0)
        bot = ecosystem.bots[0]
        key_before = service._job_key(bot, bot_fingerprint(bot), "honeypot")
        client.post(f"https://{service.hostname}/bots/{bot.name}/update")
        key_after = service._job_key(bot, bot_fingerprint(bot), "honeypot")
        assert key_before != key_after
        assert key_before.rsplit(":", 2)[0] == key_after.rsplit(":", 2)[0]

    def test_healthz_reports_pool(self, ecosystem):
        internet, service, client = build_world(ecosystem, workers=2)
        try:
            _, payload = get_json(client, service, "/healthz")
            assert payload["pool"]["workers"] == 2
            assert payload["pool"]["dispatch"]["consistent"] is True
        finally:
            service.shutdown()
        internet, service, client = build_world(ecosystem, workers=0)
        _, payload = get_json(client, service, "/healthz")
        assert payload["pool"] is None


# -- readiness-timeout satellite ----------------------------------------------


class TestReadinessTimeout:
    def test_await_ready_false_when_service_never_ready(self, ecosystem):
        internet, service, client = build_world(ecosystem)
        harness = ServingHarness(internet, service, seed=3)
        high_water = int(service.policy.queue_capacity * service.policy.ready_high_water)
        horizon = internet.clock.now() + 10**9
        for _ in range(high_water):
            service.queue.settle(horizon)  # in-flight forever: /readyz stays 503
        assert harness._await_ready() is False

    def test_timeout_is_recorded_and_fails_contract(self, ecosystem, monkeypatch):
        internet, service, client = build_world(ecosystem)
        harness = ServingHarness(internet, service, seed=3)
        monkeypatch.setattr(ServingHarness, "_await_ready", lambda self, polls=10: False)
        report = harness.run(LoadScript(waves=2, requests_per_wave=2, restart_at_wave=1))
        assert report.readiness_timeouts == 1
        assert report.readyz_recovered is False
        assert not report.contract_ok
        assert report.to_dict()["readiness_timeouts"] == 1


# -- multi-client harness + kill-storm contract -------------------------------


def run_harness(ecosystem, workers, *, seed=5, chaos="hostile", kill_at=None, directory_size=16):
    directory = clean_directory(ecosystem, directory_size)
    internet, service, client = build_world(
        ecosystem, workers=workers, chaos=chaos, bots=directory
    )
    harness = ServingHarness(internet, service, seed=seed)
    script = LoadScript(
        waves=4,
        requests_per_wave=4,
        clients=3,
        wave_gap=1_200.0,
        restart_at_wave=3,
        kill_workers_at_wave=kill_at,
        kill_workers=2,
    )
    try:
        report = harness.run(script)
    finally:
        harness.service.shutdown()
    return report


class TestMultiClientHarness:
    def test_same_seed_same_report(self, ecosystem):
        first = run_harness(ecosystem, workers=0)
        second = run_harness(ecosystem, workers=0)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_clients_multiply_the_stream(self, ecosystem):
        directory = clean_directory(ecosystem, 8)
        internet, service, client = build_world(ecosystem, bots=directory)
        harness = ServingHarness(internet, service, seed=5)
        report = harness.run(LoadScript(waves=2, requests_per_wave=5, clients=4))
        assert report.requests_sent == 2 * 5 * 4
        assert report.clients == 4

    def test_kill_storm_contract_and_cross_mode_bytes(self, ecosystem):
        """The acceptance-criteria test: 4 workers, hostile chaos, 2 workers
        SIGKILLed mid-wave, a service restart later — every admitted request
        terminal, the dispatch book balanced at every checkpoint, and the
        report (minus the execution plane) byte-identical to workers=0."""
        baseline = run_harness(ecosystem, workers=0)
        stormed = run_harness(ecosystem, workers=4, kill_at=1)

        assert stormed.contract_ok
        assert stormed.ledger_consistent
        assert stormed.workers_killed == 2
        # Every request reached a terminal outcome: a classified response
        # or a counted transport failure — nothing vanished.
        assert sum(stormed.status_counts.values()) + stormed.transport_errors == (
            stormed.requests_sent
        )
        assert baseline.pool is None
        # The clean directory guarantees cold vets reach the honeypot, so
        # the first pool genuinely carried delegated jobs before the storm.
        assert stormed.serving_metrics["served"] > 0

        left = json.dumps(baseline.comparable_dict(), sort_keys=True)
        right = json.dumps(stormed.comparable_dict(), sort_keys=True)
        assert left == right

    def test_restart_preserves_worker_count(self, ecosystem):
        directory = clean_directory(ecosystem, 4)
        internet, service, client = build_world(ecosystem, workers=2, bots=directory)
        harness = ServingHarness(internet, service, seed=5)
        try:
            report = harness.run(
                LoadScript(waves=2, requests_per_wave=2, restart_at_wave=1)
            )
            assert harness.service is not service
            assert harness.service.pool is not None
            assert harness.service.pool.size == 2
            assert report.workers == 2
            assert report.pool is not None
        finally:
            harness.service.shutdown()
