"""Supervised worker pool: vet compute in crash-tolerant worker processes.

The vetting service's expensive stages — the code review and the sandbox
honeypot — are pure functions of ``(bot profile, vetting policy, seed)``:
the sandbox builds its own platform from the seed on every call.  That
purity is what lets the serving layer delegate the compute to a pool of
worker processes while keeping responses byte-identical to in-process
execution: the parent keeps *all* virtual-time decisions (admission,
budgets, bulkhead waits), the worker performs only the deterministic
compute, and a worker death therefore changes wall-clock supervision work
but never the bytes of a verdict.

The delegation contract: a picklable :class:`VetJob` spec goes down the
worker's pipe, a plain JSON-able dict comes back up, and each worker
rebuilds its :class:`VettingPipeline` deterministically from the seed
(once, then cached for its lifetime).

Supervision, in the resilience vocabulary the repo already speaks:

- **Crash detection** — a dead worker surfaces as a broken pipe on send,
  an EOF on receive, or a failed liveness probe in the wait loop;
  :data:`repro.core.crashpoints.SERVING_REGISTRY` points let the existing
  ``REPRO_CRASH_AT`` machinery kill workers mid-vet deterministically.
- **Replacement with warmup** — a crashed slot is respawned immediately;
  the recruit answers a warmup ping (building its pipeline as it does)
  before it is preferred for dispatch.
- **Per-worker circuit breakers** — a slot that keeps crashing goes dark
  for a virtual-time recovery window instead of eating every vet.
- **Re-dispatch** — a job orphaned by a death is re-sent (bounded times)
  to another worker; the :class:`~repro.serving.dispatch.DispatchLedger`
  keeps the exactly-once book.
- **Hedged retries** — a wall-clock straggler gets a duplicate attempt on
  a free worker; the first result wins, the loser is suppressed.
- **In-process fallback** — when the pool cannot produce a result (no
  usable worker, re-dispatch budget spent), ``execute`` returns ``None``
  and the service runs the stage itself: the whole pool dying degrades
  wall-clock latency, never availability.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any

from repro.core.crashpoints import crashpoint
from repro.core.resilience import CircuitBreaker, CircuitOpenError, FaultLedger
from repro.core.vetting import VettingPipeline, VettingPolicy, VettingVerdict
from repro.discordsim.oauth import OAuthScope
from repro.discordsim.permissions import Permissions
from repro.ecosystem.generator import BotProfile, InviteStatus
from repro.ecosystem.policies import PolicySpec
from repro.ecosystem.repos import RepoKind, RepoSpec
from repro.serving.dispatch import DispatchLedger, DispatchRecord
from repro.serving.metrics import LatencyReservoir

#: ``job_id`` reserved for warmup pings (never enters the dispatch ledger).
PING_JOB_ID = 0


def bot_profile_to_payload(bot: BotProfile) -> dict[str, Any]:
    """Encode a bot profile as a plain JSON-able dict (the spec-down codec).

    A ``BotProfile`` pickles, but the codec is cheaper to ship.  Over the
    2,000 profiles of a seed-1 ecosystem (Python 3.11.7, 2-core Xeon, best
    of 5), encoding, pickling, unpickling and decoding takes 20–32 µs per
    bot against 34–49 µs to pickle and unpickle the profile, and sends 725
    bytes against 950.  It flattens every enum and value-object to
    primitives; frozensets become sorted lists so two encodings of the
    same profile are byte-identical.
    """
    return {
        "index": bot.index,
        "client_id": bot.client_id,
        "name": bot.name,
        "developer_tag": bot.developer_tag,
        "tags": list(bot.tags),
        "description": bot.description,
        "guild_count": bot.guild_count,
        "votes": bot.votes,
        "invite_status": bot.invite_status.value,
        "permissions": bot.permissions.value,
        "scopes": [scope.value for scope in bot.scopes],
        "website_host": bot.website_host,
        "policy": {
            "present": bot.policy.present,
            "categories": sorted(bot.policy.categories),
            "generic": bot.policy.generic,
            "tailored": bot.policy.tailored,
            "link_valid": bot.policy.link_valid,
            "unlisted_synonyms": bot.policy.unlisted_synonyms,
        },
        "policy_text": bot.policy_text,
        "github": None
        if bot.github is None
        else {
            "kind": bot.github.kind.value,
            "owner": bot.github.owner,
            "name": bot.github.name,
            "language": bot.github.language,
            "has_check_api": bot.github.has_check_api,
            "files": dict(bot.github.files),
            "language_breakdown": dict(bot.github.language_breakdown),
        },
        "behavior": bot.behavior,
        "built_with": bot.built_with,
    }


def bot_profile_from_payload(payload: dict[str, Any]) -> BotProfile:
    """Rebuild a :class:`BotProfile` from its codec payload."""
    github = payload["github"]
    return BotProfile(
        index=payload["index"],
        client_id=payload["client_id"],
        name=payload["name"],
        developer_tag=payload["developer_tag"],
        tags=list(payload["tags"]),
        description=payload["description"],
        guild_count=payload["guild_count"],
        votes=payload["votes"],
        invite_status=InviteStatus(payload["invite_status"]),
        permissions=Permissions(payload["permissions"]),
        scopes=tuple(OAuthScope(value) for value in payload["scopes"]),
        website_host=payload["website_host"],
        policy=PolicySpec(
            present=payload["policy"]["present"],
            categories=frozenset(payload["policy"]["categories"]),
            generic=payload["policy"]["generic"],
            tailored=payload["policy"]["tailored"],
            link_valid=payload["policy"]["link_valid"],
            unlisted_synonyms=payload["policy"]["unlisted_synonyms"],
        ),
        policy_text=payload["policy_text"],
        github=None
        if github is None
        else RepoSpec(
            kind=RepoKind(github["kind"]),
            owner=github["owner"],
            name=github["name"],
            language=github["language"],
            has_check_api=github["has_check_api"],
            files=dict(github["files"]),
            language_breakdown=dict(github["language_breakdown"]),
        ),
        behavior=payload["behavior"],
        built_with=payload["built_with"],
    )


@dataclass
class VetJob:
    """Picklable spec for one unit of delegated vet compute.

    ``kind`` is ``"code"`` or ``"honeypot"`` (or ``"ping"`` for warmup).
    The bot rides along as its codec payload because serving directories
    mutate at runtime (``/bots/{name}/update``), so a worker cannot rebuild
    the *listing* from the seed the way it rebuilds the pipeline.
    """

    job_id: int
    kind: str
    bot: dict[str, Any] | None = None
    observation: float | None = None


def execute_vet_job(pipeline: VettingPipeline, job: VetJob) -> dict[str, Any]:
    """Run one job's compute; returns the JSON-able result payload.

    Shared by the worker main loop and the parent's in-process fallback so
    the two execution paths cannot drift.
    """
    if job.kind == "ping":
        return {"job_id": job.job_id, "ok": True, "kind": "ping"}
    assert job.bot is not None
    crashpoint("serving.worker.mid_vet")
    bot = bot_profile_from_payload(job.bot)
    verdict = VettingVerdict(bot_name=bot.name, approved=True)
    consumed = 0.0
    if job.kind == "code":
        pipeline.review_code(bot, verdict)
    elif job.kind == "honeypot":
        consumed = pipeline.review_dynamic(bot, verdict, observation=job.observation)
    else:
        raise ValueError(f"unknown vet job kind {job.kind!r}")
    crashpoint("serving.worker.before_result")
    return {
        "job_id": job.job_id,
        "ok": True,
        "kind": job.kind,
        "approved": verdict.approved,
        "reasons": list(verdict.reasons),
        "consumed": consumed,
    }


def vet_worker_main(worker_id: int, seed: int, policy: VettingPolicy, conn) -> None:
    """Worker process entry: rebuild the pipeline from the seed, serve jobs.

    The pipeline is built once (the warmup ping usually pays that cost)
    and reused for every job.  Any exception inside a job becomes an
    ``ok=False`` payload — the worker survives bad jobs; only real crashes
    (``REPRO_CRASH_AT``, SIGKILL) take it down.
    """
    pipeline = VettingPipeline(policy, seed=seed)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        try:
            payload = execute_vet_job(pipeline, job)
        except Exception as error:  # the job failed; the worker did not
            payload = {
                "job_id": job.job_id,
                "ok": False,
                "kind": job.kind,
                "worker_id": worker_id,
                "error": f"{type(error).__name__}: {error}",
            }
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break


@dataclass(frozen=True)
class WorkerPoolPolicy:
    """Supervision knobs.  Wall-clock values govern *detection* only —
    virtual-time request semantics never depend on them."""

    #: Wall seconds per wait tick (liveness probes run at this cadence).
    poll_interval: float = 0.02
    #: Wall seconds before a straggling job is hedged to a free worker.
    hedge_after: float = 5.0
    #: Wall seconds before a job's carriers are declared wedged and killed.
    job_timeout: float = 60.0
    #: Re-dispatches per job before abandoning to the in-process fallback.
    max_redispatches: int = 2
    #: Consecutive crashes that open a worker slot's circuit breaker.
    breaker_failures: int = 3
    #: Virtual seconds a tripped slot stays dark before a probe dispatch.
    breaker_recovery: float = 1_800.0


class _Worker:
    """One supervised slot: a process, its pipe, and its vital signs."""

    def __init__(self, worker_id: int, seed: int, policy: VettingPolicy, context) -> None:
        self.worker_id = worker_id
        self.seed = seed
        self.vet_policy = policy
        self.context = context
        self.state = "warming"  # warming -> ready; "dead" between crash and respawn
        self.outstanding: int | None = None  # job_id currently on this worker
        self.outstanding_since: float = 0.0  # wall clock of the dispatch
        self.vets_completed = 0
        self.crashes = 0
        self.wall_ms = LatencyReservoir(limit=1024)
        #: Parent virtual time of the last message from this slot.
        self.last_heartbeat: float = 0.0
        self.process = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=vet_worker_main,
            args=(self.worker_id, self.seed, self.vet_policy, child_conn),
            daemon=True,
            name=f"vet-worker-{self.worker_id}",
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        self.state = "warming"
        self.outstanding = None
        try:
            parent_conn.send(VetJob(job_id=PING_JOB_ID, kind="ping"))
        except (BrokenPipeError, OSError):
            self.state = "dead"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def send(self, job: VetJob) -> bool:
        try:
            self.conn.send(job)
        except (BrokenPipeError, OSError):
            return False
        return True


class WorkerPool:
    """N supervised vet workers behind an exactly-once dispatch ledger."""

    def __init__(
        self,
        size: int,
        seed: int,
        vetting_policy: VettingPolicy,
        clock,
        fault_ledger: FaultLedger | None = None,
        policy: WorkerPoolPolicy | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("worker pool size must be >= 1")
        self.size = size
        self.seed = seed
        self.vetting_policy = vetting_policy
        self.clock = clock
        self.policy = policy or WorkerPoolPolicy()
        self.faults = fault_ledger if fault_ledger is not None else FaultLedger()
        self.ledger = DispatchLedger()
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._workers = [
            _Worker(index, seed, vetting_policy, self._context) for index in range(size)
        ]
        self._cursor = 0
        self.restarts = 0
        self.fallbacks = 0
        self._breakers = [
            CircuitBreaker(
                clock,
                failure_threshold=self.policy.breaker_failures,
                recovery_time=self.policy.breaker_recovery,
            )
            for _ in range(size)
        ]
        self._closed = False

    # -- dispatch selection --------------------------------------------------

    def _usable(self, worker: _Worker) -> bool:
        if worker.outstanding is not None or not worker.alive:
            return False
        try:
            self._breakers[worker.worker_id].check(f"vet-worker-{worker.worker_id}")
        except CircuitOpenError:
            return False
        return True

    def _pick(self, exclude: set[int] | None = None) -> _Worker | None:
        """Round-robin over usable slots, preferring warmed-up workers."""
        exclude = exclude or set()
        ready: list[_Worker] = []
        warming: list[_Worker] = []
        for offset in range(self.size):
            worker = self._workers[(self._cursor + offset) % self.size]
            if worker.worker_id in exclude or not self._usable(worker):
                continue
            (ready if worker.state == "ready" else warming).append(worker)
        chosen = ready[0] if ready else (warming[0] if warming else None)
        if chosen is not None:
            self._cursor = (chosen.worker_id + 1) % self.size
        return chosen

    # -- the supervised execute ----------------------------------------------

    def execute(self, kind: str, bot: BotProfile, key: str, observation: float | None = None) -> dict | None:
        """Run one vet job on the pool; ``None`` means "fall back in-process".

        Synchronous from the caller's point of view: the supervision loop
        (liveness probes, re-dispatch, hedging, deadline watchdog) runs in
        wall-clock time while the caller's virtual-time request state is
        untouched — which is what keeps worker crashes invisible in the
        response bytes.
        """
        if self._closed:
            self.fallbacks += 1
            return None
        worker = self._pick()
        if worker is None:
            self.fallbacks += 1
            return None
        job = self.ledger.open(key, kind, bot.name, worker.worker_id, self.clock.now())
        spec = VetJob(
            job_id=job.job_id,
            kind=kind,
            bot=bot_profile_to_payload(bot),
            observation=observation,
        )
        if not self._dispatch_to(worker, spec):
            self._on_crash(worker, "dispatch")
            if not self._redispatch(job, spec):
                return self._give_up(job)
        started = time.monotonic()
        while True:
            carriers = [w for w in self._workers if w.outstanding == job.job_id]
            if not carriers:
                if not self._redispatch(job, spec):
                    return self._give_up(job)
                continue
            result = self._await_tick(carriers, job)
            if result is not None:
                return result if result.get("ok") else self._job_failed(job, result)
            elapsed = time.monotonic() - started
            if not job.hedged and elapsed >= self.policy.hedge_after:
                self._try_hedge(job, spec)
            if elapsed >= self.policy.job_timeout:
                # Recompute: _await_tick may have replaced a crashed carrier
                # already, and the recruit must not be killed for its
                # predecessor's sins.
                for carrier in [w for w in self._workers if w.outstanding == job.job_id]:
                    if carrier.alive:
                        self._kill_slot(carrier)
                    self._on_crash(carrier, "deadline")
                if not self._redispatch(job, spec):
                    return self._give_up(job)
                started = time.monotonic()

    def _await_tick(self, carriers: list[_Worker], job: DispatchRecord) -> dict | None:
        """One wait quantum: drain ready pipes, probe liveness.  Returns the
        winning result if it arrived, else None.

        Waits on every busy worker, not just the job's carriers, so a hedge
        loser still chewing on an already-completed job gets drained (and
        its slot freed) the moment it finishes instead of idling until the
        next :meth:`reap`.
        """
        busy = [w for w in self._workers if w.outstanding is not None and w.alive]
        ready = connection_wait([w.conn for w in busy], timeout=self.policy.poll_interval)
        winner: dict | None = None
        for worker in busy:
            if worker.conn not in ready:
                continue
            payload = self._receive(worker)
            if payload is None:
                continue  # ping, zombie, or EOF — all routed in _receive
            if payload.get("job_id") != job.job_id:
                continue
            worker.outstanding = None
            worker.wall_ms.record((time.monotonic() - worker.outstanding_since) * 1000.0)
            if self.ledger.complete(job.job_id, worker.worker_id, self.clock.now()):
                self._breakers[worker.worker_id].record_success()
                worker.vets_completed += 1
                winner = payload
        if winner is not None:
            return winner
        for worker in carriers:
            if not worker.alive:
                self._on_crash(worker, "liveness")
        return None

    def _receive(self, worker: _Worker) -> dict | None:
        """Read one message; handles pings, zombies and EOF-on-crash."""
        try:
            payload = worker.conn.recv()
        except (EOFError, OSError):
            self._on_crash(worker, "receive")
            return None
        worker.last_heartbeat = self.clock.now()
        job_id = payload.get("job_id", PING_JOB_ID)
        if job_id == PING_JOB_ID:
            worker.state = "ready"
            return None
        if worker.outstanding == job_id and job_id not in self.ledger.in_flight:
            # The losing side of a hedge (or a replaced slot's leftover):
            # the job already completed elsewhere; suppress and free the slot.
            worker.outstanding = None
            self.ledger.complete(job_id, worker.worker_id, self.clock.now())
            worker.state = "ready"
            return None
        return payload

    def _dispatch_to(self, worker: _Worker, spec: VetJob) -> bool:
        if not worker.alive or not worker.send(spec):
            return False
        worker.outstanding = spec.job_id
        worker.outstanding_since = time.monotonic()
        return True

    def _redispatch(self, job: DispatchRecord, spec: VetJob) -> bool:
        while job.redispatches < self.policy.max_redispatches:
            worker = self._pick()
            if worker is None:
                return False
            self.ledger.redispatch(job.job_id, worker.worker_id)
            if self._dispatch_to(worker, spec):
                return True
            self._on_crash(worker, "redispatch")
        return False

    def _try_hedge(self, job: DispatchRecord, spec: VetJob) -> None:
        worker = self._pick(exclude=set(job.workers))
        if worker is None:
            return
        self.ledger.hedge(job.job_id, worker.worker_id)
        if not self._dispatch_to(worker, spec):
            self._on_crash(worker, "hedge-dispatch")

    def _give_up(self, job: DispatchRecord) -> None:
        self.ledger.abandon(job.job_id)
        self.fallbacks += 1
        self.ledger.verify()
        return None

    def _job_failed(self, job: DispatchRecord, payload: dict) -> None:
        """The worker survived but the vet itself raised: record and fall back."""
        self.faults.record(
            "serving.pool",
            f"vet-worker-{payload['worker_id']}",
            "WorkerJobError",
            self.clock.now(),
            detail=f"{job.kind} for {job.bot}: {payload.get('error', 'unknown')}",
        )
        self.fallbacks += 1
        return None

    # -- crash handling --------------------------------------------------------

    def _on_crash(self, worker: _Worker, where: str) -> None:
        """A slot died: account it, trip its breaker, respawn a recruit.

        The orphaned job (if any) stays in the dispatch ledger's in-flight
        set — the execute loop is responsible for re-dispatching it, so the
        exactly-once book never loses a vet to a dead worker.
        """
        if worker.state == "dead":
            return
        orphan = worker.outstanding
        worker.state = "dead"
        worker.crashes += 1
        self.faults.record(
            "serving.pool",
            f"vet-worker-{worker.worker_id}",
            "WorkerCrashed",
            self.clock.now(),
            detail=f"detected at {where}; orphaned job: {orphan if orphan is not None else 'none'}",
        )
        self._breakers[worker.worker_id].record_failure()
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process is not None:
            worker.process.join(timeout=0.5)
        if not self._closed:
            worker.spawn()
            self.restarts += 1

    def _kill_slot(self, worker: _Worker) -> None:
        try:
            os.kill(worker.process.pid, signal.SIGKILL)
        except (OSError, TypeError):
            pass
        if worker.process is not None:
            worker.process.join(timeout=1.0)

    # -- chaos entry point -----------------------------------------------------

    def kill_workers(self, count: int) -> list[int]:
        """SIGKILL ``count`` live workers (lowest slots first) — the
        kill-storm scenario.  Detection and replacement happen through the
        ordinary supervision path, not here."""
        killed: list[int] = []
        for worker in self._workers:
            if len(killed) >= count:
                break
            if worker.alive:
                self._kill_slot(worker)
                killed.append(worker.worker_id)
        return killed

    # -- background supervision tick -------------------------------------------

    def reap(self) -> None:
        """Drain stale results, sweep for silent deaths, verify the book.

        Called between load waves (and safe any time the pool is idle):
        hedge losers parked on busy slots get suppressed here, and workers
        that died while unobserved are replaced before the next burst.
        """
        if self._closed:
            return
        while True:
            ready = connection_wait(
                [w.conn for w in self._workers if w.alive], timeout=0
            )
            if not ready:
                break
            for worker in self._workers:
                if worker.conn in ready:
                    self._receive(worker)
        for worker in self._workers:
            if not worker.alive:
                self._on_crash(worker, "reap")
        self.ledger.verify()

    # -- health ---------------------------------------------------------------

    @property
    def status(self) -> str:
        """pool-healthy / pool-degraded / pool-down, for the ladder."""
        usable = 0
        pristine = 0
        for worker in self._workers:
            breaker_ok = True
            try:
                self._breakers[worker.worker_id].check(f"vet-worker-{worker.worker_id}")
            except CircuitOpenError:
                breaker_ok = False
            if worker.alive and breaker_ok:
                usable += 1
                if worker.state == "ready" and worker.crashes == 0:
                    pristine += 1
        if usable == 0:
            return "down"
        if pristine == self.size and self.restarts == 0:
            return "healthy"
        return "degraded"

    def heartbeat_lag(self, worker_id: int) -> float:
        """Virtual seconds since the slot last spoke."""
        return self.clock.now() - self._workers[worker_id].last_heartbeat

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": self.size,
            "status": self.status,
            "restarts": self.restarts,
            "fallbacks": self.fallbacks,
            "dispatch": self.ledger.to_dict(),
            "per_worker": [
                {
                    "worker": worker.worker_id,
                    "state": worker.state if worker.alive else "dead",
                    "vets": worker.vets_completed,
                    "crashes": worker.crashes,
                    "breaker": self._breakers[worker.worker_id].state.value,
                    "wall_ms_p99": round(worker.wall_ms.percentile(99.0), 3),
                    "heartbeat_lag": round(self.heartbeat_lag(worker.worker_id), 3),
                }
                for worker in self._workers
            ],
        }

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
