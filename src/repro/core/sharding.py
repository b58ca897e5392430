"""Deterministic sharded execution for the per-bot pipeline stages.

Stages 2–4 are embarrassingly parallel: each bot's policy crawl, repo
crawl and honeypot guild are independent.  :class:`ShardedExecutor` runs
them over N isolated *shard worlds* — each with its own
:class:`~repro.web.network.VirtualClock`, its own
:class:`~repro.web.network.VirtualInternet` (sites re-registered from the
shared, read-only ecosystem), its own breaker registry, fault ledger and
captcha solver — and merges the outputs deterministically.  Buckets run
one after another on the calling thread (``parallel=True`` moves them into
worker processes, see :mod:`repro.core.parallel`); what sharding buys
in-process is a shorter *simulated* campaign, because the shards run
concurrently in virtual time.

Determinism contract:

* Bots map to shards by a **stable hash of the bot id** (crc32), never by
  list order, so resumes and re-runs with reordered inputs shard the same
  way.
* Merge happens in **shard-index order**; callers additionally reorder
  per-bot result lists back to the input order, so the merged lists match
  a sequential run's ordering.
* Virtual time is **max across shards** (shards run concurrently in
  simulated time); captcha dollars are **summed**; fault ledgers are
  concatenated in shard-index order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence
from zlib import crc32

from repro.core.crashpoints import crashpoint
from repro.core.journal import capture_world_state, restore_world_state
from repro.core.resilience import CircuitBreakerRegistry, FaultLedger, FaultRecord
from repro.core.supervision import QuarantineLog, QuarantineRecord
from repro.honeypot.experiment import HoneypotReport
from repro.web.network import VirtualClock, VirtualInternet

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.discordsim.platform import DiscordPlatform
    from repro.web.captcha import TwoCaptchaClient


def stable_shard(key: int | str, shards: int) -> int:
    """Map a bot id to a shard index, stable across processes and runs.

    Python's builtin ``hash`` is salted per process for strings, so it
    cannot anchor a reproducible partition; crc32 over the canonical text
    form is stable everywhere and spreads sequential ids evenly.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return crc32(str(key).encode("utf-8")) % shards


def partition(items: Iterable[Any], shards: int, key: Callable[[Any], int | str]) -> list[list[Any]]:
    """Split ``items`` into ``shards`` buckets by stable hash of ``key(item)``.

    Within a bucket, items keep their relative input order.
    """
    buckets: list[list[Any]] = [[] for _ in range(shards)]
    for item in items:
        buckets[stable_shard(key(item), shards)].append(item)
    return buckets


@dataclass
class ShardWorld:
    """One execution lane: the run's main world or one shard's world view.

    The main world is the lane with ``index=None``; its breakers, ledger
    and quarantine log are the run's own.  A shard lane shares only the
    read-only ecosystem; everything stateful — clock, internet, platform,
    solver, breakers, ledger — is private to the shard, so shards cannot
    observe each other.
    """

    index: int | None
    clock: VirtualClock
    internet: VirtualInternet
    platform: "DiscordPlatform"
    solver: "TwoCaptchaClient"
    breakers: CircuitBreakerRegistry
    ledger: FaultLedger = field(default_factory=FaultLedger)
    quarantines: QuarantineLog = field(default_factory=QuarantineLog)

    def capture(self) -> dict:
        """Snapshot the lane's mutable simulation state (see :func:`capture_world_state`)."""
        return capture_world_state(self.clock, self.internet, self.solver, self.breakers)

    def restore(self, state: dict) -> None:
        """Re-enter the simulation exactly where :meth:`capture` left it."""
        restore_world_state(self.clock, self.internet, self.solver, self.breakers, state)


@dataclass
class ShardOutcome:
    """What one shard produced for one stage."""

    shard_index: int
    items: list[Any]
    value: Any
    wall_seconds: float
    virtual_seconds: float
    exchanges: int
    #: Fault records this stage added to the shard's ledger.
    faults: list[FaultRecord] = field(default_factory=list)
    #: Quarantine records this stage added to the shard's log.
    quarantines: list[QuarantineRecord] = field(default_factory=list)


def run_bucket(
    world: ShardWorld, bucket: list[Any], worker: Callable[[ShardWorld, list[Any]], Any]
) -> ShardOutcome:
    """Run ``worker(world, bucket)`` and measure what it did to the lane.

    Shared by :class:`ShardedExecutor` and the process-pool workers, so
    both report the same wall/virtual/exchange deltas and records.
    """
    wall_start = time.monotonic()
    virtual_start = world.clock.now()
    exchanges_start = world.internet.exchanges_total
    # Absolute marks, not list indices: a bounded ledger's ring trim
    # shifts indices mid-stage and a raw slice would ship records from
    # before the stage as this stage's delta.
    faults_start = world.ledger.mark()
    quarantines_start = world.quarantines.mark()
    value = worker(world, bucket)
    return ShardOutcome(
        shard_index=world.index,
        items=bucket,
        value=value,
        wall_seconds=time.monotonic() - wall_start,
        virtual_seconds=world.clock.now() - virtual_start,
        exchanges=world.internet.exchanges_total - exchanges_start,
        faults=world.ledger.records_since(faults_start),
        quarantines=world.quarantines.records_since(quarantines_start),
    )


class ShardedExecutor:
    """Run stage workers over shard worlds and keep their clocks aligned."""

    def __init__(self, worlds: Sequence[ShardWorld]) -> None:
        if not worlds:
            raise ValueError("at least one shard world is required")
        self.worlds = list(worlds)

    def run_stage(
        self,
        buckets: Sequence[list[Any]],
        worker: Callable[[ShardWorld, list[Any]], Any],
    ) -> list[ShardOutcome]:
        """Run ``worker(world, bucket)`` per shard; return outcomes in shard order.

        Buckets run one after another on the calling thread, in shard-index
        order, so every crash point fires in a fixed order and the first
        worker exception ends the stage.  Afterwards every shard clock is
        advanced to the max across shards (a barrier: the next stage starts
        with all shards at the same simulated time).
        """
        if len(buckets) != len(self.worlds):
            raise ValueError(f"expected {len(self.worlds)} buckets, got {len(buckets)}")
        outcomes = []
        for world, bucket in zip(self.worlds, buckets):
            outcomes.append(run_bucket(world, list(bucket), worker))
            crashpoint("sharding.after_shard")
        self.sync_clocks()
        return outcomes

    def sync_clocks(self) -> float:
        """Advance every shard clock to the max across shards; return it."""
        horizon = max(world.clock.now() for world in self.worlds)
        for world in self.worlds:
            world.clock.advance(horizon - world.clock.now())
        return horizon

    def captcha_dollars(self) -> float:
        """Total captcha spend across all shard solvers (merge = sum)."""
        return sum(world.solver.total_spent for world in self.worlds)


# -- merge helpers -----------------------------------------------------------


def verify_merge_accounting(
    outcomes: Sequence[ShardOutcome],
    order: Sequence[str],
    produced: Iterable[str],
    what: str,
) -> None:
    """Every bot absent from a merge must be explained, or the merge aborts.

    This is the sharded face of the :func:`~repro.core.supervision.verify_accounting`
    invariant (processed + skipped + quarantined == population): a bot may
    legitimately be missing from ``produced`` only if a shard quarantined
    it (known by name) or skipped it into a fault record (known by count —
    fault records carry ``bots_skipped``, not names).  Anything beyond that
    budget is a silently dropped bot, which used to vanish without a trace;
    now it raises :class:`~repro.core.supervision.AccountingError`.
    """
    from repro.core.supervision import AccountingError

    produced_names = set(produced)
    missing = [name for name in order if name not in produced_names]
    if not missing:
        return
    quarantined = {record.bot_name for outcome in outcomes for record in outcome.quarantines}
    unexplained = [name for name in missing if name not in quarantined]
    skip_budget = sum(record.bots_skipped for outcome in outcomes for record in outcome.faults)
    if len(unexplained) > skip_budget:
        shown = ", ".join(unexplained[:5])
        raise AccountingError(
            f"{what}: merge lost {len(unexplained)} bot(s) neither skipped nor quarantined "
            f"(fault records account for {skip_budget}): {shown}"
            + ("..." if len(unexplained) > 5 else "")
        )


def merge_in_order(
    outcomes: Sequence[ShardOutcome],
    order: Sequence[str],
    key: Callable[[Any], str],
    what: str = "merge",
) -> list[Any]:
    """Concatenate per-bot result lists, reordered to the original input order.

    Sharding regroups bots, so a plain shard-order concatenation would
    differ from the sequential run's list ordering; keying each result by
    bot and walking the input order restores it exactly.  ``order`` must
    name only bots the stage was actually given (e.g. the code stage passes
    its GitHub-linked subset): any ordered bot without a result that no
    shard recorded as skipped or quarantined raises ``AccountingError``
    instead of being silently dropped.
    """
    by_key: dict[str, Any] = {}
    for outcome in outcomes:
        for item in outcome.value:
            by_key[key(item)] = item
    verify_merge_accounting(outcomes, order, by_key, what)
    return [by_key[name] for name in order if name in by_key]


def merge_honeypot_reports(outcomes: Sequence[ShardOutcome], order: Sequence[str]) -> HoneypotReport:
    """Merge per-shard honeypot reports into one campaign report.

    Outcomes are reordered to the sampling order; triggers concatenate in
    shard-index order; account-level costs (manual verifications, captcha
    spend) and install failures sum — each shard runs its own persona
    pool, so the merged run reports the true aggregate operating cost.
    Sampled bots missing from every shard's report must be covered by the
    shards' skip/quarantine records or the merge raises ``AccountingError``.
    """
    merged = HoneypotReport()
    by_name: dict[str, Any] = {}
    for outcome in outcomes:
        report: HoneypotReport = outcome.value
        for bot_outcome in report.outcomes:
            by_name[bot_outcome.bot_name] = bot_outcome
        merged.triggers.extend(report.triggers)
        merged.manual_verifications += report.manual_verifications
        merged.install_failures += report.install_failures
        merged.captcha_cost += report.captcha_cost
    verify_merge_accounting(outcomes, order, by_name, "honeypot merge")
    merged.outcomes = [by_name[name] for name in order if name in by_name]
    return merged
