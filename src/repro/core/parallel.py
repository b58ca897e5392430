"""Process-pool execution for sharded pipeline stages.

In-process shard buckets run one after another, so ``shards=4`` shortens
the simulated campaign but uses one core.  This module moves shard
buckets into worker *processes* while keeping the determinism contract
intact:

* Each worker rebuilds its shard world from the shared seed (ecosystem
  generation and shard-world construction are pure functions of the
  config), then restores the parent's captured world snapshot — the same
  exact-restore machinery the crash-recovery matrix proves byte-faithful.
* The worker runs the shared :meth:`AssessmentPipeline.run_shard_bucket`
  — the identical code path in-process shards run — and returns a plain
  JSON-able payload: serialized stage values, fault/quarantine deltas,
  the post-stage world snapshot, clock horizon and journal counters.
* The parent restores each returned snapshot into its own shard world and
  performs the unchanged order-fixed merge, so ``shards=N`` output is
  byte-identical whether buckets ran in-process or in worker processes.

Workers cache the rebuilt pipeline and shard worlds between stages (keyed
by the config's repr), so the ecosystem is generated once per worker, not
once per stage.  A shard world is dropped from the cache after a honeypot
task: the campaign dirties the shard's platform, and platform internals
are deliberately outside the snapshot contract (honeypot state replays
all-or-nothing).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.core.checkpoint import (
    STAGE_CODE,
    STAGE_HONEYPOT,
    STAGE_TRACEABILITY,
    honeypot_from_dict,
    honeypot_to_dict,
    repo_analysis_from_dict,
    repo_analysis_to_dict,
    traceability_from_dict,
    traceability_to_dict,
)
from repro.core.config import PipelineConfig
from repro.core.journal import WriteAheadJournal
from repro.core.sharding import ShardWorld, partition, run_bucket
from repro.scraper.topgg import ScrapedBot


@dataclass
class ShardTaskSpec:
    """Everything one worker process needs to run one shard's bucket.

    ``config`` must arrive stripped of checkpoint/journal paths and with
    ``parallel`` off — the child owns exactly one shard journal (named by
    ``journal_path``) and must never recurse into its own pool.  ``bots``
    is the pickled bucket for stages 2–3; the honeypot passes ``None`` and
    the child recomputes its bucket from the deterministic sample order,
    because ecosystem bot profiles are not part of the pickling contract.
    """

    stage: str
    index: int
    start_time: float
    config: PipelineConfig
    bots: list[ScrapedBot] | None
    world_state: dict
    journal_path: str | None


def encode_stage_value(stage: str, value: Any) -> Any:
    """Serialize a stage's product with the checkpoint codecs (exact round-trip)."""
    if stage == STAGE_TRACEABILITY:
        return [traceability_to_dict(item) for item in value]
    if stage == STAGE_CODE:
        return [repo_analysis_to_dict(item) for item in value]
    if stage == STAGE_HONEYPOT:
        return honeypot_to_dict(value)
    raise ValueError(f"stage {stage!r} is not sharded")


def decode_stage_value(stage: str, payload: Any) -> Any:
    if stage == STAGE_TRACEABILITY:
        return [traceability_from_dict(item) for item in payload]
    if stage == STAGE_CODE:
        return [repo_analysis_from_dict(item) for item in payload]
    if stage == STAGE_HONEYPOT:
        return honeypot_from_dict(payload)
    raise ValueError(f"stage {stage!r} is not sharded")


#: Per-worker-process caches (module globals live once per worker).  The
#: pipeline cache holds the rebuilt ecosystem + analyzers for the current
#: run's config; the world cache holds shard worlds across that run's
#: stages.  A new config key flushes both (a pool only ever serves one
#: run at a time, so this is a safety valve, not an LRU).
_WORKER_PIPELINES: dict[str, Any] = {}
_WORKER_WORLDS: dict[tuple[str, int], ShardWorld] = {}


def run_shard_task(spec: ShardTaskSpec) -> dict:
    """Run one shard bucket in this worker process; return a JSON-able outcome.

    Runs in the pool worker, never in the parent.  The returned payload
    carries everything the parent needs to reconstruct a
    :class:`~repro.core.sharding.ShardOutcome` and bring its own shard
    world up to date: the serialized value, fault/quarantine deltas, wall
    and virtual durations, exchange count, journal counters and the
    post-stage world snapshot.
    """
    from repro.core.pipeline import AssessmentPipeline

    config = spec.config
    key = repr(config)
    pipeline = _WORKER_PIPELINES.get(key)
    if pipeline is None:
        _WORKER_PIPELINES.clear()
        _WORKER_WORLDS.clear()
        pipeline = AssessmentPipeline(config=config)
        _WORKER_PIPELINES[key] = pipeline
    world_key = (key, spec.index)
    shard = _WORKER_WORLDS.get(world_key)
    if shard is None:
        shard = _WORKER_WORLDS[world_key] = pipeline._shard_lane(spec.index, spec.start_time)
    shard.restore(spec.world_state)

    journal = None
    journal_discard = None
    if spec.journal_path is not None:
        journal = WriteAheadJournal(spec.journal_path, fsync_every=config.journal_fsync_every)
        if journal.discard_detail:
            journal_discard = f"{spec.journal_path.rsplit('/', 1)[-1]}: {journal.discard_detail}"

    bots: list[Any]
    if spec.stage == STAGE_HONEYPOT:
        sample = pipeline.world.ecosystem.top_voted(config.honeypot_sample_size)
        bots = partition(sample, config.shards, key=lambda bot: bot.client_id)[spec.index]
    else:
        bots = list(spec.bots or [])

    try:
        outcome = run_bucket(
            shard, bots, lambda world, bucket: pipeline.run_shard_bucket(spec.stage, world, bucket, journal)
        )
    finally:
        if journal is not None:
            journal.close()
        if spec.stage == STAGE_HONEYPOT:
            # The campaign dirtied the platform; a reused world would replay
            # honeypot state the snapshot contract deliberately excludes.
            _WORKER_WORLDS.pop(world_key, None)
    return {
        "index": spec.index,
        "value": encode_stage_value(spec.stage, outcome.value),
        "wall_seconds": outcome.wall_seconds,
        "virtual_seconds": outcome.virtual_seconds,
        "exchanges": outcome.exchanges,
        "faults": [record.to_dict() for record in outcome.faults],
        "quarantines": [record.to_dict() for record in outcome.quarantines],
        "world": shard.capture(),
        "journal_stats": journal.stats.to_dict() if journal is not None else None,
        "journal_discard": journal_discard,
    }


class ProcessShardRunner:
    """A lazily-started process pool that runs :class:`ShardTaskSpec` batches.

    ``fork`` is preferred where available: workers inherit the parent's
    imported modules and start in milliseconds; ``spawn`` works too (every
    spec is self-contained) but pays an interpreter boot per worker.  One
    runner lives per pipeline run and is closed with it.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._pool = ProcessPoolExecutor(max_workers=max_workers, mp_context=context)

    def run(self, specs: list[ShardTaskSpec]) -> list[dict]:
        """Run all specs concurrently; results return in spec order."""
        futures = [self._pool.submit(run_shard_task, spec) for spec in specs]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)
