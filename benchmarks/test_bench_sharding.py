"""SCALING: sequential vs sharded — what sharding buys is a shorter campaign.

Shards run concurrently in *simulated* time: every shard has its own
virtual clock, and after each stage the clocks meet at the slowest
shard's horizon, so the merged campaign is as long as its longest shard,
not the sum of them.  Splitting the honeypot sample over 4 isolated
platforms therefore roughly halves the virtual length of the whole run at
this scale (318,208 s sequential vs 152,187 s with 4 shards at seed 11;
buckets are uneven and the crawl is not sharded, so the ratio stays well
short of 4x).  Virtual time is deterministic per seed, so the ratio is too.

On the wall clock sharding buys nothing: the buckets run one after
another on one thread, and the honeypot's co-resident fan-out that four
small platforms once divided is gone since gateway dispatch is indexed by
``(event_type, guild_id)``.

This benchmark asserts the >= 2x floor on the virtual campaign, checks
the merged statistics match the sequential run's, and records the wall
clocks of the traceability + honeypot stages and their ratio without a
floor.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.core.checkpoint import STAGE_HONEYPOT, STAGE_TRACEABILITY
from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline

#: Big enough that the honeypot campaign dominates the simulated run;
#: override to shrink locally (the virtual speedup shrinks with it — below
#: ~2000 bots the unsharded crawl weighs more and the 2x bar no longer
#: applies).
SHARD_BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SHARD_SCALE", 2400))
SHARDS = 4
SPEEDUP_FLOOR = 2.0 if SHARD_BENCH_SCALE >= 2000 else 1.0


def _config(shards: int) -> PipelineConfig:
    return PipelineConfig(
        n_bots=SHARD_BENCH_SCALE,
        seed=11,
        honeypot_sample_size=SHARD_BENCH_SCALE,
        validation_sample_size=50,
        shards=shards,
    )


def _statistics(result) -> dict:
    return {
        "bots": result.bots_collected,
        "active": result.active_bots,
        "trace_order": [r.bot_name for r in result.traceability_results],
        "trace_classes": Counter(r.classification.value for r in result.traceability_results),
        "table2": result.traceability_summary.table2(),
        "check_table": result.code_summary.check_table(),
        "honeypot_tested": result.honeypot.bots_tested,
        "honeypot_flagged": sorted(o.bot_name for o in result.honeypot.flagged_bots),
        "honeypot_install_failures": result.honeypot.install_failures,
    }


def _sharded_stage_wall(result) -> float:
    metrics = result.metrics
    return (
        metrics.stage(STAGE_HONEYPOT).wall_seconds
        + metrics.stage(STAGE_TRACEABILITY).wall_seconds
    )


def test_bench_sharded_speedup_on_parallel_stages(benchmark):
    sequential = AssessmentPipeline(_config(1)).run()

    sharded = benchmark.pedantic(
        lambda: AssessmentPipeline(_config(SHARDS)).run(), rounds=1, iterations=1
    )

    speedup = sequential.virtual_seconds / max(sharded.virtual_seconds, 1e-9)
    sequential_wall = _sharded_stage_wall(sequential)
    sharded_wall = _sharded_stage_wall(sharded)
    benchmark.extra_info["scale"] = SHARD_BENCH_SCALE
    benchmark.extra_info["sequential_virtual_s"] = round(sequential.virtual_seconds)
    benchmark.extra_info["sharded_virtual_s"] = round(sharded.virtual_seconds)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["sequential_stage_wall_s"] = round(sequential_wall, 3)
    benchmark.extra_info["sharded_stage_wall_s"] = round(sharded_wall, 3)
    benchmark.extra_info["wall_ratio"] = round(sequential_wall / max(sharded_wall, 1e-9), 2)

    # The merge changes nothing the paper reports.
    assert _statistics(sharded) == _statistics(sequential)

    # Virtual time merges as max-across-shards: the simulated campaign got
    # shorter at every scale.
    assert sharded.virtual_seconds < sequential.virtual_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"sharded campaign took {sharded.virtual_seconds:.0f} virtual s vs sequential "
        f"{sequential.virtual_seconds:.0f} ({speedup:.2f}x, floor {SPEEDUP_FLOOR}x at scale {SHARD_BENCH_SCALE})"
    )
