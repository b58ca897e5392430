"""SCALING: in-process vs process-pool shard execution.

In-process, the sharded executor runs the shard buckets one after another
on the calling thread, so shards=4 uses one core.  ``parallel=True`` moves
the buckets into worker processes; with 4 real cores the honeypot +
traceability stages should run >= 2.5x faster than in-process shards at
the same shard count, with byte-identical output.  (The test name and
the ``threaded_stage_wall_s`` key are kept for the recorded trajectory:
the in-process executor used a thread pool when it began.)

On fewer than 4 cores the speedup physically cannot appear (the pool
multiplexes onto the cores that exist and adds world-rebuild overhead),
so the floor is asserted only when the machine can express it; the
measured numbers and core count are always recorded in the benchmark's
``extra_info`` so the trajectory (``BENCH_PARALLEL.json``) stays honest.
"""

from __future__ import annotations

import json
import os

from repro.core.checkpoint import STAGE_HONEYPOT, STAGE_TRACEABILITY
from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import comparable_result, result_to_dict

#: Big enough that per-bot stage work dominates the fixed world-rebuild
#: cost each pool worker pays once; override to shrink locally.
PARALLEL_BENCH_SCALE = int(os.environ.get("REPRO_BENCH_PARALLEL_SCALE", 1600))
SHARDS = 4
#: The acceptance bar needs 4 cores to be physically expressible, and a
#: big-enough world that fixed costs do not drown the parallel section.
CORES = os.cpu_count() or 1
SPEEDUP_FLOOR = 2.5 if CORES >= 4 and PARALLEL_BENCH_SCALE >= 1000 else 0.0


def _config(parallel: bool) -> PipelineConfig:
    return PipelineConfig(
        n_bots=PARALLEL_BENCH_SCALE,
        seed=11,
        honeypot_sample_size=PARALLEL_BENCH_SCALE,
        validation_sample_size=50,
        shards=SHARDS,
        parallel=parallel,
    )


def _parallel_stage_wall(result) -> float:
    metrics = result.metrics
    return (
        metrics.stage(STAGE_HONEYPOT).wall_seconds
        + metrics.stage(STAGE_TRACEABILITY).wall_seconds
    )


def _comparable(result) -> str:
    return json.dumps(comparable_result(result_to_dict(result)), sort_keys=True, indent=1)


def test_bench_process_pool_speedup_over_threads(benchmark):
    in_process = AssessmentPipeline(_config(parallel=False)).run()

    parallel = benchmark.pedantic(
        lambda: AssessmentPipeline(_config(parallel=True)).run(), rounds=1, iterations=1
    )

    in_process_wall = _parallel_stage_wall(in_process)
    parallel_wall = _parallel_stage_wall(parallel)
    speedup = in_process_wall / max(parallel_wall, 1e-9)
    benchmark.extra_info["scale"] = PARALLEL_BENCH_SCALE
    benchmark.extra_info["shards"] = SHARDS
    benchmark.extra_info["cpu_cores"] = CORES
    benchmark.extra_info["threaded_stage_wall_s"] = round(in_process_wall, 3)
    benchmark.extra_info["process_stage_wall_s"] = round(parallel_wall, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # The execution substrate must be invisible in the output: not just
    # statistics-equal, byte-identical on the comparable result JSON.
    assert _comparable(parallel) == _comparable(in_process)

    assert speedup >= SPEEDUP_FLOOR, (
        f"process pool took {parallel_wall:.2f}s vs in-process {in_process_wall:.2f}s "
        f"({speedup:.2f}x, floor {SPEEDUP_FLOOR}x on {CORES} cores at scale {PARALLEL_BENCH_SCALE})"
    )
