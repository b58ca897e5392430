"""SCALING: streamed population generation — bounded RSS at any scale.

ISSUE 9's tentpole: `repro.ecosystem` yields the population lazily from
the seed, so a run's resident set no longer grows with the population.
This bench records the two numbers the trajectory file tracks — streaming
throughput (bots/sec) and peak RSS — at 2x10^4 (paper scale) and 10^5
bots, and holds two bars:

* peak RSS of a full streamed sweep stays under a fixed ceiling at both
  scales (a materialized 10^5-bot build peaks ~7x higher);
* the comparable result JSON of a full streamed pipeline run at paper
  scale is byte-identical to the materialized session golden.

Each sweep runs in a subprocess and reports its own ``VmHWM`` (from
``/proc/self/status``), so the figure is that sweep's alone.  Not
``ru_maxrss``: getrusage(2) keeps a process's maximum across ``execve``,
so a child started late in a benchmark session would report the
session's peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import repro
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import comparable_result, result_to_dict

SRC = Path(repro.__file__).resolve().parents[1]

#: The ISSUE's two trajectory scales; override to shrink locally.
STREAM_SCALES = (
    int(os.environ.get("REPRO_BENCH_STREAMING_SCALE_SMALL", 20_000)),
    int(os.environ.get("REPRO_BENCH_STREAMING_SCALE_LARGE", 100_000)),
)

#: Fixed peak-RSS ceiling for a streamed sweep (KiB).  The interpreter
#: baseline is ~26 MB; materializing 10^5 bots peaks ~192 MB.  64 MB
#: gives headroom for allocator noise while failing loudly on any
#: accumulator that retains the population.
STREAM_RSS_CEILING_KB = 64 * 1024

_SWEEP = """
import json, sys, time
from repro.ecosystem.stream import iter_bots
n = int(sys.argv[1])
t0 = time.perf_counter()
count = sum(1 for _ in iter_bots(seed=2022, n_bots=n))
wall = time.perf_counter() - t0
assert count == n
with open("/proc/self/status", encoding="ascii") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "bots": n,
    "wall_s": wall,
    "bots_per_sec": count / wall,
    "peak_rss_kb": peak_kb,
}))
"""


def _sweep(n_bots: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP, str(n_bots)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(proc.stdout)


def test_bench_stream_rss_stays_flat(benchmark):
    small_scale, large_scale = STREAM_SCALES
    small = _sweep(small_scale)
    large = benchmark.pedantic(lambda: _sweep(large_scale), rounds=1, iterations=1)

    for sweep in (small, large):
        benchmark.extra_info[f"bots_{sweep['bots']}"] = {
            "bots_per_sec": round(sweep["bots_per_sec"]),
            "peak_rss_kb": sweep["peak_rss_kb"],
            "wall_s": round(sweep["wall_s"], 2),
        }

    assert small["peak_rss_kb"] < STREAM_RSS_CEILING_KB
    assert large["peak_rss_kb"] < STREAM_RSS_CEILING_KB, (
        f"streamed sweep at {large_scale} bots peaked at {large['peak_rss_kb']} KiB "
        f"(ceiling {STREAM_RSS_CEILING_KB} KiB)"
    )
    # Size independence: 5x the population must not move RSS materially.
    assert large["peak_rss_kb"] < 1.5 * small["peak_rss_kb"]


def _comparable(result) -> str:
    return json.dumps(comparable_result(result_to_dict(result)), sort_keys=True, indent=1)


def test_bench_streamed_pipeline_byte_identity(benchmark, paper_config, paper_scale_result):
    """A full --stream run at paper scale matches the materialized golden."""
    config = replace(paper_config, stream=True, chunk_size=2_048)
    streamed = benchmark.pedantic(
        lambda: AssessmentPipeline(config=config).run(), rounds=1, iterations=1
    )
    benchmark.extra_info["scale"] = config.n_bots
    benchmark.extra_info["chunk_size"] = config.chunk_size
    assert _comparable(streamed) == _comparable(paper_scale_result)
