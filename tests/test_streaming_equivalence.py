"""Streamed population == materialized population, in values and in bytes.

Three layers of the equivalence contract from ISSUE 9:

1. **Generator**: `iter_bots` concatenated over randomized chunk splits is
   element-identical to `generate_ecosystem` for randomized seeds — the
   stream is a view of the same deterministic population, not a lookalike.
2. **Pipeline**: a `--stream` run produces comparable result JSON that is
   byte-identical to the materialized run, sequential and sharded, with
   bot payloads included.
3. **Memory**: streamed consumption stays under a fixed traced-memory
   ceiling independent of population size, and the full streamed pipeline
   grows sublinearly once its bounded caches saturate — a reintroduced
   per-bot accumulator fails this loudly.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from collections import deque

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline, PipelineWorld
from repro.core.serialize import comparable_result, result_to_dict
from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
from repro.ecosystem.stream import EcosystemStream, iter_bots


class TestIterBotsEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 2022, 91_210])
    def test_concatenated_chunks_match_materialized(self, seed):
        """Random chunk splits reassemble the exact materialized population."""
        n_bots = 700
        materialized = generate_ecosystem(EcosystemConfig(n_bots=n_bots, seed=seed)).bots
        rng = random.Random(seed * 31 + 5)
        streamed = []
        start = 0
        while start < n_bots:
            count = rng.randint(1, 257)
            streamed.extend(iter_bots(seed=seed, start=start, count=count, n_bots=n_bots))
            start += count
        assert len(streamed) == len(materialized)
        for lhs, rhs in zip(streamed, materialized):
            assert lhs == rhs

    def test_arbitrary_slices_match(self):
        """Any (start, count) window equals the same slice of the full list."""
        n_bots = 600
        materialized = generate_ecosystem(EcosystemConfig(n_bots=n_bots, seed=13)).bots
        stream = EcosystemStream(EcosystemConfig(n_bots=n_bots, seed=13))
        rng = random.Random(99)
        for _ in range(12):
            start = rng.randint(0, n_bots - 1)
            count = rng.randint(1, n_bots - start)
            window = list(stream.iter_bots(start, count))
            assert window == materialized[start : start + count]

    def test_chunk_size_never_changes_bots(self):
        """The chunked iterator yields the same bots for any batch size."""
        config = EcosystemConfig(n_bots=300, seed=4)
        baseline = list(EcosystemStream(config).iter_bots())
        for chunk in (1, 7, 64, 300, 1000):
            stream = EcosystemStream(config)
            rebuilt = [bot for batch in stream.iter_chunks(chunk) for bot in batch]
            assert rebuilt == baseline


def _comparable_json(result) -> bytes:
    payload = comparable_result(result_to_dict(result, include_bots=True))
    return json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")


def _config(**overrides) -> PipelineConfig:
    base = dict(
        n_bots=120,
        seed=7,
        honeypot_sample_size=8,
        validation_sample_size=10,
        chaos_profile="hostile",
        chaos_seed=1,
        adversarial_bots=2,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def materialized_golden() -> bytes:
    return _comparable_json(AssessmentPipeline(config=_config()).run())


@pytest.fixture(scope="module")
def materialized_sharded_golden() -> bytes:
    return _comparable_json(AssessmentPipeline(config=_config(shards=4)).run())


class TestPipelineByteIdentity:
    @pytest.mark.parametrize("chunk_size", [16, 37, 512])
    def test_streamed_sequential_matches_materialized(self, chunk_size, materialized_golden):
        streamed = AssessmentPipeline(config=_config(stream=True, chunk_size=chunk_size)).run()
        assert _comparable_json(streamed) == materialized_golden

    def test_streamed_sharded_matches_materialized(self, materialized_sharded_golden):
        streamed = AssessmentPipeline(config=_config(stream=True, chunk_size=16, shards=4)).run()
        assert _comparable_json(streamed) == materialized_sharded_golden

    def test_streamed_checkpointed_matches_materialized(self, materialized_golden, tmp_path):
        config = _config(
            stream=True,
            chunk_size=16,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            journal_path=str(tmp_path / "journal.wal"),
        )
        streamed = AssessmentPipeline(config=config).run()
        assert _comparable_json(streamed) == materialized_golden
        resumed = AssessmentPipeline(config=config).run()
        assert _comparable_json(resumed) == materialized_golden

    def test_checkpointless_runs_keep_their_own_spills(self, materialized_golden):
        """A later streamed run in the same process must not truncate the
        spill files an earlier run's result still reads from."""
        first = AssessmentPipeline(config=_config(stream=True, chunk_size=16)).run()
        AssessmentPipeline(config=_config(stream=True, chunk_size=16, seed=8)).run()
        assert _comparable_json(first) == materialized_golden


class TestMemoryBounds:
    #: Fixed ceiling on traced peak for pure stream consumption.  Measured
    #: ~1.25 MB at both 5k and 50k bots; 8 MB fails loudly on any O(n)
    #: regression (materializing 50k bots traces >50 MB).
    STREAM_CEILING_BYTES = 8 * 1024 * 1024

    def _traced_stream_peak(self, n_bots: int) -> int:
        tracemalloc.start()
        try:
            count = sum(1 for _ in iter_bots(seed=2022, n_bots=n_bots))
            assert count == n_bots
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_stream_peak_under_fixed_ceiling(self):
        """5x10^4 bots streamed: peak traced memory under a fixed ceiling,
        and no larger than a 10x smaller run (size independence)."""
        small = self._traced_stream_peak(5_000)
        large = self._traced_stream_peak(50_000)
        assert large < self.STREAM_CEILING_BYTES, f"streamed peak {large / 1e6:.1f}MB breached the fixed ceiling"
        assert large < 1.5 * small, (
            f"streamed peak grew with population: {small / 1e6:.2f}MB @5k -> {large / 1e6:.2f}MB @50k"
        )

    def _traced_pipeline_peak(self, n_bots: int) -> int:
        config = PipelineConfig(
            n_bots=n_bots,
            seed=7,
            honeypot_sample_size=8,
            validation_sample_size=10,
            stream=True,
            chunk_size=64,
        )
        world = PipelineWorld.build(config)
        # Shrink the bounded caches far below both population sizes so the
        # comparison measures the accumulators, not cache fill: the audit
        # ring, the dynamic-host LRU, and the lazy-bot profile cache all
        # saturate within the smaller run.
        world.internet.log = deque(maxlen=500)
        world.internet.dynamic_host_limit = 64
        world.ecosystem.bots._cache_size = 128
        tracemalloc.start()
        try:
            AssessmentPipeline(config=config, world=world).run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_streamed_pipeline_grows_sublinearly(self):
        """4x the population must cost well under 2x the peak memory.

        Documented linear-but-small accumulators remain (RiskSummary's
        per-active-bot score lists, the developer tally, crawl listing-id
        dedup) at tens of bytes per bot; retaining whole per-bot objects
        again (~KB per bot, as TraceabilitySummary once did) pushes the
        ratio past 2 and fails here.
        """
        small = self._traced_pipeline_peak(300)
        large = self._traced_pipeline_peak(1_200)
        assert large < 1.9 * small, (
            f"streamed pipeline peak grew near-linearly: "
            f"{small / 1e6:.2f}MB @300 -> {large / 1e6:.2f}MB @1200 bots"
        )
