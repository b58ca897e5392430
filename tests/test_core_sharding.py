"""Sharded execution: deterministic partitioning, merge equality, metrics.

The contract under test is the one the scaling work is judged by:
``shards=1`` reproduces the sequential pipeline byte-for-byte, ``shards=4``
reproduces the same paper statistics after the merge, and a killed sharded
run resumes without losing accounting.
"""

import json
import os
from collections import Counter

import pytest

from repro.core.checkpoint import (
    STAGE_CODE,
    STAGE_CRAWL,
    STAGE_HONEYPOT,
    STAGE_TRACEABILITY,
)
from repro.core.config import PipelineConfig
from repro.core.metrics import RunMetrics, ShardMetrics, StageMetrics
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import result_to_dict
from repro.core.sharding import partition, stable_shard
from repro.core.storage import DiskFullError, OneShotFault, install_faults
from repro.web.network import NetworkError


def _config(**overrides) -> PipelineConfig:
    defaults = dict(n_bots=60, seed=3, honeypot_sample_size=10, validation_sample_size=20)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _statistics(result) -> dict:
    """Everything the paper reports, as a comparable dict."""
    stats = {
        "bots": result.bots_collected,
        "active": result.active_bots,
        "listing_ids": sorted(bot.listing_id for bot in result.crawl.bots),
        "trace_order": [r.bot_name for r in result.traceability_results],
        "trace_classes": Counter(r.classification.value for r in result.traceability_results),
        "validation_accuracy": result.validation.accuracy if result.validation else None,
        "repo_order": [a.bot_name for a in result.repo_analyses],
        "repo_languages": Counter(a.main_language for a in result.repo_analyses),
        "repos_with_checks": sum(1 for a in result.repo_analyses if a.performs_check),
    }
    if result.traceability_summary is not None:
        stats["table2"] = result.traceability_summary.table2()
        stats["classes"] = result.traceability_summary.classification_counts()
    if result.code_summary is not None:
        stats["check_table"] = result.code_summary.check_table()
    if result.honeypot is not None:
        stats["honeypot_tested"] = result.honeypot.bots_tested
        stats["honeypot_order"] = [o.bot_name for o in result.honeypot.outcomes]
        stats["honeypot_flagged"] = sorted(o.bot_name for o in result.honeypot.flagged_bots)
        stats["honeypot_install_failures"] = result.honeypot.install_failures
    return stats


def _strip_wall_times(payload: dict) -> dict:
    payload.pop("wall_seconds", None)
    for stage in payload.get("metrics", {}).get("stages", {}).values():
        stage.pop("wall_seconds", None)
        for shard in stage.get("shards", []):
            shard.pop("wall_seconds", None)
    return payload


class TestStableShard:
    def test_same_key_same_shard(self):
        assert stable_shard(12345, 4) == stable_shard(12345, 4)
        assert stable_shard("BotName", 7) == stable_shard("BotName", 7)

    def test_in_range(self):
        for key in range(1000):
            assert 0 <= stable_shard(key, 4) < 4

    def test_spreads_sequential_ids(self):
        counts = Counter(stable_shard(100_000_000_000_000_000 + index, 4) for index in range(400))
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 50  # no starved shard

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            stable_shard(1, 0)

    def test_partition_is_order_independent(self):
        items = list(range(200))
        forward = partition(items, 4, key=lambda item: item)
        backward = partition(list(reversed(items)), 4, key=lambda item: item)
        for bucket_a, bucket_b in zip(forward, backward):
            assert sorted(bucket_a) == sorted(bucket_b)

    def test_partition_preserves_relative_order_and_loses_nothing(self):
        items = list(range(100))
        buckets = partition(items, 3, key=lambda item: item)
        assert sorted(item for bucket in buckets for item in bucket) == items
        for bucket in buckets:
            assert bucket == sorted(bucket)  # input order kept within a bucket


@pytest.mark.parametrize("stage", [STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT])
def test_run_shard_bucket_rejects_nothing_it_should_accept(stage):
    pipeline = AssessmentPipeline(_config(shards=2))
    shard = pipeline._sharded().worlds[0]
    assert pipeline.run_shard_bucket(stage, shard, [], None) is not None


def test_run_shard_bucket_rejects_unknown_stage():
    pipeline = AssessmentPipeline(_config(shards=2))
    with pytest.raises(ValueError):
        pipeline.run_shard_bucket(STAGE_CRAWL, pipeline._sharded().worlds[0], [], None)


class TestShardedEquality:
    def test_one_shard_is_byte_identical_to_sequential(self):
        sequential = AssessmentPipeline(_config()).run()
        one_shard = AssessmentPipeline(_config(shards=1)).run()
        first = _strip_wall_times(result_to_dict(sequential, include_bots=True))
        second = _strip_wall_times(result_to_dict(one_shard, include_bots=True))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_four_shards_match_one_shard_statistics(self):
        one = AssessmentPipeline(_config(shards=1)).run()
        four = AssessmentPipeline(_config(shards=4)).run()
        assert _statistics(four) == _statistics(one)

    def test_sharded_virtual_time_is_max_not_sum(self):
        one = AssessmentPipeline(_config(shards=1)).run()
        four = AssessmentPipeline(_config(shards=4)).run()
        # Shards run concurrently in simulated time, so the campaign is as
        # long as its slowest shard — strictly shorter than the sequential
        # sum once work actually spreads over shards.
        assert 0 < four.virtual_seconds < one.virtual_seconds

    def test_sharded_captcha_dollars_are_summed(self):
        pipeline = AssessmentPipeline(_config(shards=4))
        result = pipeline.run()
        assert pipeline._shard_executor is not None
        shard_spend = sum(world.solver.total_spent for world in pipeline._shard_executor.worlds)
        main_spend = pipeline.world.solver.total_spent
        assert result.captcha_dollars == pytest.approx(main_spend + shard_spend)
        assert result.captcha_dollars > 0

    def test_sharded_run_under_hostile_chaos_completes(self):
        result = AssessmentPipeline(
            _config(shards=4, chaos_profile="hostile", chaos_seed=5)
        ).run()
        assert result.bots_collected + result.fault_ledger.bots_skipped(STAGE_CRAWL) == 60
        assert set(result.stage_status) == {STAGE_CRAWL, STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT}


class TestShardedResume:
    def test_kill_and_resume_under_sharding(self, tmp_path):
        reference = AssessmentPipeline(_config(shards=4)).run()

        path = str(tmp_path / "pipeline.json")
        interrupted = AssessmentPipeline(_config(shards=4, checkpoint_path=path))

        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        interrupted.analyze_code = killed
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()

        resumed = AssessmentPipeline(_config(shards=4, checkpoint_path=path)).run()
        assert resumed.stage_status[STAGE_CRAWL] == "resumed"
        assert resumed.stage_status[STAGE_TRACEABILITY] == "resumed"
        assert resumed.stage_status[STAGE_CODE] == "completed"
        assert _statistics(resumed) == _statistics(reference)

    def test_kill_and_resume_preserves_population_invariant(self, tmp_path):
        path = str(tmp_path / "pipeline.json")
        config = _config(shards=4, chaos_profile="hostile", chaos_seed=2, checkpoint_path=path)
        interrupted = AssessmentPipeline(config)

        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        interrupted.analyze_code = killed
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()

        resumed = AssessmentPipeline(
            _config(shards=4, chaos_profile="hostile", chaos_seed=2, checkpoint_path=path)
        ).run()
        skipped = resumed.fault_ledger.bots_skipped(STAGE_CRAWL)
        assert resumed.bots_collected + skipped == 60


class TestRunMetrics:
    def test_sequential_run_records_every_stage(self):
        result = AssessmentPipeline(_config()).run()
        assert set(result.metrics.stages) == {STAGE_CRAWL, STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT}
        crawl = result.metrics.stage(STAGE_CRAWL)
        assert crawl.bots_processed == 60
        assert crawl.exchanges > 0
        assert crawl.virtual_seconds > 0
        assert not crawl.shards

    def test_sharded_run_records_per_shard_throughput(self):
        result = AssessmentPipeline(_config(shards=4)).run()
        assert result.metrics.shard_count == 4
        for stage_name in (STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT):
            stage = result.metrics.stage(stage_name)
            assert [shard.shard for shard in stage.shards] == [0, 1, 2, 3]
            assert sum(shard.exchanges for shard in stage.shards) == stage.exchanges
        honeypot = result.metrics.stage(STAGE_HONEYPOT)
        assert sum(shard.bots for shard in honeypot.shards) == result.honeypot.bots_tested

    def test_resumed_run_reports_complete_metrics(self, tmp_path):
        path = str(tmp_path / "pipeline.json")
        interrupted = AssessmentPipeline(_config(checkpoint_path=path))

        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        interrupted.analyze_code = killed
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()
        original_crawl = interrupted.metrics.stage(STAGE_CRAWL)

        resumed = AssessmentPipeline(_config(checkpoint_path=path)).run()
        assert set(resumed.metrics.stages) == {STAGE_CRAWL, STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT}
        crawl = resumed.metrics.stage(STAGE_CRAWL)
        assert crawl.resumed
        assert crawl.bots_processed == original_crawl.bots_processed
        assert crawl.exchanges == original_crawl.exchanges
        assert crawl.wall_seconds == pytest.approx(original_crawl.wall_seconds)
        assert not resumed.metrics.stage(STAGE_CODE).resumed

    def test_journal_metrics_sum_main_and_shard_journals(self, tmp_path):
        config = _config(
            shards=2, checkpoint_path=str(tmp_path / "ckpt.json"), journal_path=str(tmp_path / "journal.jsonl")
        )
        pipeline = AssessmentPipeline(config)
        result = pipeline.run()
        assert sorted(pipeline._shard_journals) == [0, 1]
        journals = [pipeline._journal, *pipeline._shard_journals.values()]
        assert all(journal.stats.appended > 0 for journal in journals)
        assert result.metrics.journal["appended"] == sum(journal.stats.appended for journal in journals)

    def test_render_lists_stages_and_shards(self):
        result = AssessmentPipeline(_config(shards=2)).run()
        rendered = result.metrics.render()
        assert "Run metrics (2 shards)" in rendered
        for stage in (STAGE_CRAWL, STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT):
            assert stage in rendered
        assert "shard 0" in rendered and "shard 1" in rendered
        assert "bots/s" in rendered

    def test_roundtrip_through_dict(self):
        metrics = RunMetrics(
            shard_count=2,
            stages={
                "crawl": StageMetrics(
                    stage="crawl",
                    wall_seconds=1.5,
                    virtual_seconds=100.0,
                    exchanges=42,
                    bots_processed=10,
                    bots_skipped=2,
                    shards=[ShardMetrics(shard=0, bots=5, wall_seconds=0.5, virtual_seconds=50.0, exchanges=21)],
                )
            },
        )
        restored = RunMetrics.from_dict(metrics.to_dict())
        assert restored.to_dict() == metrics.to_dict()
        assert restored.stage("crawl").shards[0].throughput == pytest.approx(10.0)


class TestFailedStageSummaries:
    def test_failed_traceability_leaves_summary_none(self):
        pipeline = AssessmentPipeline(_config())

        def boom(*args, **kwargs):
            raise NetworkError("backbone down")

        pipeline.analyze_traceability = boom
        result = pipeline.run()
        assert result.stage_status[STAGE_TRACEABILITY] == "failed"
        assert result.traceability_summary is None
        assert "traceability" in result.failed_stages
        assert any("failed" in line.lower() for line in result.summary_lines())

    def test_failed_code_stage_leaves_summary_none(self):
        pipeline = AssessmentPipeline(_config())

        def boom(*args, **kwargs):
            raise NetworkError("backbone down")

        pipeline.analyze_code = boom
        result = pipeline.run()
        assert result.stage_status[STAGE_CODE] == "failed"
        assert result.code_summary is None
        from repro.core.report import render_full_report

        assert "FAILED" in render_full_report(result)


class TestFailedRunCleanup:
    def test_failed_run_closes_main_and_shard_journals(self, tmp_path):
        """A sharded run that dies on a full disk still closes every journal."""
        journal = tmp_path / "journal.jsonl"
        config = _config(shards=2, checkpoint_path=str(tmp_path / "ckpt.json"), journal_path=str(journal))
        # The second checkpoint write is the one after traceability, by
        # which time the main journal and both shard journals are open.
        install_faults(OneShotFault("checkpoint.write", "enospc", occurrence=2))
        # Held past the failure, so only the run itself can have closed them.
        pipeline = AssessmentPipeline(config)
        with pytest.raises(DiskFullError):
            pipeline.run()
        paths = [journal, *(tmp_path / f"journal.jsonl.shard{index}" for index in range(2))]
        assert all(path.exists() for path in paths)
        if os.path.isdir("/proc/self/fd"):  # no descriptor still names a journal
            open_files = {os.path.realpath(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")}
            assert not open_files & {str(path.resolve()) for path in paths}
