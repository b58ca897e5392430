"""Process-pool sharding: byte-identical to in-process shards, with real isolation.

The determinism contract is the whole point: moving shard buckets from
the calling process to worker processes must not change a single byte of
the comparable result JSON — not under chaos, not with adversarial bots,
not with journals enabled, not across a crash/resume that mixes the two
execution modes.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.checkpoint import STAGE_CODE, STAGE_HONEYPOT, STAGE_TRACEABILITY
from repro.core.config import PipelineConfig
from repro.core.crashpoints import ENV_CRASH_AT, ENV_RECORD
from repro.core.parallel import ShardTaskSpec, decode_stage_value, encode_stage_value, run_shard_task
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import comparable_result, result_to_dict


def _base_config(**overrides) -> PipelineConfig:
    return PipelineConfig(
        n_bots=90,
        seed=7,
        honeypot_sample_size=10,
        validation_sample_size=8,
        chaos_profile="hostile",
        chaos_seed=1,
        adversarial_bots=2,
        shards=4,
        **overrides,
    )


def _comparable_json(result) -> str:
    return json.dumps(comparable_result(result_to_dict(result)), sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def in_process_golden() -> str:
    return _comparable_json(AssessmentPipeline(config=_base_config(parallel=False)).run())


class TestParallelEquivalence:
    def test_byte_identical_to_threaded(self, in_process_golden):
        parallel = AssessmentPipeline(config=_base_config(parallel=True)).run()
        assert _comparable_json(parallel) == in_process_golden

    def test_journaled_parallel_matches_and_owns_shard_journals(self, in_process_golden, tmp_path):
        config = _base_config(
            parallel=True,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            journal_path=str(tmp_path / "journal.jsonl"),
        )
        pipeline = AssessmentPipeline(config=config)
        result = pipeline.run()
        assert _comparable_json(result) == in_process_golden
        # Worker processes wrote the shard journals; the parent held none.
        for index in range(config.shards):
            assert (tmp_path / f"journal.jsonl.shard{index}").exists()
        assert pipeline._shard_journals == {}
        # ...but their counters still surface through the run metrics.
        assert result.metrics.journal is not None
        assert result.metrics.journal["appended"] > 0

    def test_resume_from_parallel_checkpoint(self, in_process_golden, tmp_path):
        config = _base_config(
            parallel=True,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            journal_path=str(tmp_path / "journal.jsonl"),
        )
        AssessmentPipeline(config=config).run()
        resumed = AssessmentPipeline(config=config).run()
        assert _comparable_json(resumed) == in_process_golden
        assert set(resumed.stage_status.values()) == {"resumed"}


class TestCrashInjectionFallback:
    def test_armed_crashpoint_forces_in_process_shards(self, monkeypatch):
        """Crash injection needs every crashpoint in one process, so an
        armed environment silently falls back to in-process shards."""
        monkeypatch.setenv(ENV_CRASH_AT, "run.before_result:999")
        pipeline = AssessmentPipeline(config=_base_config(parallel=True))
        assert not pipeline._parallel_active()
        result = pipeline.run()
        assert pipeline._parallel_runner is None
        monkeypatch.delenv(ENV_CRASH_AT)
        golden = _comparable_json(AssessmentPipeline(config=_base_config(parallel=False)).run())
        assert _comparable_json(result) == golden

    def test_recording_also_falls_back(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_RECORD, str(tmp_path / "record.log"))
        pipeline = AssessmentPipeline(config=_base_config(parallel=True))
        assert not pipeline._parallel_active()

    def test_single_shard_never_goes_parallel(self):
        pipeline = AssessmentPipeline(
            config=_base_config(parallel=True).scaled(60, honeypot_sample_size=6)
        )
        pipeline.config.shards = 1
        assert not pipeline._parallel_active()


class TestFailedRunCleanup:
    def test_failed_run_stops_workers_and_closes_journals(self, tmp_path):
        """A run that dies on a full disk still shuts its pool down and
        closes its journals."""
        import multiprocessing
        import os

        from repro.core.storage import DiskFullError, OneShotFault, install_faults

        journal = tmp_path / "journal.jsonl"
        config = replace(
            _base_config(
                parallel=True, checkpoint_path=str(tmp_path / "ckpt.json"), journal_path=str(journal)
            ),
            shards=2,
        )
        children_before = set(multiprocessing.active_children())
        # The second checkpoint write is the one after traceability, by
        # which time the pool is up and the parent's journal is open.
        install_faults(OneShotFault("checkpoint.write", "enospc", occurrence=2))
        with pytest.raises(DiskFullError):
            AssessmentPipeline(config=config).run()
        assert set(multiprocessing.active_children()) <= children_before
        if os.path.isdir("/proc/self/fd"):  # no descriptor still names the journal
            open_files = {os.path.realpath(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")}
            assert str(journal.resolve()) not in open_files


class TestTaskPlumbing:
    def test_stage_value_codecs_round_trip_names(self):
        with pytest.raises(ValueError):
            encode_stage_value("crawl", [])
        with pytest.raises(ValueError):
            decode_stage_value("crawl", [])

    def test_worker_task_runs_standalone(self, tmp_path):
        """One spec, executed in-process the way a pool worker would."""
        from repro.core.journal import capture_world_state
        from repro.core.sharding import partition

        config = replace(
            _base_config(), shards=2, checkpoint_path=None, journal_path=None, parallel=False
        )
        parent = AssessmentPipeline(config=config)
        executor = parent._sharded()
        shard = executor.worlds[0]
        spec = ShardTaskSpec(
            stage=STAGE_HONEYPOT,
            index=0,
            start_time=shard.clock.now(),
            config=config,
            bots=None,
            world_state=capture_world_state(shard.clock, shard.internet, shard.solver, shard.breakers),
            journal_path=str(tmp_path / "wal.jsonl.shard0"),
        )
        payload = run_shard_task(spec)
        assert payload["index"] == 0
        report = decode_stage_value(STAGE_HONEYPOT, payload["value"])
        sample = parent.world.ecosystem.top_voted(config.honeypot_sample_size)
        bucket = partition(sample, config.shards, key=lambda bot: bot.client_id)[0]
        # The worker recomputed the same deterministic bucket: every bot in
        # it surfaces as an outcome (quarantined included) or a skip.
        assert 0 < len(report.outcomes) <= len(bucket)
        assert {outcome.bot_name for outcome in report.outcomes} <= {bot.name for bot in bucket}
        assert payload["virtual_seconds"] > 0
        assert "world" in payload and "faults" in payload and "quarantines" in payload
        assert (tmp_path / "wal.jsonl.shard0").exists()

    @pytest.mark.parametrize("stage", [STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT])
    def test_run_shard_bucket_rejects_nothing_it_should_accept(self, stage):
        pipeline = AssessmentPipeline(config=_base_config(parallel=False).scaled(40, honeypot_sample_size=4))
        pipeline.config.shards = 2
        executor = pipeline._sharded()
        shard = executor.worlds[0]
        value = pipeline.run_shard_bucket(stage, shard, [], None)
        assert value is not None

    def test_run_shard_bucket_rejects_unknown_stage(self):
        pipeline = AssessmentPipeline(config=_base_config(parallel=False).scaled(40, honeypot_sample_size=4))
        pipeline.config.shards = 2
        executor = pipeline._sharded()
        with pytest.raises(ValueError):
            pipeline.run_shard_bucket("crawl", executor.worlds[0], [], None)
