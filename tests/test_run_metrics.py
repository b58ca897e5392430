"""Run metrics, failed-stage summaries and journal cleanup on a plain run.

Each stage records one :class:`StageMetrics`; the whole structure survives
the checkpoint, so a resumed run still reports every stage.  A stage that
dies leaves its summary ``None`` (no data, not zeros), and a run that dies
on a full disk still closes its journal.
"""

import os

import pytest

from repro.core.checkpoint import (
    STAGE_CODE,
    STAGE_CRAWL,
    STAGE_HONEYPOT,
    STAGE_TRACEABILITY,
)
from repro.core.config import PipelineConfig
from repro.core.metrics import RunMetrics, StageMetrics
from repro.core.pipeline import AssessmentPipeline
from repro.core.storage import DiskFullError, OneShotFault, install_faults
from repro.web.network import NetworkError


def _config(**overrides) -> PipelineConfig:
    defaults = dict(n_bots=60, seed=3, honeypot_sample_size=10, validation_sample_size=20)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRunMetrics:
    def test_sequential_run_records_every_stage(self):
        result = AssessmentPipeline(_config()).run()
        assert set(result.metrics.stages) == {STAGE_CRAWL, STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT}
        crawl = result.metrics.stage(STAGE_CRAWL)
        assert crawl.bots_processed == 60
        assert crawl.exchanges > 0
        assert crawl.virtual_seconds > 0

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

    def test_journal_metrics_report_the_journal(self, tmp_path):
        config = _config(checkpoint_path=str(tmp_path / "ckpt.json"), journal_path=str(tmp_path / "journal.jsonl"))
        pipeline = AssessmentPipeline(config)
        result = pipeline.run()
        assert pipeline._journal.stats.appended > 0
        assert result.metrics.journal == pipeline._journal.stats.to_dict()

    def test_render_lists_stages(self):
        result = AssessmentPipeline(_config()).run()
        rendered = result.metrics.render()
        assert rendered.startswith("=== Run metrics ===")
        for stage in (STAGE_CRAWL, STAGE_TRACEABILITY, STAGE_CODE, STAGE_HONEYPOT):
            assert stage in rendered

    def test_roundtrip_through_dict(self):
        metrics = RunMetrics(
            stages={
                "crawl": StageMetrics(
                    stage="crawl",
                    wall_seconds=1.5,
                    virtual_seconds=100.0,
                    exchanges=42,
                    bots_processed=10,
                    bots_skipped=2,
                )
            },
        )
        restored = RunMetrics.from_dict(metrics.to_dict())
        assert restored.to_dict() == metrics.to_dict()


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
    def test_failed_run_closes_the_journal(self, tmp_path):
        """A run that dies on a full disk still closes its journal."""
        journal = tmp_path / "journal.jsonl"
        config = _config(checkpoint_path=str(tmp_path / "ckpt.json"), journal_path=str(journal))
        # The second checkpoint write is the one after traceability, by
        # which time the journal is open and holds records.
        install_faults(OneShotFault("checkpoint.write", "enospc", occurrence=2))
        # Held past the failure, so only the run itself can have closed it.
        pipeline = AssessmentPipeline(config)
        with pytest.raises(DiskFullError):
            pipeline.run()
        assert journal.exists()
        if os.path.isdir("/proc/self/fd"):  # no descriptor still names the journal
            open_files = {os.path.realpath(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")}
            assert str(journal.resolve()) not in open_files
