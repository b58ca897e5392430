"""Checkpoint integrity: corruption detection, whole-file quarantine, honest resume.

The robustness contract under test: a checkpoint file that was corrupted on
disk (bit-flip, tail truncation, partial write) must never crash the
scrub-on-load pass — the bad file is quarantined whole to
``<name>.corrupt``, nothing in it (stages, ledger, quarantines) is
trusted, the detection is recorded under the ``storage`` provenance stage,
and the rerun completes with the same result an uninterrupted run produces.
"""

import hashlib
import json
import logging
from collections import Counter

import pytest

from repro.core.checkpoint import (
    STAGE_CODE,
    STAGE_CRAWL,
    STAGE_HONEYPOT,
    STAGE_TRACEABILITY,
    CheckpointCorruptionError,
    PipelineCheckpoint,
    _payload_checksum,
    _scrape_stats_from_dict,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.resilience import FaultLedger
from repro.core.serialize import comparable_result, result_to_dict
from repro.core.storage import RecoveryManager


def _config(**overrides) -> PipelineConfig:
    defaults = dict(n_bots=60, seed=3, honeypot_sample_size=10, validation_sample_size=20)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


#: The crash matrix's base config: under hostile chaos with two planted
#: adversaries the run absorbs faults and quarantines bots, so a checkpoint
#: that leaked its records into a rerun would show.
CHAOS_CONFIG = dict(
    n_bots=48,
    seed=7,
    honeypot_sample_size=8,
    validation_sample_size=10,
    chaos_profile="hostile",
    chaos_seed=1,
    adversarial_bots=2,
)


def _comparable(config: PipelineConfig) -> str:
    return json.dumps(comparable_result(result_to_dict(AssessmentPipeline(config).run())), sort_keys=True)


def _scrub(target):
    ledger = FaultLedger()
    return RecoveryManager(ledger).scrub_pipeline_checkpoint(target), ledger


def _statistics(result) -> dict:
    stats = {
        "bots": result.bots_collected,
        "active": result.active_bots,
        "listing_ids": sorted(bot.listing_id for bot in result.crawl.bots),
        "trace_classes": Counter(r.classification.value for r in result.traceability_results),
        "repo_languages": Counter(a.main_language for a in result.repo_analyses),
    }
    if result.honeypot is not None:
        stats["honeypot_tested"] = result.honeypot.bots_tested
        stats["honeypot_flagged"] = sorted(o.bot_name for o in result.honeypot.flagged_bots)
    return stats


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One fully-checkpointed reference run; tests copy its file around."""
    root = tmp_path_factory.mktemp("checkpointed")
    path = root / "pipeline.json"
    result = AssessmentPipeline(_config(checkpoint_path=str(path))).run()
    return result, path.read_bytes()


class TestChecksumVerification:
    def test_save_load_roundtrip_verifies(self, finished_run, tmp_path):
        _, blob = finished_run
        target = tmp_path / "pipeline.json"
        target.write_bytes(blob)
        checkpoint = PipelineCheckpoint.load(target)
        assert checkpoint.completed_stages == [
            STAGE_CRAWL,
            STAGE_TRACEABILITY,
            STAGE_CODE,
            STAGE_HONEYPOT,
        ]

    def test_load_rejects_silently_edited_payload(self, finished_run, tmp_path):
        _, blob = finished_run
        payload = json.loads(blob)
        payload["stages"][STAGE_CRAWL]["pages_traversed"] += 1  # silent disk corruption
        target = tmp_path / "pipeline.json"
        target.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorruptionError, match="checksum"):
            PipelineCheckpoint.load(target)

    def test_load_rejects_truncated_file(self, finished_run, tmp_path):
        _, blob = finished_run
        target = tmp_path / "pipeline.json"
        target.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptionError):
            PipelineCheckpoint.load(target)

    def test_payload_with_stage_checksums_still_loads(self, finished_run, tmp_path):
        """Earlier writers embedded per-stage digests; their files still load."""
        _, blob = finished_run
        payload = json.loads(blob)
        payload["stage_checksums"] = {
            stage: hashlib.sha256(json.dumps(entry, sort_keys=True).encode("utf-8")).hexdigest()
            for stage, entry in payload["stages"].items()
        }
        payload["checksum"] = _payload_checksum(payload)
        target = tmp_path / "pipeline.json"
        target.write_text(json.dumps(payload))
        checkpoint = PipelineCheckpoint.load(target)
        assert checkpoint.stages == json.loads(blob)["stages"]


class TestScrub:
    def test_edited_stage_quarantines_the_whole_file(self, finished_run, tmp_path):
        _, blob = finished_run
        payload = json.loads(blob)
        payload["stages"][STAGE_CRAWL]["pages_traversed"] += 1
        target = tmp_path / "pipeline.json"
        target.write_text(json.dumps(payload))

        recovered, ledger = _scrub(target)
        # The intact stages are not salvaged either: the file is trusted
        # whole or not at all, and the journal redoes what it held.
        assert recovered.completed_stages == []
        assert not target.exists()
        assert (tmp_path / "pipeline.json.corrupt").exists()
        assert [record.stage for record in ledger.records] == ["storage"]
        assert "checksum mismatch" in ledger.records[0].detail
        assert "pipeline.json.corrupt" in ledger.records[0].detail

    def test_unreadable_garbage_yields_empty_checkpoint(self, tmp_path):
        target = tmp_path / "pipeline.json"
        target.write_bytes(b"\x00\xffnot json at all")
        recovered, ledger = _scrub(target)
        assert recovered.completed_stages == []
        assert (tmp_path / "pipeline.json.corrupt").exists()
        assert [record.stage for record in ledger.records] == ["storage"]

    def test_missing_file_is_a_plain_fresh_checkpoint(self, tmp_path):
        recovered, ledger = _scrub(tmp_path / "absent.json")
        assert recovered.completed_stages == []
        assert len(ledger) == 0  # nothing was lost, nothing recorded

    def test_truncation_at_any_byte_offset_never_crashes(self, finished_run, tmp_path):
        """Sweep truncation points across a full run's file, including tiny ones."""
        _, blob = finished_run
        size = len(blob)
        offsets = sorted({1, 2, 10, 100, *range(size // 40, size, size // 40)})
        for offset in offsets:
            workdir = tmp_path / f"cut_{offset}"
            workdir.mkdir()
            target = workdir / "pipeline.json"
            target.write_bytes(blob[:offset])
            recovered, ledger = _scrub(target)  # must never raise
            assert not target.exists(), f"cut at byte {offset}"
            assert (workdir / "pipeline.json.corrupt").exists(), f"cut at byte {offset}"
            assert recovered.completed_stages == [], f"cut at byte {offset}"
            assert len(recovered.ledger) == 0 and len(recovered.quarantines) == 0, f"cut at byte {offset}"
            assert [record.stage for record in ledger.records] == ["storage"], f"cut at byte {offset}"


class TestResumeAfterCorruption:
    def test_truncated_checkpoint_resumes_to_identical_statistics(self, finished_run, tmp_path):
        reference, blob = finished_run
        path = tmp_path / "pipeline.json"
        path.write_bytes(blob[: int(len(blob) * 0.6)])

        resumed = AssessmentPipeline(_config(checkpoint_path=str(path))).run()
        assert _statistics(resumed) == _statistics(reference)
        assert (tmp_path / "pipeline.json.corrupt").exists()
        # The run is honest about the loss: the quarantine landed in the
        # ledger under the storage provenance stage.
        recovery = [r for r in resumed.fault_ledger.records if r.stage == "storage"]
        assert len(recovery) == 1

    def test_hopelessly_truncated_checkpoint_yields_fresh_run(self, finished_run, tmp_path):
        """Regression: a near-empty checkpoint file must never crash the run."""
        reference, blob = finished_run
        path = tmp_path / "pipeline.json"
        path.write_bytes(blob[:40])  # torn down to its first bytes

        result = AssessmentPipeline(_config(checkpoint_path=str(path))).run()
        # Every stage re-ran from scratch, none resumed.
        assert all(status in ("completed", "degraded") for status in result.stage_status.values())
        assert _statistics(result) == _statistics(reference)
        assert (tmp_path / "pipeline.json.corrupt").exists()
        # The rewritten checkpoint is whole again and verifies.
        assert PipelineCheckpoint.load(path).completed_stages

    @pytest.mark.parametrize(
        "mode", [{}, {"stream": True, "chunk_size": 16}], ids=["materialized", "streamed"]
    )
    def test_half_checkpoint_reruns_without_the_dead_runs_records(self, mode, tmp_path):
        """Regression: a torn checkpoint must not leak its faults into the rerun.

        Cut to half its bytes, the checkpoint yields no stage.  The rerun
        redoes the campaign, replaying the journal, and must match the first
        run exactly: the torn file's ledger and quarantine records may not
        be added to the ones the rerun earns again.
        """
        config = PipelineConfig(
            **CHAOS_CONFIG,
            **mode,
            checkpoint_path=str(tmp_path / "ckpt.json"),
            journal_path=str(tmp_path / "journal.wal"),
        )
        golden = _comparable(config)
        assert json.loads(golden)["quarantine"]["count"] > 0  # records a leak would double
        checkpoint = tmp_path / "ckpt.json"
        blob = checkpoint.read_bytes()
        checkpoint.write_bytes(blob[: len(blob) // 2])
        assert _comparable(config) == golden
        assert (tmp_path / "ckpt.json.corrupt").exists()


class TestScrapeStatsCompat:
    def test_unknown_keys_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            stats = _scrape_stats_from_dict(
                {"pages_fetched": 7, "from_the_future": 1, "also_unknown": 2}
            )
        assert stats.pages_fetched == 7
        assert not hasattr(stats, "from_the_future")
        warning = "\n".join(caplog.messages)
        assert "also_unknown, from_the_future" in warning

    def test_known_keys_stay_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            _scrape_stats_from_dict({"pages_fetched": 7})
        assert not caplog.messages
