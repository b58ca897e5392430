"""Torn-tail fuzzing: truncate every durable artifact at every byte.

A crash (or a lying disk cache) can cut an append-only file anywhere
inside its final record, and an atomic snapshot can be tail-truncated by
the faults the storage shim injects.  For each artifact this suite cuts
the file at every byte boundary of the damage window and asserts the
recovery contract: an append log's loader salvages the **maximal valid
prefix** or raises a typed corruption error, and the pipeline checkpoint
is trusted whole or quarantined whole — never garbage records, never a
crash on the resume path.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.checkpoint import PipelineCheckpoint
from repro.core.journal import WriteAheadJournal
from repro.core.resilience import FaultLedger
from repro.core.spill import SpillList
from repro.core.storage import ArtifactCorruptionError, RecoveryManager
from repro.honeypot.experiment import HoneypotReport


def _truncated_copy(source: Path, cut: int, destination: Path) -> Path:
    destination.write_bytes(source.read_bytes()[:cut])
    return destination


# -- write-ahead journal -----------------------------------------------------


def test_journal_survives_every_cut_of_its_final_record(tmp_path):
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    for seq in range(3):
        journal.append("code", f"bot-{seq}", {"verdict": seq, "blob": "y" * 20})
    journal.close()
    data = path.read_bytes()
    # Byte offset where the final record starts = end of the 2-record prefix.
    prefix_end = data.rfind(b"\n", 0, len(data) - 1) + 1
    assert 0 < prefix_end < len(data)
    prefix_records = 2

    for cut in range(prefix_end, len(data) + 1):
        mangled = _truncated_copy(path, cut, tmp_path / f"wal-{cut}")
        reopened = WriteAheadJournal(mangled)
        records = reopened.pending("code")
        reopened.close()
        expected = 3 if cut == len(data) else prefix_records
        assert len(records) == expected, f"cut at byte {cut}"
        # Whatever replays is exactly the intact prefix — never garbage.
        for seq, record in enumerate(records):
            assert record.key == f"bot-{seq}"
            assert record.body["verdict"] == seq


def test_journal_truncated_tail_is_discarded_and_counted(tmp_path):
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    journal.append("code", "bot-0", {"verdict": 0})
    journal.append("code", "bot-1", {"verdict": 1})
    journal.close()
    data = path.read_bytes()
    path.write_bytes(data[:-4])  # tear the final record
    reopened = WriteAheadJournal(path)
    assert reopened.stats.discarded == 1
    assert "invalid trailing record" in reopened.discard_detail
    # The first append truncates the torn bytes, so the log stays clean.
    reopened.append("code", "bot-1", {"verdict": 1})
    records = reopened.pending("code")
    reopened.close()
    assert [record.seq for record in records] == [1, 2]


# -- spill files -------------------------------------------------------------


def test_spill_restore_salvages_every_cut_of_its_final_record(tmp_path):
    path = tmp_path / "records.jsonl"
    spill = SpillList(path)
    for index in range(3):
        spill.append({"bot": index, "payload": "z" * 15})
    spill.sync()
    spill.close()
    data = path.read_bytes()
    prefix_end = data.rfind(b"\n", 0, len(data) - 1) + 1

    for cut in range(prefix_end, len(data) + 1):
        mangled = _truncated_copy(path, cut, tmp_path / f"records-{cut}.jsonl")
        restored = SpillList(mangled, restore=True)
        expected = 3 if cut == len(data) else 2
        assert len(restored) == expected, f"cut at byte {cut}"
        items = list(restored)
        assert [item["bot"] for item in items] == list(range(expected))
        # The torn tail was physically truncated: appends extend cleanly.
        restored.append({"bot": expected, "payload": "fresh"})
        assert list(restored)[-1]["bot"] == expected
        restored.close()


def test_spill_mid_file_damage_raises_typed_corruption(tmp_path):
    path = tmp_path / "records.jsonl"
    spill = SpillList(path)
    for index in range(3):
        spill.append({"bot": index})
    spill.sync()
    spill.close()
    data = bytearray(path.read_bytes())
    data[3] = 0xFF  # garble the first record, not the tail
    path.write_bytes(bytes(data))
    restored = SpillList(path, restore=True)
    # The valid prefix before the damage is empty; acknowledged count drops
    # to zero rather than trusting records past the garbled line.
    assert len(restored) == 0
    restored.close()

    # An intact-looking count with damaged bytes must raise, not yield junk.
    fresh = SpillList(tmp_path / "other.jsonl")
    fresh.append({"bot": 0})
    fresh.sync()
    fresh.close()
    (tmp_path / "other.jsonl").write_bytes(b'{"bot": \xff}\n')
    reloaded = SpillList(tmp_path / "other.jsonl", restore=True)
    reloaded._count = 1  # simulate an acknowledged record the disk garbled
    with pytest.raises(ArtifactCorruptionError):
        list(reloaded)
    reloaded.close()


# -- pipeline checkpoint snapshot --------------------------------------------


def test_pipeline_checkpoint_never_crashes_or_fabricates_under_truncation(tmp_path):
    path = tmp_path / "pipeline.ckpt"
    checkpoint = PipelineCheckpoint()
    checkpoint.store_honeypot(
        HoneypotReport(outcomes=[], triggers=[], manual_verifications=2, install_failures=1, captcha_cost=1.5)
    )
    checkpoint.ledger.record("honeypot", "bot:x", "RuntimeError", 3.0, detail="absorbed by the saving run")
    checkpoint.quarantines.record("honeypot", "x", "crash", "RuntimeError", 3.0)
    checkpoint.world_state = {"main": {"clock": 12.0}}
    checkpoint.save(path)
    data = path.read_bytes()

    for cut in range(len(data) + 1):
        mangled = tmp_path / "mangled.ckpt"
        mangled.write_bytes(data[:cut])
        ledger = FaultLedger()
        recovered = RecoveryManager(ledger).scrub_pipeline_checkpoint(mangled)  # must never raise
        if cut == len(data):
            # Only the complete file is trusted, and then all of it.
            assert recovered.completed_stages == ["honeypot"]
            assert len(recovered.ledger) == 1 and len(recovered.quarantines) == 1
            assert len(ledger) == 0
            continue
        # Any cut: nothing from the file survives, the file is quarantined
        # whole, and exactly one storage record says so.
        assert recovered.completed_stages == [], f"cut at byte {cut}"
        assert len(recovered.ledger) == 0 and len(recovered.quarantines) == 0, f"cut at byte {cut}"
        assert not mangled.exists() and (tmp_path / "mangled.ckpt.corrupt").exists(), f"cut at byte {cut}"
        assert [record.stage for record in ledger.records] == ["storage"], f"cut at byte {cut}"
        (tmp_path / "mangled.ckpt.corrupt").unlink()
