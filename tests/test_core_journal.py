"""Unit tests for the intra-stage write-ahead journal.

The torn-tail cases are the heart of the contract: whatever garbage a
crash leaves at the end of the file, replay must accept exactly the
maximal valid prefix and count (never trust) the rest.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import journal as journal_module
from repro.core.journal import (
    JournalRecord,
    StageRecorder,
    UnitTracker,
    WriteAheadJournal,
    _canonical,
    _digest,
    record_resume_provenance,
)
from repro.core.resilience import FaultLedger
from repro.core.supervision import QuarantineLog
from repro.web.network import VirtualClock


class FakeInternet:
    """Minimal stateful component with the UnitTracker capture protocol."""

    def __init__(self) -> None:
        self.counter = 0
        self.chaos = None

    def state_dict(self) -> dict:
        return {"counter": self.counter}

    def restore_state(self, state: dict) -> None:
        self.counter = state["counter"]

    def hostnames(self):
        return []

    def knows(self, hostname: str) -> bool:
        return False


def make_tracker(clock=None, internet=None, ledger=None, quarantines=None) -> UnitTracker:
    return UnitTracker(
        clock or VirtualClock(),
        internet or FakeInternet(),
        ledger if ledger is not None else FaultLedger(),
        quarantines if quarantines is not None else QuarantineLog(),
    )


def fill(journal: WriteAheadJournal, count: int, stage: str = "stage") -> None:
    for index in range(count):
        journal.append(stage, f"unit-{index}", {"value": index})


# -- append / replay round-trip ---------------------------------------------


def test_round_trip(tmp_path) -> None:
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    fill(journal, 3)
    assert journal.stats.appended == 3
    journal.close()

    reopened = WriteAheadJournal(path)
    records = reopened.pending("stage")
    assert [record.key for record in records] == ["unit-0", "unit-1", "unit-2"]
    assert [record.body["value"] for record in records] == [0, 1, 2]
    assert [record.seq for record in records] == [1, 2, 3]
    assert reopened.stats.discarded == 0


def test_pending_filters_by_stage(tmp_path) -> None:
    journal = WriteAheadJournal(tmp_path / "wal")
    journal.append("crawl", "page-1", {"value": 1})
    journal.append("traceability", "bot-a", {"value": 2})
    journal.append("crawl", "page-2", {"value": 3})
    assert [record.key for record in journal.pending("crawl")] == ["page-1", "page-2"]
    assert [record.key for record in journal.pending("traceability")] == ["bot-a"]


def test_append_after_reopen_extends_sequence(tmp_path) -> None:
    """Records appended after a close/reopen cycle must survive the next scan."""
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    fill(journal, 2)
    journal.close()

    second = WriteAheadJournal(path)
    second.append("stage", "unit-2", {"value": 2})
    second.close()

    third = WriteAheadJournal(path)
    assert [record.key for record in third.pending("stage")] == ["unit-0", "unit-1", "unit-2"]
    assert third.stats.discarded == 0


# -- torn tails --------------------------------------------------------------


def test_truncated_mid_record_keeps_valid_prefix(tmp_path) -> None:
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    fill(journal, 3)
    journal.close()

    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 20])  # tear the last record mid-line

    torn = WriteAheadJournal(path)
    assert [record.key for record in torn.pending("stage")] == ["unit-0", "unit-1"]
    assert torn.stats.discarded == 1
    assert "after seq 2" in torn.discard_detail


def test_flipped_byte_invalidates_from_that_record_on(tmp_path) -> None:
    """Corrupting the middle record drops it AND everything after it."""
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    fill(journal, 3)
    journal.close()

    lines = path.read_bytes().splitlines(keepends=True)
    middle = json.loads(lines[1])
    middle["body"]["value"] = 999  # body no longer matches the recorded sha
    lines[1] = (json.dumps(middle, sort_keys=True, separators=(",", ":")) + "\n").encode()
    path.write_bytes(b"".join(lines))

    torn = WriteAheadJournal(path)
    assert [record.key for record in torn.pending("stage")] == ["unit-0"]
    assert torn.stats.discarded == 2


def test_garbage_after_valid_tail_is_counted_and_truncated(tmp_path) -> None:
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    fill(journal, 2)
    journal.close()

    with open(path, "ab") as stream:
        stream.write(b"{not json at all\nxx\n")

    torn = WriteAheadJournal(path)
    assert len(torn.pending("stage")) == 2
    assert torn.stats.discarded == 2

    # The first append truncates the garbage; a fresh scan is then clean.
    torn.append("stage", "unit-2", {"value": 2})
    torn.close()
    clean = WriteAheadJournal(path)
    assert [record.seq for record in clean.pending("stage")] == [1, 2, 3]
    assert clean.stats.discarded == 0


def test_unterminated_valid_json_line_is_a_torn_append(tmp_path) -> None:
    """A record missing its newline is torn even if its JSON parses."""
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    fill(journal, 2)
    journal.close()

    raw = path.read_bytes()
    path.write_bytes(raw.rstrip(b"\n"))

    torn = WriteAheadJournal(path)
    assert len(torn.pending("stage")) == 1
    assert torn.stats.discarded == 1


def test_non_consecutive_sequence_breaks_the_prefix(tmp_path) -> None:
    path = tmp_path / "wal"
    journal = WriteAheadJournal(path)
    fill(journal, 3)
    journal.close()

    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + lines[2])  # seq 1 then seq 3: gap

    torn = WriteAheadJournal(path)
    assert len(torn.pending("stage")) == 1
    assert torn.stats.discarded == 1


# -- UnitTracker -------------------------------------------------------------


def test_tracker_diff_suppression(tmp_path) -> None:
    clock = VirtualClock()
    internet = FakeInternet()
    tracker = make_tracker(clock=clock, internet=internet)

    body = tracker.finish_unit({"ok": 1})
    assert body["result"] == {"ok": 1}
    assert "state" not in body  # nothing changed: no components stored

    tracker.begin_unit()
    internet.counter = 7
    clock.advance(5.0)
    body = tracker.finish_unit(None)
    assert body["clock"] == clock.now()
    assert body["state"] == {"internet": {"counter": 7}}


def test_tracker_captures_appended_faults_and_replays_them(tmp_path) -> None:
    ledger = FaultLedger()
    tracker = make_tracker(ledger=ledger)
    tracker.begin_unit()
    ledger.record("traceability", "bots.example", "Timeout", 12.0, bots_skipped=1)
    body = tracker.finish_unit(None)
    assert len(body["faults"]) == 1

    replay_ledger = FaultLedger()
    replay_clock = VirtualClock()
    replay_internet = FakeInternet()
    replayer = make_tracker(clock=replay_clock, internet=replay_internet, ledger=replay_ledger)
    replayer.apply(body)
    assert len(replay_ledger.records) == 1
    assert replay_ledger.records[0].error_class == "Timeout"
    assert replay_clock.now() == body["clock"]


def test_tracker_apply_restores_absolute_state(tmp_path) -> None:
    internet = FakeInternet()
    clock = VirtualClock()
    tracker = make_tracker(clock=clock, internet=internet)
    clock.advance(3.0)
    internet.counter = 42
    body = tracker.finish_unit({"value": 1})

    fresh_internet = FakeInternet()
    fresh_clock = VirtualClock()
    fresh = make_tracker(clock=fresh_clock, internet=fresh_internet)
    fresh.apply(body)
    assert fresh_internet.counter == 42
    assert fresh_clock.now() == pytest.approx(3.0)


# -- StageRecorder -----------------------------------------------------------


def test_recorder_replays_prefix_then_records_live(tmp_path) -> None:
    path = tmp_path / "wal"
    writer = WriteAheadJournal(path)
    tracker = make_tracker()
    recorder = StageRecorder(writer, "stage", tracker, FaultLedger())
    recorder.begin_unit()
    recorder.commit("unit-0", {"value": 0})
    recorder.begin_unit()
    recorder.commit("unit-1", {"value": 1})
    writer.close()

    reopened = WriteAheadJournal(path)
    ledger = FaultLedger()
    resumed = StageRecorder(reopened, "stage", make_tracker(ledger=ledger), ledger)
    replayed, payload = resumed.try_replay("unit-0")
    assert replayed and payload == {"value": 0}
    replayed, payload = resumed.try_replay("unit-1")
    assert replayed and payload == {"value": 1}
    replayed, payload = resumed.try_replay("unit-2")
    assert not replayed and payload is None
    assert reopened.stats.replayed == 2


def test_recorder_discards_on_key_mismatch(tmp_path) -> None:
    path = tmp_path / "wal"
    writer = WriteAheadJournal(path)
    tracker = make_tracker()
    recorder = StageRecorder(writer, "stage", tracker, FaultLedger())
    for index in range(3):
        recorder.begin_unit()
        recorder.commit(f"unit-{index}", {"value": index})
    writer.close()

    reopened = WriteAheadJournal(path)
    ledger = FaultLedger()
    resumed = StageRecorder(reopened, "stage", make_tracker(ledger=ledger), ledger)
    replayed, _ = resumed.try_replay("unit-0")
    assert replayed
    replayed, _ = resumed.try_replay("different-key")
    assert not replayed
    assert reopened.stats.discarded == 2  # the rest of the prefix is untrusted
    assert any(record.stage == "journal" for record in ledger.records)
    # Once discarded, later keys never resurrect stale records.
    replayed, _ = resumed.try_replay("unit-2")
    assert not replayed


def test_resume_provenance_uses_reserved_stage(tmp_path) -> None:
    ledger = FaultLedger()
    record_resume_provenance(ledger, "something happened")
    assert ledger.records[0].stage == "journal"
    assert ledger.records[0].error_class == "JournalRecovery"
    assert "something happened" in ledger.records[0].detail


# -- pending without a scan, and the one-encode line ---------------------------

STAGES = ("crawl", "traceability", "code")


def full_scan(path: Path, stage: str) -> list[JournalRecord]:
    """The reference ``pending``: read the whole file, keep ``stage``'s records of its valid prefix."""
    kept: list[JournalRecord] = []
    if not path.exists():
        return kept
    expected = 1
    # Whatever follows the last newline is an unterminated, torn line.
    for line in path.read_bytes().split(b"\n")[:-1]:
        try:
            payload = json.loads(line.decode("utf-8"))
            seq, name, key, body, sha = (payload[field] for field in ("seq", "stage", "key", "body", "sha"))
        except (ValueError, KeyError, TypeError):
            break
        if seq != expected or not isinstance(body, dict):
            break
        blob = json.dumps({"seq": seq, "stage": name, "key": key, "body": body}, sort_keys=True, separators=(",", ":"))
        if sha != hashlib.sha256(blob.encode("utf-8")).hexdigest():
            break
        if name == stage:
            kept.append(JournalRecord(seq=seq, stage=name, key=key, body=body))
        expected += 1
    return kept


operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.sampled_from(STAGES), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("reopen"), st.just(0), st.just(0)),
        st.tuples(st.just("tear"), st.just(0), st.integers(min_value=1, max_value=400)),
        st.tuples(st.just("flip"), st.integers(min_value=1, max_value=255), st.integers(min_value=0, max_value=10**6)),
    ),
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(operations)
# A flipped byte found at open, flipped back before any append truncates it.
@example([("append", "crawl", 0), ("flip", 1, 0), ("reopen", 0, 0), ("flip", 1, 0)])
def test_pending_matches_a_full_scan(steps) -> None:
    """Through appends, reopens, torn tails and flipped bytes, ``pending``
    returns exactly what a scan of the whole file finds, for every stage."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "wal"
        journal = WriteAheadJournal(path)
        try:
            for kind, first, second in steps:
                if kind == "append":
                    journal.append(first, f"unit-{second}", {"value": second, "note": "ü"})
                elif kind == "reopen":
                    journal.close()
                    journal = WriteAheadJournal(path)
                elif kind == "tear" and path.exists():
                    # A crash tears the tail; the next process reopens the journal.
                    journal.close()
                    data = path.read_bytes()
                    path.write_bytes(data[: max(len(data) - second, 0)])
                    journal = WriteAheadJournal(path)
                elif kind == "flip" and path.exists() and path.stat().st_size:
                    # Bit rot under the open journal, as the disk-fault shim injects it.
                    data = bytearray(path.read_bytes())
                    data[second % len(data)] ^= first
                    path.write_bytes(bytes(data))
                for stage in STAGES:
                    assert journal.pending(stage) == full_scan(path, stage), (kind, stage)
        finally:
            journal.close()


def test_pending_of_a_stage_never_written_reads_no_file(tmp_path, monkeypatch) -> None:
    opened: list = []

    def spy(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    journal = WriteAheadJournal(tmp_path / "wal")
    monkeypatch.setattr(journal_module, "open", spy, raising=False)
    assert journal.pending("crawl") == []
    journal.append("crawl", "page-1", {"value": 1})
    assert journal.pending("traceability") == []
    assert opened == []
    # A stage with records is still read from the file.
    assert [record.key for record in journal.pending("crawl")] == ["page-1"]
    assert opened


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(
    st.text(min_size=1),
    st.lists(st.tuples(st.text(), st.dictionaries(st.text(), json_values, max_size=4)), min_size=1, max_size=4),
)
def test_append_writes_the_canonical_payload_line(stage, records) -> None:
    """Each appended line equals ``_canonical`` of the payload dict carrying
    ``_digest``'s sha, for any body, non-ASCII keys and values included."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "wal"
        journal = WriteAheadJournal(path, fsync_every=0)
        for key, body in records:
            journal.append(stage, key, body)
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
    expected = [
        (_canonical({"seq": seq, "stage": stage, "key": key, "body": body, "sha": _digest(seq, stage, key, body)})
         + "\n").encode("utf-8")
        for seq, (key, body) in enumerate(records, start=1)
    ]
    assert lines == expected
