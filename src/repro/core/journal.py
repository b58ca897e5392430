"""Intra-stage write-ahead journal: lose at most one bot, never a stage.

The per-stage checkpoint (:mod:`repro.core.checkpoint`) makes stage
*boundaries* durable; a crash mid-stage still used to lose every bot since
the previous boundary.  This module closes that gap with an append-only
JSONL journal that stages write to after every completed unit of work (one
bot for traceability/code analysis, one page for the crawl) and replay from
on resume.

Why a JSONL WAL beside the JSON snapshot: the snapshot is a random-access
document rewritten atomically per stage — cheap to load, expensive to
update, and all-or-nothing on a crash.  The journal is the opposite: an
append-only sequence of small records, each one durable the moment it is
flushed, where a crash can only ever damage the final record.  Torn-tail
tolerance is the contract: replay accepts the **maximal valid prefix** —
records are consumed in order until the first line that fails to parse, has
a wrong checksum, carries a non-consecutive sequence number, or is missing
its terminating newline — and everything after that point is discarded and
counted, never trusted.

Each unit record carries two things:

1. the unit's *result* (a serialized verdict / analysis / page of bots);
2. the *world-state delta* the unit caused — virtual clock, RNG streams,
   chaos schedule, circuit breakers, captcha accounts, server-side
   middleware — captured by :class:`UnitTracker`, which stores only what
   the unit touched: the keys of small components whose value changed,
   the keys keyed containers (hosts, breakers, robots, cookies) report as
   touched, and an RNG whose 624 words did not move as its position
   alone.  A record therefore costs O(what the unit touched), not
   O(world), and the journal grows linearly with the population.

Replaying a record therefore both re-emits the unit's result *and*
fast-forwards the simulation to the exact state it held after that unit, so
the first live unit after replay sees a world byte-identical to the one the
crashed process saw.  Clock values are stored absolutely (and restored with
:meth:`~repro.web.network.VirtualClock.restore`) because accumulating float
deltas could drift a chaos-window boundary.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.crashpoints import crashpoint
from repro.core.resilience import FaultLedger, FaultRecord
from repro.core.storage import DurableAppendFile
from repro.core.supervision import QuarantineLog, QuarantineRecord
from repro.web.captcha import SolveRecord


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(seq: int, stage: str, key: str, body: dict) -> str:
    blob = _canonical({"seq": seq, "stage": stage, "key": key, "body": body})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record_line(seq: int, stage: str, key: str, body: dict) -> bytes:
    """One record's journal line, its body encoded once for checksum and line.

    Byte-identical to ``_canonical`` of the record's payload carrying
    :func:`_digest`'s sha: canonical JSON sorts keys, so the digested
    object is ``body, key, seq, stage`` and the line slots ``sha`` in
    before ``stage``.
    """
    head = f'{{"body":{_canonical(body)},"key":{_canonical(key)},"seq":{_canonical(seq)}'
    tail = f'"stage":{_canonical(stage)}}}'
    sha = hashlib.sha256(f"{head},{tail}".encode("utf-8")).hexdigest()
    return f'{head},"sha":"{sha}",{tail}\n'.encode("utf-8")


@dataclass(frozen=True)
class JournalRecord:
    """One validated journal record."""

    seq: int
    stage: str
    key: str
    body: dict


@dataclass
class JournalStats:
    """Counters surfaced through ``--metrics``."""

    appended: int = 0
    replayed: int = 0
    discarded: int = 0  # records dropped: torn tail, corruption, stale keys

    def to_dict(self) -> dict:
        return {"appended": self.appended, "replayed": self.replayed, "discarded": self.discarded}


class WriteAheadJournal:
    """Append-only, per-record-checksummed JSONL journal.

    Records carry a global 1-based sequence number; on open, the existing
    file is scanned once and the maximal valid prefix becomes the replayable
    record set.  The first append physically truncates any invalid tail so
    a journal can survive repeated crash/resume cycles without garbage
    accumulating mid-file.  The journal remembers which stages that prefix
    and its own appends hold records of, so asking a fresh run's journal
    for a stage it never wrote reads nothing.

    Durability rides through :class:`~repro.core.storage.DurableAppendFile`
    with a configurable fsync cadence.  ``fsync_every=1`` (the default)
    makes every record durable before ``append`` returns — the journal's
    acknowledgement is then worth exactly one record.  ``fsync_every=N``
    batches fsyncs for throughput (the 10^5-scale journal-overhead rung)
    at the price of a **widened torn-tail window**: a crash — or a power
    loss behind an lying disk cache — can drop up to ``N-1`` acknowledged
    records off the tail, which replay then treats exactly like a torn
    tail (the stage redoes those units deterministically).  ``0`` never
    fsyncs implicitly; durability is the caller's explicit ``sync()``.
    """

    def __init__(self, path: str | Path, *, fsync_every: int = 1) -> None:
        self.path = Path(path)
        self.stats = JournalStats()
        self.discard_detail = ""
        self.fsync_every = fsync_every
        self._file = DurableAppendFile(self.path, label="journal", fsync_every=fsync_every)
        self._truncated = False
        _, valid, self._valid_bytes, dropped, self._stages = self._scan(None)
        #: Whether ``_stages`` names every stage a scan could find.  Not
        #: while an invalid tail is still on disk: a byte that rots back
        #: can make its records valid again.  The first append truncates it.
        self._stages_complete = not dropped
        self._next_seq = valid + 1
        if dropped:
            self.stats.discarded += dropped
            self.discard_detail = f"discarded {dropped} invalid trailing record(s) after seq {valid}"

    # -- reading -----------------------------------------------------------

    def _scan(self, stage: str | None) -> tuple[list[JournalRecord], int, int, int, set[str]]:
        """Verify the file line by line; keep only ``stage``'s records.

        Returns ``(kept, valid, valid_bytes, dropped, stages)``: the valid
        prefix's records of ``stage`` (none for ``None``), its record count
        and byte length, the non-blank lines after it, and the stages it
        holds records of.  Memory stays bounded by one line plus the kept
        records, whatever the file's size.
        """
        kept: list[JournalRecord] = []
        stages: set[str] = set()
        valid = valid_bytes = dropped = 0
        try:
            stream = open(self.path, "rb")
        except FileNotFoundError:
            return kept, 0, 0, 0, stages
        with stream:
            for line in stream:
                # An unterminated line is a torn append: stop there.
                record = self._decode(line[:-1], expected_seq=valid + 1) if line.endswith(b"\n") else None
                if record is None:
                    dropped = 1 if line.strip() else 0
                    dropped += sum(1 for rest in stream if rest.strip())
                    break
                valid += 1
                valid_bytes += len(line)
                stages.add(record.stage)
                if record.stage == stage:
                    kept.append(record)
        return kept, valid, valid_bytes, dropped, stages

    @staticmethod
    def _decode(line: bytes, expected_seq: int) -> JournalRecord | None:
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            seq = payload["seq"]
            stage = payload["stage"]
            key = payload["key"]
            body = payload["body"]
            sha = payload["sha"]
        except (KeyError, TypeError):
            return None
        if seq != expected_seq or not isinstance(body, dict):
            return None
        if sha != _digest(seq, stage, key, body):
            return None
        return JournalRecord(seq=seq, stage=stage, key=key, body=body)

    def pending(self, stage: str) -> list[JournalRecord]:
        """Replayable records for ``stage``, in append order.

        A stage that neither the valid prefix found at open nor this
        process's appends hold a record of has none, and the file is not
        read: every stage start of a fresh run costs nothing.  Otherwise the
        file is scanned on demand rather than keeping an in-RAM copy of
        every append: replay happens once per stage open while appends
        happen per unit, so the scan cost lands on the rare path and the
        hot path stays O(1) memory over a million-bot run.  The scan keeps
        only ``stage``'s records, verifying every other record on the way.
        Until the first append truncates an invalid tail found at open,
        every call scans.
        """
        if stage not in self._stages and self._stages_complete:
            return []
        self._file.flush()
        return self._scan(stage)[0]

    # -- writing -----------------------------------------------------------

    def append(self, stage: str, key: str, body: dict) -> JournalRecord:
        """Durably append one record (fsynced per the configured cadence).

        The write is split around the ``journal.mid_append`` crash point so
        the injection harness can manufacture a genuinely torn tail.
        """
        record = JournalRecord(seq=self._next_seq, stage=stage, key=key, body=body)
        line = _record_line(record.seq, stage, key, body)
        self._stages.add(stage)
        # Truncate the invalid tail exactly once per process: records
        # appended after the first open extend past ``_valid_bytes``
        # and must survive a close/reopen cycle.
        if not self._truncated:
            self._file.truncate_to(self._valid_bytes)
            self._truncated = True
            self._stages_complete = True
        half = max(len(line) // 2, 1)
        self._file.write(line[:half])
        self._file.flush()
        crashpoint("journal.mid_append")
        self._file.write(line[half:])
        self._file.commit()
        self._next_seq += 1
        self.stats.appended += 1
        return record

    def sync(self) -> None:
        """Force (and verify) durability of every appended record."""
        self._file.sync()

    def close(self) -> None:
        self._file.close()


# ---------------------------------------------------------------------------
# World-state capture
# ---------------------------------------------------------------------------

#: Words in a Mersenne-Twister state; ``rng_state`` appends the position.
_MT_WORDS = 624
#: What a record stores in place of an RNG state whose words and gauss
#: value match the last recorded ones: ``{"rng_pos": <position>}``.
_RNG_POSITION = "rng_pos"


def _is_rng_state(value: Any) -> bool:
    """Whether ``value`` is a :func:`~repro.web.network.rng_state` list."""
    return type(value) is list and len(value) == 3 and type(value[1]) is list and len(value[1]) == _MT_WORDS + 1


def _same_words(last: list, state: list) -> bool:
    """Whether two RNG states differ at most in their position."""
    return last[0] == state[0] and last[2] == state[2] and last[1][:_MT_WORDS] == state[1][:_MT_WORDS]


@dataclass
class _Component:
    """One tracked component.

    A small component's ``capture()`` returns its whole state, which
    records diff key by key.  A keyed container's ``capture(keys)`` returns
    the state of those keys, and ``touched()`` drains the keys it changed.
    """

    capture: Callable[..., dict]
    restore: Callable[[dict], None]
    touched: Callable[[], Iterable[str]] | None = None


class UnitTracker:
    """Captures the world-state delta one unit of stage work produces.

    Only what the unit touched is stored:

    - *small components* (the internet's transport state, chaos schedule,
      retry budget, captcha account, scraper counters) are diffed key by
      key against what the tracker last recorded;
    - *keyed containers* (per-host server state, circuit breakers, the
      scraper's robots cache and cookie jar) report the keys their
      mutators touched since the last unit, and only those are stored;
    - an RNG state anywhere in either is stored as its position alone
      (``{"rng_pos": n}``) when its 624 words and gauss value equal the
      last recorded ones, and whole otherwise.

    Replay merges per key, so whole-state records (the format before this
    scheme) replay too.  Append-only components (captcha solve history,
    fault ledger, quarantine log) are stored as the records appended
    during the unit.
    """

    def __init__(
        self,
        clock,
        internet,
        ledger: FaultLedger,
        quarantines: QuarantineLog,
        breakers=None,
        budget=None,
        solver=None,
        scraper=None,
    ) -> None:
        self._clock = clock
        self._internet = internet
        self._ledger = ledger
        self._quarantines = quarantines
        self._solver = solver
        self._components: dict[str, _Component] = {}
        self._register("internet", internet.state_dict, internet.restore_state)
        chaos = getattr(internet, "chaos", None)
        if chaos is not None:
            self._register("chaos", chaos.state_dict, chaos.restore_state)
        self._register_keyed(
            "hosts", internet, lambda keys: _hosts_state(internet, keys), lambda state: _restore_hosts(internet, state)
        )
        if breakers is not None:
            self._register_keyed("breakers", breakers, breakers.state_dict, breakers.restore_state)
        if budget is not None:
            self._register("budget", budget.state_dict, budget.restore_state)
        if solver is not None:
            self._register("solver", solver.state_dict, solver.restore_state)
        if scraper is not None:
            self._register("scraper", scraper.state_dict, scraper.restore_state)
            for name, jar in (("robots", scraper.robots), ("cookies", scraper.cookies)):
                self._register_keyed(name, jar, jar.state_dict, jar.restore_state)
        #: Path -> the last recorded whole state of the RNG found there.
        self._rngs: dict[tuple, list] = {}
        #: Small component -> key -> canonical JSON of its last recorded
        #: value, RNG states written as positions.
        self._last: dict[str, dict[str, str]] = {
            name: {key: self._blob(name, key, value) for key, value in component.capture().items()}
            for name, component in self._components.items()
            if component.touched is None
        }
        self._marks: dict[str, int] = {}
        self.begin_unit()

    def _register(self, name: str, capture: Callable[[], dict], restore: Callable[[dict], None]) -> None:
        self._components[name] = _Component(capture, restore)

    def _register_keyed(self, name: str, container, capture: Callable, restore: Callable[[dict], None]) -> None:
        if not hasattr(container, "track_touches"):
            # A container that cannot name its touched keys is diffed like a small one.
            self._register(name, lambda: capture(None), restore)
            return
        container.track_touches()
        self._components[name] = _Component(capture, restore, container.drain_touched)

    # -- RNG states as positions --------------------------------------------

    def _pack(self, value: Any, path: tuple) -> tuple[Any, bool]:
        """``value`` with each RNG state whose words match the last recorded
        state at its path written as its position; True if one stays whole."""
        if type(value) is dict:
            packed: dict = {}
            whole = False
            for key, item in value.items():
                packed[key], kept = self._pack(item, path + (key,))
                whole = whole or kept
            return packed, whole
        if _is_rng_state(value):
            last = self._rngs.get(path)
            self._rngs[path] = value
            if last is not None and _same_words(last, value):
                return {_RNG_POSITION: value[1][_MT_WORDS]}, False
            return value, True
        return value, False

    def _unpack(self, value: Any, path: tuple) -> Any:
        """Invert :meth:`_pack` against the RNG states recorded so far."""
        if type(value) is dict:
            if len(value) == 1 and _RNG_POSITION in value:
                last = self._rngs[path]
                value = [last[0], last[1][:_MT_WORDS] + [value[_RNG_POSITION]], last[2]]
                self._rngs[path] = value
                return value
            return {key: self._unpack(item, path + (key,)) for key, item in value.items()}
        if _is_rng_state(value):
            self._rngs[path] = value
        return value

    def _blob(self, name: str, key: str, value: Any) -> str:
        """What a small component's key is diffed by: canonical JSON with
        every RNG state (now the last recorded one) as its position."""
        packed, whole = self._pack(value, (name, key))
        if whole:  # those RNG states are the last recorded ones now
            packed = self._pack(value, (name, key))[0]
        return _canonical(packed)

    # -- units ----------------------------------------------------------------

    def begin_unit(self) -> None:
        """Mark the append-only components before a live unit runs.

        Marks are absolute positions (``mark()``), not list indices: a
        bounded ledger's ring trim shifts indices mid-unit, and a raw slice
        would then re-ship records from *before* the unit.
        """
        self._marks = {
            "faults": self._ledger.mark(),
            "quarantines": self._quarantines.mark(),
            "solves": len(self._solver.history) if self._solver is not None else 0,
        }

    def finish_unit(self, result: dict | None) -> dict:
        """Build the journal body for the unit that just ran live."""
        body: dict[str, Any] = {"result": result, "clock": self._clock.now()}
        faults = self._ledger.records_since(self._marks["faults"])
        if faults:
            body["faults"] = [record.to_dict() for record in faults]
        quarantines = self._quarantines.records_since(self._marks["quarantines"])
        if quarantines:
            body["quarantines"] = [record.to_dict() for record in quarantines]
        if self._solver is not None:
            solves = self._solver.history[self._marks["solves"]:]
            if solves:
                body["solves"] = [vars(record).copy() for record in solves]
        changed: dict[str, dict] = {}
        for name, component in self._components.items():
            delta = self._delta(name, component)
            if delta:
                changed[name] = delta
        if changed:
            body["state"] = changed
        return body

    def _delta(self, name: str, component: _Component) -> dict:
        if component.touched is not None:
            state = component.capture(component.touched())
            return {key: self._pack(value, (name, key))[0] for key, value in state.items()}
        last = self._last[name]
        delta: dict[str, Any] = {}
        for key, value in component.capture().items():
            packed, whole = self._pack(value, (name, key))
            blob = self._blob(name, key, value) if whole else _canonical(packed)
            if whole or last.get(key) != blob:
                delta[key] = packed
                last[key] = blob
        return delta

    def apply(self, body: dict) -> None:
        """Fast-forward the world through one replayed unit."""
        self._clock.restore(body["clock"])
        for payload in body.get("faults", ()):
            self._ledger.records.append(FaultRecord.from_dict(payload))
        for payload in body.get("quarantines", ()):
            self._quarantines.records.append(QuarantineRecord.from_dict(payload))
        if self._solver is not None:
            for payload in body.get("solves", ()):
                self._solver.history.append(SolveRecord(**payload))
        for name, delta in body.get("state", {}).items():
            component = self._components.get(name)
            if component is None:
                continue
            values = {key: self._unpack(value, (name, key)) for key, value in delta.items()}
            if component.touched is not None:
                component.restore(values)
                continue
            state = component.capture()
            state.update(values)
            component.restore(state)
            last = self._last[name]
            for key, value in values.items():
                last[key] = self._blob(name, key, value)
        for component in self._components.values():
            if component.touched is not None:
                component.touched()  # the restores' touches are recorded already
        self.begin_unit()


class StageRecorder:
    """Journal cursor for one stage's unit loop: replay a prefix, then record.

    ``try_replay(key)`` consumes the next pending record when its key
    matches the unit about to run; a key mismatch means the journal was
    written by a different configuration, so the rest of the stage's records
    are discarded rather than trusted.
    """

    def __init__(self, journal: WriteAheadJournal, stage: str, tracker: UnitTracker, ledger: FaultLedger) -> None:
        self.journal = journal
        self.stage = stage
        self.tracker = tracker
        self._ledger = ledger
        self._pending = deque(journal.pending(stage))

    def try_replay(self, key: str) -> tuple[bool, dict | None]:
        """Replay the next record if it belongs to ``key``.

        Returns ``(replayed, result_body)``.
        """
        if self._pending and self._pending[0].key == key:
            record = self._pending.popleft()
            self.tracker.apply(record.body)
            self.journal.stats.replayed += 1
            return True, record.body.get("result")
        if self._pending:
            dropped = len(self._pending)
            self._pending.clear()
            self.journal.stats.discarded += dropped
            record_resume_provenance(
                self._ledger,
                f"stage {self.stage}: discarded {dropped} journal record(s) with stale unit keys",
            )
        return False, None

    def begin_unit(self) -> None:
        self.tracker.begin_unit()

    def commit(self, key: str, result: dict | None) -> JournalRecord:
        return self.journal.append(self.stage, key, self.tracker.finish_unit(result))


def record_resume_provenance(ledger: FaultLedger, detail: str) -> None:
    """Note a journal-level event in the fault ledger.

    These records use the reserved stage name ``journal`` and are stripped
    by :func:`repro.core.serialize.comparable_result` — they describe *this
    process's* recovery, not the measurement campaign, so a resumed run must
    not diverge from its golden run by carrying them.
    """
    ledger.record("journal", "<local>", "JournalRecovery", 0.0, detail=detail)


# ---------------------------------------------------------------------------
# Whole-world snapshots (stage boundaries / honeypot stage-complete records)
# ---------------------------------------------------------------------------


def capture_world_state(clock, internet, solver, breakers) -> dict:
    """Absolute snapshot of the mutable simulation state at a stage boundary.

    Platform internals (guilds, snowflakes, join history) are deliberately
    absent: only the honeypot stage mutates them, and that stage replays
    all-or-nothing, so its inputs are always rebuilt from an exact
    pre-honeypot world.  The bounded exchange-log deque is audit-only and
    likewise excluded.
    """
    payload = {
        "clock": clock.now(),
        "internet": internet.state_dict(include_history=True),
        "solver": solver.state_dict(include_history=True),
        "hosts": _hosts_state(internet),
        "breakers": breakers.state_dict(),
    }
    chaos = getattr(internet, "chaos", None)
    if chaos is not None:
        payload["chaos"] = chaos.state_dict()
    return payload


def restore_world_state(clock, internet, solver, breakers, payload: dict) -> None:
    """Restore a :func:`capture_world_state` snapshot (exact, not additive)."""
    clock.restore(payload["clock"])
    internet.restore_state(payload["internet"])
    solver.restore_state(payload["solver"])
    _restore_hosts(internet, payload.get("hosts", {}))
    breakers.restore_state(payload.get("breakers", {}))
    chaos = getattr(internet, "chaos", None)
    if chaos is not None and "chaos" in payload:
        chaos.restore_state(payload["chaos"])


def _hosts_state(internet, hostnames: Iterable[str] | None = None) -> dict:
    """Every registered host's state, or that of ``hostnames`` still registered."""
    states: dict[str, dict] = {}
    for hostname in internet.hostnames() if hostnames is None else hostnames:
        if hostnames is not None and not internet.knows(hostname):
            continue  # a resolver-built host evicted since it was touched
        state = internet.host(hostname).state_dict()
        if state:
            states[hostname] = state
    return states


def _restore_hosts(internet, states: dict) -> None:
    for hostname, state in states.items():
        if internet.knows(hostname):
            internet.host(hostname).restore_state(state)
