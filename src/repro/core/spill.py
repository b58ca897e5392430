"""Disk-spilled accumulators for streamed runs.

A streamed pipeline walks the population in fixed-size chunks, but the
stages still *produce* one record per bot (scraped listings, traceability
verdicts, repo analyses).  Left in plain lists those records would grow
linearly with ``n_bots`` and defeat the point of streaming, so streamed
runs accumulate them in a :class:`SpillList`: an append-only JSONL file
beside the checkpoint, holding nothing in RAM but the file handle and a
running count.

The codec pair is supplied by the caller (the same ``*_to_dict`` /
``*_from_dict`` functions the checkpoint layer uses), so a spilled record
round-trips byte-identically with its checkpointed form.  Iteration
re-reads the file in append order; sequential consumers therefore see
exactly the list they would have seen materialized.

Durability contract: appends ride through a
:class:`~repro.core.storage.DurableAppendFile` in explicit-sync mode —
the hot path never fsyncs (a spill is scratch until referenced), and
:meth:`SpillList.reference` is the acknowledgement point: it syncs the
file to media, verifies the on-disk record count against the in-memory
one, and only then hashes the bytes for the checkpoint's
``{path, count, sha256}`` reference.  Reads are verified too: a record
that fails to decode, or a file that runs out before ``count`` records,
raises a typed :class:`~repro.core.storage.ArtifactCorruptionError`
instead of silently yielding a short or garbled sequence.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.storage import ArtifactCorruptionError, DurableAppendFile


class SpillList:
    """Append-only, JSONL-backed sequence of codec-serializable records.

    Supports the accumulator subset of the list protocol — ``append``,
    ``extend``, ``len``, iteration, and positive indexing — which is all
    the pipeline's stage loops and mergers use.  Records are written
    through ``encode`` on append and revived through ``decode`` on read;
    only the open file handle and the count stay resident.
    """

    def __init__(
        self,
        path: str | Path,
        encode: Callable[[Any], dict] = lambda item: item,
        decode: Callable[[dict], Any] = lambda payload: payload,
        *,
        restore: bool = False,
    ) -> None:
        self.path = Path(path)
        self._encode = encode
        self._decode = decode
        self._file = DurableAppendFile(self.path, label="spill", fsync_every=0)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if restore and self.path.exists():
            # Salvage the maximal valid prefix: count only complete,
            # parseable lines and truncate whatever torn tail follows, so
            # later appends extend a clean log.
            self._count, valid_bytes = self._scan_valid_prefix()
            self._file.truncate_to(valid_bytes)
        else:
            # A fresh accumulator truncates any stale spill from a previous
            # attempt: stage loops restart from their journal, not from the
            # spill, so leftovers would double-count.
            self.path.write_text("")
            self._count = 0

    def _scan_valid_prefix(self) -> tuple[int, int]:
        raw = self.path.read_bytes()
        count = 0
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # unterminated line: a torn append — stop here
            line = raw[offset:newline].strip()
            if line:
                try:
                    json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    break
                count += 1
            offset = newline + 1
        return count, offset

    # -- writing -----------------------------------------------------------

    def append(self, item: Any) -> None:
        payload = json.dumps(self._encode(item), sort_keys=True, separators=(",", ":"))
        self._file.write((payload + "\n").encode("utf-8"))
        self._file.commit()
        self._count += 1

    def extend(self, items: Iterable[Any]) -> None:
        for item in items:
            self.append(item)

    def flush(self) -> None:
        self._file.flush()

    def sync(self) -> None:
        """Force (and verify) durability of every appended record."""
        self._file.sync()

    def close(self) -> None:
        self._file.close()

    def reference(self) -> dict:
        """The checkpoint reference: ``{path, count, sha256}``, verified.

        Syncs the file to media first, then recounts the on-disk records
        while hashing — a reference may only ever describe bytes that
        actually landed, so a lying fsync (or any other lost tail) is
        detected *here*, before a checkpoint acknowledges the data.
        """
        self.sync()
        data = self.path.read_bytes() if self.path.exists() else b""
        on_disk = sum(1 for piece in data.split(b"\n") if piece.strip())
        if on_disk != self._count:
            raise ArtifactCorruptionError(
                f"spill {self.path} holds {on_disk} records on disk, {self._count} were acknowledged"
            )
        return {
            "path": str(self.path),
            "count": self._count,
            "sha256": hashlib.sha256(data).hexdigest(),
        }

    # -- reading -----------------------------------------------------------

    def _lines(self) -> Iterator[str]:
        self.flush()
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield line

    def _guarded_lines(self) -> Iterator[str]:
        """Like ``_lines`` but a rotten byte raises typed, not raw.

        Bit rot lands inside already-synced records, so the read itself can
        die mid-file on invalid UTF-8 — that is corruption of acknowledged
        data and must surface through the typed contract.
        """
        try:
            yield from self._lines()
        except UnicodeDecodeError as error:
            raise ArtifactCorruptionError(f"spill {self.path} is damaged: {error}") from error

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[Any]:
        yielded = 0
        for line in self._guarded_lines():
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ArtifactCorruptionError(f"spill {self.path} is damaged: {error}") from error
            try:
                item = self._decode(payload)
            except Exception as error:
                raise ArtifactCorruptionError(
                    f"spill {self.path} record failed to decode: {error!r}"
                ) from error
            yield item
            yielded += 1
        if yielded < self._count:
            # The file lost acknowledged records (e.g. a lying fsync whose
            # gap was modeled after the records were counted): loud, typed.
            raise ArtifactCorruptionError(
                f"spill {self.path} yielded {yielded} records, {self._count} were acknowledged"
            )

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._count)
            if step != 1:
                raise ValueError("SpillList slices must be contiguous")
            out = []
            for position, item in enumerate(self):
                if position >= stop:
                    break
                if position >= start:
                    out.append(item)
            return out
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        for position, item in enumerate(self):
            if position == index:
                return item
        raise IndexError(index)  # pragma: no cover - count/file disagreement


def spill_dir_for(checkpoint_path: str | Path | None) -> Path:
    """Directory streamed accumulators spill into.

    Beside the checkpoint when one is configured (so a resumed process
    finds the same files), otherwise a fresh ``repro-spill-*`` temp
    directory on every call: a new spill truncates its file, so two runs
    sharing a directory would destroy each other's results.  Callers keep
    the returned directory for the whole run.
    """
    if checkpoint_path is None:
        return Path(tempfile.mkdtemp(prefix="repro-spill-"))
    directory = Path(f"{checkpoint_path}.spill")
    directory.mkdir(parents=True, exist_ok=True)
    return directory
