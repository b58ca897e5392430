"""Unified durable I/O with seeded storage-fault injection and scrub-on-load recovery.

Every durable artifact the system writes — the pipeline checkpoint, the
write-ahead journal, streamed spill files, the serving verdict-cache
snapshot — used to hand-roll its own write/fsync/rename sequence, and
every one of those sequences silently assumed a *perfect disk*.  The
crash matrix proves the system survives ``SIGKILL``; nothing proved it
survives ``ENOSPC``, ``EIO``, a short write, an fsync that lies, or a
byte that rots after the fact.

This module closes that gap three ways:

1. **One durable-I/O abstraction.**  :func:`atomic_write_json` (the
   write-fsync-rename snapshot protocol) and :class:`DurableAppendFile`
   (the append-fsync log protocol, with a configurable fsync cadence) are
   the only two ways bytes become durable.  All four writers route through
   them, so a durability bug is fixed in exactly one place — enforced by a
   grep lint test that forbids ``os.fsync`` and ``.tmp`` handling outside
   this file.

2. **A seeded fault-injection shim.**  :class:`FaultyIO` sits under both
   primitives and decides, per *site* consultation, whether the operation
   fails and how.  Sites are ``{artifact}.{op}`` names from a static
   registry (:data:`STORAGE_SITES`); faults are either one-shot
   (:class:`OneShotFault`, armable in-process or through the
   ``REPRO_DISK_FAULT`` environment variable, mirroring the crash-point
   harness) or drawn from a seeded :class:`StorageFaultSchedule` profile
   (``--disk-chaos``), mirroring :mod:`repro.web.chaos`.

3. **Scrub-on-load recovery.**  :class:`RecoveryManager` verifies every
   artifact before the pipeline trusts it — checksums, spill references,
   stage round-trips — quarantines what cannot be trusted with
   ``.corrupt`` sidecars, and records every detection and repair in the
   :class:`~repro.core.resilience.FaultLedger` under the reserved stage
   name ``storage`` (stripped by ``comparable_result``, like ``journal``
   provenance).

The contract the disk-fault matrix (``tests/test_disk_fault_matrix.py``)
asserts on top: under any single injected storage fault, a run either
completes byte-identical to its golden or fails with a typed
:class:`StorageError` — never a silently wrong result.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

logger = logging.getLogger(__name__)

#: Environment arming for one-shot faults: ``site:kind`` or ``site:kind:N``
#: (fire on the Nth consultation of the site), mirroring ``REPRO_CRASH_AT``.
ENV_DISK_FAULT = "REPRO_DISK_FAULT"
#: With a path, every *first* consultation of a site appends its name to the
#: file — lets a harness discover which sites a scenario actually exercises.
ENV_DISK_RECORD = "REPRO_DISK_SITES_RECORD"

#: Exit code a driver process reports when a run dies on a typed
#: :class:`StorageError` (distinct from the crash harness's 137).
STORAGE_EXIT_CODE = 82


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------


class StorageError(Exception):
    """Base of every typed durable-storage failure.

    A run that dies on a :class:`StorageError` failed *loudly*: the disk
    refused or corrupted an operation and the system said so, rather than
    continuing with silently wrong artifacts.
    """


class DiskFullError(StorageError, OSError):
    """The device rejected a write for lack of space (``ENOSPC``)."""


class DiskIOError(StorageError, OSError):
    """A write, fsync or rename failed at the I/O layer (``EIO``),
    including short writes and fsyncs later discovered to have lied."""


class ArtifactCorruptionError(StorageError, ValueError):
    """A durable artifact's bytes do not match what was acknowledged."""


# ---------------------------------------------------------------------------
# Site registry
# ---------------------------------------------------------------------------

#: Artifact label -> the durable operations it performs.  ``settle`` is the
#: post-durability window where bit rot can strike an already-synced file.
STORAGE_ARTIFACTS: dict[str, tuple[str, ...]] = {
    "checkpoint": ("write", "fsync", "rename", "settle"),  # pipeline snapshot
    "journal": ("write", "fsync", "settle"),  # write-ahead unit log
    "spill": ("write", "fsync", "settle"),  # streamed accumulators
    "serving.state": ("write", "fsync", "rename", "settle"),  # verdict cache
}

#: Fault kinds each operation can suffer.
FAULT_KINDS_BY_OP: dict[str, tuple[str, ...]] = {
    "write": ("enospc", "short"),
    "fsync": ("eio", "lost"),
    "rename": ("eio", "zero"),
    "settle": ("rot",),
}


def storage_sites() -> tuple[str, ...]:
    """Every ``{artifact}.{op}`` consultation site, registry order."""
    return tuple(
        f"{artifact}.{op}" for artifact, ops in STORAGE_ARTIFACTS.items() for op in ops
    )


STORAGE_SITES = frozenset(storage_sites())


def matrix_cells() -> tuple[tuple[str, str], ...]:
    """Every (site, fault kind) pair the disk-fault matrix must cover."""
    return tuple(
        (f"{artifact}.{op}", kind)
        for artifact, ops in STORAGE_ARTIFACTS.items()
        for op in ops
        for kind in FAULT_KINDS_BY_OP[op]
    )


def _site_op(site: str) -> str:
    return site.rsplit(".", 1)[1]


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneShotFault:
    """Inject ``kind`` on the Nth consultation of ``site``, then go quiet."""

    site: str
    kind: str
    occurrence: int = 1

    def __post_init__(self) -> None:
        if self.site not in STORAGE_SITES:
            raise ValueError(f"unknown storage site: {self.site!r}")
        if self.kind not in FAULT_KINDS_BY_OP[_site_op(self.site)]:
            raise ValueError(f"fault kind {self.kind!r} does not apply to site {self.site!r}")
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based")

    def decide(self, site: str, count: int) -> str | None:
        if site == self.site and count == self.occurrence:
            return self.kind
        return None


@dataclass(frozen=True)
class StorageChaosProfile:
    """Named storage-adversity level.

    Rates are per-consultation injection probabilities for each fault kind,
    drawn deterministically from ``(seed, site, kind, consult count)`` —
    two identical runs suffer byte-identical fault streams, mirroring
    :class:`repro.web.chaos.ChaosProfile`.
    """

    name: str
    enospc_rate: float = 0.0
    short_write_rate: float = 0.0
    fsync_error_rate: float = 0.0
    lost_fsync_rate: float = 0.0
    rename_error_rate: float = 0.0
    rename_zero_rate: float = 0.0
    rot_rate: float = 0.0

    def scaled(self, **overrides) -> "StorageChaosProfile":
        """A copy with fields overridden (for tests tuning one knob)."""
        return replace(self, **overrides)

    def rate(self, kind: str) -> float:
        return {
            "enospc": self.enospc_rate,
            "short": self.short_write_rate,
            "eio": self.fsync_error_rate,  # fsync + rename eio share below
            "lost": self.lost_fsync_rate,
            "zero": self.rename_zero_rate,
            "rot": self.rot_rate,
        }[kind]

    def rate_for(self, site: str, kind: str) -> float:
        if kind == "eio" and _site_op(site) == "rename":
            return self.rename_error_rate
        return self.rate(kind)


#: ``calm`` injects nothing — the composition profile proving the storage
#: layer itself adds no behavioural change to existing scenarios.
STORAGE_PROFILES: dict[str, StorageChaosProfile] = {
    "calm": StorageChaosProfile(name="calm"),
    "scratched": StorageChaosProfile(
        name="scratched", enospc_rate=0.002, fsync_error_rate=0.002, rename_error_rate=0.002
    ),
    "torn": StorageChaosProfile(name="torn", short_write_rate=0.004, lost_fsync_rate=0.004),
    "bitrot": StorageChaosProfile(name="bitrot", rot_rate=0.01),
    "hostile": StorageChaosProfile(
        name="hostile",
        enospc_rate=0.002,
        short_write_rate=0.002,
        fsync_error_rate=0.002,
        lost_fsync_rate=0.002,
        rename_error_rate=0.002,
        rename_zero_rate=0.002,
        rot_rate=0.002,
    ),
}


def resolve_storage_profile(profile: str | StorageChaosProfile) -> StorageChaosProfile:
    if isinstance(profile, StorageChaosProfile):
        return profile
    try:
        return STORAGE_PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(STORAGE_PROFILES))
        raise ValueError(f"unknown disk-chaos profile {profile!r} (known: {known})") from None


class StorageFaultSchedule:
    """Seeded probabilistic fault plan (the ``--disk-chaos`` engine)."""

    def __init__(self, profile: str | StorageChaosProfile = "calm", seed: int = 0) -> None:
        self.profile = resolve_storage_profile(profile)
        self.seed = seed

    def _draw(self, site: str, kind: str, count: int) -> float:
        blob = f"{self.seed}:{site}:{kind}:{count}".encode("utf-8")
        return (zlib.crc32(blob) % 1_000_000) / 1_000_000.0

    def decide(self, site: str, count: int) -> str | None:
        for kind in FAULT_KINDS_BY_OP[_site_op(site)]:
            rate = self.profile.rate_for(site, kind)
            if rate > 0.0 and self._draw(site, kind, count) < rate:
                return kind
        return None


def parse_disk_fault(value: str) -> OneShotFault:
    """Parse a ``site:kind[:N]`` arming string (``REPRO_DISK_FAULT``)."""
    parts = value.split(":")
    if len(parts) == 2:
        return OneShotFault(parts[0], parts[1])
    if len(parts) == 3:
        try:
            occurrence = int(parts[2])
        except ValueError:
            raise ValueError(f"bad disk-fault occurrence in {value!r}") from None
        return OneShotFault(parts[0], parts[1], occurrence)
    raise ValueError(f"bad disk-fault arming string {value!r} (want site:kind[:N])")


# ---------------------------------------------------------------------------
# The shim
# ---------------------------------------------------------------------------


class FaultyIO:
    """Consultation point every durable-I/O primitive passes through.

    Holds one fault *plan* (a :class:`OneShotFault`, a
    :class:`StorageFaultSchedule`, or ``None`` for a perfect disk), a
    per-site consultation counter, and the history of faults injected so
    far.  The primitives below ask :meth:`consult` before/after each
    durable operation and act out whatever kind it returns.
    """

    def __init__(self, plan=None, record_path: str | Path | None = None) -> None:
        self.plan = plan
        self.record_path = Path(record_path) if record_path else None
        self.counts: dict[str, int] = {}
        self.injected: list[tuple[str, str]] = []

    def consult(self, site: str) -> str | None:
        if site not in STORAGE_SITES:
            raise RuntimeError(f"unregistered storage site consulted: {site!r}")
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if count == 1 and self.record_path is not None:
            try:
                with open(self.record_path, "a", encoding="utf-8") as stream:
                    stream.write(site + "\n")
            except OSError:  # recording must never break the run
                logger.warning("could not record storage site %s", site)
        kind = self.plan.decide(site, count) if self.plan is not None else None
        if kind is not None:
            self.injected.append((site, kind))
        return kind


_active: FaultyIO | None = None


def install_faults(plan, record_path: str | Path | None = None) -> FaultyIO:
    """Install a process-global fault plan (replacing any active one)."""
    global _active
    _active = FaultyIO(plan, record_path=record_path)
    return _active


def install_disk_chaos(profile: str | StorageChaosProfile, seed: int = 0) -> FaultyIO:
    """Install a seeded ``--disk-chaos`` schedule for this process."""
    return install_faults(StorageFaultSchedule(profile, seed=seed))


def uninstall_faults() -> None:
    global _active
    _active = None


def active_faults() -> FaultyIO | None:
    """The installed shim, arming one lazily from the environment."""
    global _active
    if _active is None:
        armed = os.environ.get(ENV_DISK_FAULT, "")
        record = os.environ.get(ENV_DISK_RECORD, "")
        if armed or record:
            _active = FaultyIO(parse_disk_fault(armed) if armed else None, record_path=record or None)
    return _active


def _consult(site: str) -> str | None:
    shim = active_faults()
    return shim.consult(site) if shim is not None else None


# ---------------------------------------------------------------------------
# Corruption helpers
# ---------------------------------------------------------------------------


def _flip_byte(path: Path, site: str, lo: int, hi: int) -> None:
    """Flip one seeded byte of ``path`` within ``[lo, hi)`` — bit rot."""
    if hi <= lo:
        return
    offset = lo + zlib.crc32(f"{site}:{lo}:{hi}".encode("utf-8")) % (hi - lo)
    try:
        with open(path, "r+b") as handle:
            handle.seek(offset)
            original = handle.read(1)
            if not original:
                return
            handle.seek(offset)
            handle.write(bytes([original[0] ^ 0xFF]))
    except OSError:  # injected rot failing is just less rot
        logger.warning("could not inject bit rot into %s", path)


def payload_checksum(payload: dict) -> str:
    """sha256 of the canonical JSON form of ``payload`` minus ``checksum``."""
    scrubbed = {key: value for key, value in payload.items() if key != "checksum"}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stale_tmp_path(path: str | Path) -> Path:
    """The ``.tmp`` sidecar an interrupted :func:`atomic_write_json` leaves."""
    target = Path(path)
    return target.with_suffix(target.suffix + ".tmp")


def discard_stale_tmp(path: str | Path) -> None:
    """Clear a stale write sidecar; it is never authoritative."""
    stale = stale_tmp_path(path)
    if stale.exists():
        try:
            stale.unlink()
        except OSError:
            logger.warning("could not remove stale write sidecar %s", stale)


def quarantine_artifact(path: str | Path) -> Path | None:
    """Sideline a damaged artifact to ``<name>.corrupt`` for post-mortem."""
    target = Path(path)
    sidecar = target.with_name(target.name + ".corrupt")
    try:
        target.replace(sidecar)
    except OSError:
        logger.warning("could not quarantine corrupt artifact %s", target)
        return None
    return sidecar


# ---------------------------------------------------------------------------
# Durable primitives
# ---------------------------------------------------------------------------


def atomic_write_json(
    path: str | Path,
    payload: Any,
    *,
    label: str,
    serializer: Callable[[Any], str] | None = None,
    crash_hook: Callable[[], None] | None = None,
) -> Path:
    """Write ``payload`` as JSON with the write-fsync-rename protocol.

    The document lands in ``<path>.tmp`` first, is flushed and fsynced,
    and only then renamed over ``path`` — so a crash (or injected fault)
    mid-save never damages the previous version.  ``crash_hook`` runs
    between the fsync and the rename, exactly where the kill harness's
    ``checkpoint.after_tmp_write`` crash point used to live.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = serializer(payload) if serializer is not None else json.dumps(payload)
    data = text.encode("utf-8")
    temporary = stale_tmp_path(target)
    lost = False
    with open(temporary, "wb") as stream:
        kind = _consult(f"{label}.write")
        if kind == "enospc":
            raise DiskFullError(f"{label}: no space left on device writing {temporary}")
        if kind == "short":
            head = data[: len(data) // 2]
            stream.write(head)
            stream.flush()
            raise DiskIOError(f"{label}: short write ({len(head)}/{len(data)} bytes) to {temporary}")
        stream.write(data)
        stream.flush()
        kind = _consult(f"{label}.fsync")
        if kind == "eio":
            raise DiskIOError(f"{label}: fsync failed on {temporary}")
        if kind == "lost":
            lost = True  # the fsync lied: the data never reaches media
        else:
            os.fsync(stream.fileno())
    if crash_hook is not None:
        crash_hook()
    kind = _consult(f"{label}.rename")
    if kind == "eio":
        raise DiskIOError(f"{label}: rename {temporary} -> {target} failed")
    temporary.replace(target)
    if kind == "zero" or lost:
        # Rename-without-durability: the directory entry landed but the
        # data blocks never did — the published file reads back empty.
        try:
            with open(target, "r+b") as handle:
                handle.truncate(0)
        except OSError:
            logger.warning("could not model lost data blocks for %s", target)
    if _consult(f"{label}.settle") == "rot":
        _flip_byte(target, f"{label}.settle", 0, len(data))
    return target


class DurableAppendFile:
    """Append-only log file with explicit durability accounting.

    ``write`` appends bytes, ``commit`` marks one *record* complete and
    fsyncs per the configured cadence, ``sync`` forces durability now.

    ``fsync_every=1`` (the default) makes every committed record durable
    before ``commit`` returns; ``fsync_every=N`` batches — a crash can then
    lose up to ``N-1`` acknowledged records off the tail, which consumers
    must treat as a (wider) torn tail; ``fsync_every=0`` leaves durability
    entirely to explicit ``sync`` calls (the spill-file mode, where the
    checkpoint reference is the acknowledgement point).

    Durability is *verified*, not assumed: every successful fsync compares
    the file's size against the bytes acknowledged through this handle and
    raises :class:`DiskIOError` when an earlier fsync turns out to have
    lied (the ``lost`` fault kind models exactly that lie).
    """

    def __init__(self, path: str | Path, *, label: str, fsync_every: int = 1) -> None:
        self.path = Path(path)
        self.label = label
        self.fsync_every = max(0, int(fsync_every))
        self._handle = None
        self._pending = 0  # records committed since the last sync
        self._expected = 0  # bytes acknowledged through this handle
        self._durable = 0  # bytes verified on media

    # -- lifecycle ---------------------------------------------------------

    def _stream(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
            size = os.fstat(self._handle.fileno()).st_size
            self._expected = size
            self._durable = size
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def truncate_to(self, offset: int) -> None:
        """Drop bytes past ``offset`` (torn-tail cleanup before appending)."""
        if not self.path.exists():
            return
        if self._handle is not None:
            self._handle.flush()
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
        if self._handle is not None:
            self._expected = min(self._expected, offset)
            self._durable = min(self._durable, offset)

    # -- writing -----------------------------------------------------------

    def write(self, data: bytes) -> None:
        stream = self._stream()
        kind = _consult(f"{self.label}.write")
        if kind == "enospc":
            raise DiskFullError(f"{self.label}: no space left on device appending to {self.path}")
        if kind == "short":
            head = data[: max(1, len(data) // 2)]
            stream.write(head)
            stream.flush()
            self._expected += len(head)
            raise DiskIOError(f"{self.label}: short write ({len(head)}/{len(data)} bytes) to {self.path}")
        stream.write(data)
        self._expected += len(data)

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def commit(self) -> None:
        """One record is complete; make it durable per the cadence."""
        self._pending += 1
        if self.fsync_every and self._pending >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Force (and verify) durability of everything written so far."""
        if self._handle is None:
            return
        self._handle.flush()
        if self._expected == self._durable:
            self._pending = 0
            return
        kind = _consult(f"{self.label}.fsync")
        if kind == "eio":
            raise DiskIOError(f"{self.label}: fsync failed on {self.path}")
        if kind == "lost":
            # A lying fsync: success is reported but the unsynced tail
            # never reaches media.  Model the loss immediately — O_APPEND
            # keeps later appends consistent with a device that dropped
            # its cache, and the *next* verified fsync detects the gap.
            try:
                with open(self.path, "r+b") as raw:
                    raw.truncate(self._durable)
            except OSError:
                logger.warning("could not model lost fsync for %s", self.path)
            self._pending = 0
            return
        os.fsync(self._handle.fileno())
        actual = os.fstat(self._handle.fileno()).st_size
        if actual != self._expected:
            raise DiskIOError(
                f"{self.label}: {self.path} holds {actual} bytes after fsync, expected "
                f"{self._expected} — an earlier acknowledged fsync lost data"
            )
        previous, self._durable = self._durable, actual
        self._pending = 0
        if _consult(f"{self.label}.settle") == "rot":
            _flip_byte(self.path, f"{self.label}.settle", previous, actual)


# ---------------------------------------------------------------------------
# Scrub-on-load recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScrubAction:
    """One detection/repair the recovery pass performed."""

    artifact: str
    path: str
    problem: str
    action: str


_CHECKPOINT_RESET = "checkpoint reset — campaign redone from scratch (journal replay repairs what it can)"


class RecoveryManager:
    """Verify durable artifacts before a process trusts them.

    Detections and repairs are recorded in the supplied
    :class:`~repro.core.resilience.FaultLedger` under the reserved stage
    name ``storage`` (process provenance — stripped from comparable
    results), and kept in :attr:`actions` for direct inspection.
    """

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        self.actions: list[ScrubAction] = []

    def note(self, artifact: str, path: str | Path, problem: str, action: str) -> None:
        entry = ScrubAction(artifact=artifact, path=str(path), problem=problem, action=action)
        self.actions.append(entry)
        if self.ledger is not None:
            self.ledger.record(
                "storage",
                "<local>",
                "StorageScrub",
                0.0,
                detail=f"{artifact} {entry.path}: {problem}; {action}",
            )
        logger.warning("storage scrub: %s %s: %s; %s", artifact, path, problem, action)

    def _quarantine(self, artifact: str, path: Path, problem: str, consequence: str) -> None:
        """Sideline a damaged artifact whole to ``.corrupt`` and note it."""
        sidecar = quarantine_artifact(path)
        where = f"quarantined to {sidecar.name}" if sidecar is not None else "left in place"
        self.note(artifact, path, problem, f"{where}; {consequence}")

    # -- pipeline checkpoint ----------------------------------------------

    def scrub_pipeline_checkpoint(self, path: str | Path):
        """Load the pipeline checkpoint, trusting it only if *whole*.

        A resumed run must be **byte-identical** to an uninterrupted one, so
        the checkpoint is all-or-nothing:

        - a file that does not load (unreadable, torn, checksum mismatch,
          unknown version) is quarantined whole to ``<name>.corrupt`` —
          none of its stages, ledger or quarantine records are trusted;
        - every stored stage payload must round-trip into real objects
          (spill references verified against the files on disk);
        - stages may only be trusted together with the world snapshot
          taken at the same boundary — stages without a world (or a
          damaged stage between intact ones) would replay the campaign
          from inconsistent state.

        Any violation resets to an empty checkpoint: the run redoes the
        campaign from scratch, replaying the write-ahead journal where one
        exists — the WAL, not the snapshot, is the finest-grained durable
        record, so "redo with replay" converges on the golden result while
        a partially trusted snapshot would silently diverge from it.
        Damaged spill files are quarantined with ``.corrupt`` sidecars.
        """
        from repro.core.checkpoint import PipelineCheckpoint

        target = Path(path)
        discard_stale_tmp(target)
        if not target.exists():
            return PipelineCheckpoint()
        try:
            checkpoint = PipelineCheckpoint.load(target)
        except (OSError, ValueError) as error:
            self._quarantine("checkpoint", target, f"unloadable: {error}", _CHECKPOINT_RESET)
            return PipelineCheckpoint()
        if not checkpoint.stages:
            return checkpoint
        damaged: list[tuple[str, str]] = []
        for stage in list(checkpoint.stages):
            entry = checkpoint.stages[stage]
            if not PipelineCheckpoint._stage_round_trips(stage, entry):
                damaged.append((stage, "stage payload failed its restore probe"))
                self._quarantine_stage_spills(entry)
        if not checkpoint.world_state:
            damaged.append(("world", "stage payloads present without a world snapshot"))
        if not damaged:
            return checkpoint
        problems = "; ".join(f"{stage}: {why}" for stage, why in damaged)
        self.note("checkpoint", target, problems, _CHECKPOINT_RESET)
        return PipelineCheckpoint()

    @staticmethod
    def _stage_spill_paths(entry: dict) -> list[Path]:
        paths = []
        for value in entry.values():
            if isinstance(value, dict) and "sha256" in value and "path" in value:
                paths.append(Path(value["path"]))
        return paths

    def _quarantine_stage_spills(self, entry: dict) -> None:
        for spill_path in self._stage_spill_paths(entry):
            if spill_path.exists():
                sidecar = quarantine_artifact(spill_path)
                if sidecar is not None:
                    self.note("spill", spill_path, "referenced by a damaged stage", f"quarantined to {sidecar.name}")

    # -- checksum-carrying JSON artifacts ---------------------------------

    def scrub_json_artifact(self, path: str | Path, *, artifact: str) -> dict | None:
        """Load an atomic-JSON artifact, verifying its embedded checksum.

        Returns the payload dict, or ``None`` (after quarantining the file
        and recording the detection) when the artifact is missing integrity
        — the caller rebuilds cold instead of trusting damaged state.
        """
        target = Path(path)
        discard_stale_tmp(target)
        if not target.exists():
            return None
        problem = ""
        payload: Any = None
        try:
            payload = json.loads(target.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            problem = f"unreadable: {error}"
        if not problem and not isinstance(payload, dict):
            problem = "payload is not a JSON object"
        if not problem:
            stored = payload.get("checksum")
            if stored and stored != payload_checksum(payload):
                problem = "checksum mismatch: file corrupted on disk"
        if not problem:
            return payload
        self._quarantine(artifact, target, problem, "rebuilding cold")
        return None
