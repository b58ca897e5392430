"""Unit tests for the unified durable-storage layer.

Covers the primitives (`atomic_write_json`, `DurableAppendFile`), the
fault-injection shim (one-shot faults, seeded schedules, env arming), the
scrub-on-load recovery manager, the persisted serving state, and the
single-implementation lint: no durability syscalls outside
``repro/core/storage.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.resilience import FaultLedger
from repro.core.storage import (
    ENV_DISK_FAULT,
    ENV_DISK_RECORD,
    FAULT_KINDS_BY_OP,
    STORAGE_ARTIFACTS,
    STORAGE_PROFILES,
    STORAGE_SITES,
    ArtifactCorruptionError,
    DiskFullError,
    DiskIOError,
    DurableAppendFile,
    FaultyIO,
    OneShotFault,
    RecoveryManager,
    StorageError,
    StorageFaultSchedule,
    active_faults,
    atomic_write_json,
    install_disk_chaos,
    install_faults,
    matrix_cells,
    parse_disk_fault,
    payload_checksum,
    quarantine_artifact,
    resolve_storage_profile,
    stale_tmp_path,
    storage_sites,
    uninstall_faults,
)


# -- registry ----------------------------------------------------------------


def test_site_registry_is_complete():
    sites = storage_sites()
    assert len(sites) == len(set(sites)) == sum(len(ops) for ops in STORAGE_ARTIFACTS.values())
    assert STORAGE_SITES == frozenset(sites)
    for artifact, ops in STORAGE_ARTIFACTS.items():
        for op in ops:
            assert f"{artifact}.{op}" in STORAGE_SITES
            assert FAULT_KINDS_BY_OP[op]


def test_matrix_cells_cover_every_site_and_kind():
    cells = matrix_cells()
    assert len(cells) == len(set(cells))
    for site, kind in cells:
        assert site in STORAGE_SITES
        op = site.rsplit(".", 1)[1]
        assert kind in FAULT_KINDS_BY_OP[op]
    # Every site appears with every kind its op allows.
    by_site: dict[str, set[str]] = {}
    for site, kind in cells:
        by_site.setdefault(site, set()).add(kind)
    for site, kinds in by_site.items():
        assert kinds == set(FAULT_KINDS_BY_OP[site.rsplit(".", 1)[1]])


def test_one_shot_fault_validation():
    with pytest.raises(ValueError, match="unknown storage site"):
        OneShotFault("nosuch.write", "enospc")
    with pytest.raises(ValueError, match="does not apply"):
        OneShotFault("journal.write", "rot")
    with pytest.raises(ValueError, match="1-based"):
        OneShotFault("journal.write", "enospc", occurrence=0)
    fault = OneShotFault("journal.write", "enospc", occurrence=3)
    assert fault.decide("journal.write", 2) is None
    assert fault.decide("journal.write", 3) == "enospc"
    assert fault.decide("journal.write", 4) is None
    assert fault.decide("spill.write", 3) is None


def test_parse_disk_fault():
    fault = parse_disk_fault("checkpoint.rename:zero")
    assert (fault.site, fault.kind, fault.occurrence) == ("checkpoint.rename", "zero", 1)
    fault = parse_disk_fault("journal.fsync:lost:7")
    assert fault.occurrence == 7
    with pytest.raises(ValueError):
        parse_disk_fault("journal.fsync")
    with pytest.raises(ValueError):
        parse_disk_fault("journal.fsync:lost:x")


# -- profiles and schedules --------------------------------------------------


def test_profiles_resolve_and_calm_is_silent():
    assert resolve_storage_profile("hostile").name == "hostile"
    profile = resolve_storage_profile(STORAGE_PROFILES["torn"])
    assert profile is STORAGE_PROFILES["torn"]
    with pytest.raises(ValueError, match="unknown disk-chaos profile"):
        resolve_storage_profile("raid0")
    calm = StorageFaultSchedule("calm", seed=1)
    for site in storage_sites():
        assert all(calm.decide(site, count) is None for count in range(1, 50))


def test_schedule_is_seed_deterministic():
    first = StorageFaultSchedule("hostile", seed=11)
    second = StorageFaultSchedule("hostile", seed=11)
    other = StorageFaultSchedule("hostile", seed=12)
    decisions = [first.decide("journal.fsync", count) for count in range(1, 2_000)]
    assert decisions == [second.decide("journal.fsync", count) for count in range(1, 2_000)]
    assert any(kind is not None for kind in decisions)  # hostile actually bites
    assert decisions != [other.decide("journal.fsync", count) for count in range(1, 2_000)]


def test_profile_scaled_overrides_one_knob():
    quiet = STORAGE_PROFILES["hostile"].scaled(rot_rate=0.0)
    assert quiet.rot_rate == 0.0
    assert quiet.enospc_rate == STORAGE_PROFILES["hostile"].enospc_rate


# -- the shim ----------------------------------------------------------------


def test_faulty_io_rejects_unregistered_sites():
    shim = FaultyIO()
    with pytest.raises(RuntimeError, match="unregistered storage site"):
        shim.consult("checkpoint.compress")


def test_faulty_io_records_first_consult_per_site(tmp_path):
    record = tmp_path / "sites.txt"
    shim = install_faults(None, record_path=record)
    shim.consult("journal.write")
    shim.consult("journal.write")
    shim.consult("spill.fsync")
    assert record.read_text().splitlines() == ["journal.write", "spill.fsync"]


def test_env_arming_mirrors_crashpoints(tmp_path, monkeypatch):
    record = tmp_path / "consulted.txt"
    monkeypatch.setenv(ENV_DISK_FAULT, "checkpoint.write:enospc:2")
    monkeypatch.setenv(ENV_DISK_RECORD, str(record))
    uninstall_faults()
    shim = active_faults()
    assert shim is not None
    assert shim.consult("checkpoint.write") is None
    assert shim.consult("checkpoint.write") == "enospc"
    assert shim.injected == [("checkpoint.write", "enospc")]
    assert record.read_text().splitlines() == ["checkpoint.write"]


def test_install_disk_chaos_replaces_active_plan():
    shim = install_disk_chaos("bitrot", seed=3)
    assert active_faults() is shim
    assert isinstance(shim.plan, StorageFaultSchedule)
    uninstall_faults()
    assert active_faults() is None


# -- atomic_write_json -------------------------------------------------------


def test_atomic_write_happy_path(tmp_path):
    target = tmp_path / "doc.json"
    atomic_write_json(target, {"a": 1}, label="checkpoint")
    assert json.loads(target.read_text()) == {"a": 1}
    assert not stale_tmp_path(target).exists()


@pytest.mark.parametrize(
    "site,kind,expected",
    [
        ("checkpoint.write", "enospc", DiskFullError),
        ("checkpoint.write", "short", DiskIOError),
        ("checkpoint.fsync", "eio", DiskIOError),
        ("checkpoint.rename", "eio", DiskIOError),
    ],
)
def test_atomic_write_faults_preserve_previous_version(tmp_path, site, kind, expected):
    target = tmp_path / "doc.json"
    atomic_write_json(target, {"generation": 1}, label="checkpoint")
    install_faults(OneShotFault(site, kind))
    with pytest.raises(expected):
        atomic_write_json(target, {"generation": 2}, label="checkpoint")
    # Typed failure, and the previous version still reads back intact.
    assert json.loads(target.read_text()) == {"generation": 1}


def test_atomic_write_lost_fsync_publishes_empty_file(tmp_path):
    target = tmp_path / "doc.json"
    install_faults(OneShotFault("checkpoint.fsync", "lost"))
    atomic_write_json(target, {"generation": 1}, label="checkpoint")
    # The rename landed but the data blocks never did.
    assert target.read_bytes() == b""


def test_atomic_write_rot_breaks_the_checksum(tmp_path):
    target = tmp_path / "state.json"
    payload = {"version": 1, "checksum": "", "state": {"x": 2}}
    payload["checksum"] = payload_checksum(payload)
    install_faults(OneShotFault("serving.state.settle", "rot"))
    atomic_write_json(target, payload, label="serving.state")
    scrubber = RecoveryManager()
    assert scrubber.scrub_json_artifact(target, artifact="serving.state") is None
    assert scrubber.actions and not target.exists()
    assert target.with_name(target.name + ".corrupt").exists()


def test_atomic_write_crash_hook_runs_between_fsync_and_rename(tmp_path):
    target = tmp_path / "doc.json"
    seen = {}

    def hook():
        seen["tmp"] = stale_tmp_path(target).exists()
        seen["target"] = target.exists()

    atomic_write_json(target, {"a": 1}, label="checkpoint", crash_hook=hook)
    assert seen == {"tmp": True, "target": False}


# -- DurableAppendFile -------------------------------------------------------


def test_append_file_fsync_every_record(tmp_path):
    log = DurableAppendFile(tmp_path / "log", label="journal", fsync_every=1)
    log.write(b"one\n")
    log.commit()
    log.write(b"two\n")
    log.commit()
    log.close()
    assert (tmp_path / "log").read_bytes() == b"one\ntwo\n"


def test_append_file_batched_cadence_syncs_on_the_nth_commit(tmp_path):
    consults = []
    original = StorageFaultSchedule("calm")
    shim = install_faults(original)
    log = DurableAppendFile(tmp_path / "log", label="journal", fsync_every=3)
    for record in (b"a\n", b"b\n", b"c\n", b"d\n"):
        log.write(record)
        log.commit()
    consults = shim.counts.get("journal.fsync", 0)
    # 4 commits at cadence 3 = exactly one fsync consultation.
    assert consults == 1
    log.sync()
    assert shim.counts["journal.fsync"] == 2
    log.close()


def test_append_file_short_write_is_typed_and_truncatable(tmp_path):
    path = tmp_path / "log"
    log = DurableAppendFile(path, label="spill", fsync_every=0)
    log.write(b'{"n": 1}\n')
    log.sync()
    install_faults(OneShotFault("spill.write", "short"))
    with pytest.raises(DiskIOError, match="short write"):
        log.write(b'{"n": 2}\n')
    log.close()
    # The torn tail is on disk; a restorer truncates back to the valid prefix.
    assert path.read_bytes().startswith(b'{"n": 1}\n')
    assert path.stat().st_size > len(b'{"n": 1}\n')
    fresh = DurableAppendFile(path, label="spill", fsync_every=0)
    fresh.truncate_to(len(b'{"n": 1}\n'))
    fresh.close()
    assert path.read_bytes() == b'{"n": 1}\n'


def test_append_file_lying_fsync_detected_on_next_sync(tmp_path):
    path = tmp_path / "log"
    log = DurableAppendFile(path, label="journal", fsync_every=1)
    log.write(b"first\n")
    log.commit()
    install_faults(OneShotFault("journal.fsync", "lost"))
    log.write(b"second\n")
    log.commit()  # the lying fsync: reports success, drops the record
    assert path.read_bytes() == b"first\n"
    log.write(b"third\n")
    with pytest.raises(DiskIOError, match="lost data"):
        log.commit()
    log.close()


def test_append_file_resumes_size_accounting_across_reopen(tmp_path):
    path = tmp_path / "log"
    first = DurableAppendFile(path, label="journal")
    first.write(b"a\n")
    first.commit()
    first.close()
    second = DurableAppendFile(path, label="journal")
    second.write(b"b\n")
    second.commit()
    second.close()
    assert path.read_bytes() == b"a\nb\n"


# -- checksum + scrub --------------------------------------------------------


def test_payload_checksum_ignores_the_checksum_field():
    body = {"x": 1, "y": [1, 2]}
    with_field = dict(body, checksum="anything")
    assert payload_checksum(body) == payload_checksum(with_field)
    assert payload_checksum(body) != payload_checksum({"x": 2, "y": [1, 2]})


def test_scrub_json_artifact_passes_intact_payloads(tmp_path):
    target = tmp_path / "state.json"
    payload = {"version": 1, "checksum": "", "state": {"k": "v"}}
    payload["checksum"] = payload_checksum(payload)
    atomic_write_json(target, payload, label="serving.state")
    scrubber = RecoveryManager()
    assert scrubber.scrub_json_artifact(target, artifact="serving.state") == payload
    assert scrubber.actions == []


def test_scrub_json_artifact_quarantines_damage_and_records_it(tmp_path):
    target = tmp_path / "state.json"
    payload = {"version": 1, "checksum": "", "state": {"k": "v"}}
    payload["checksum"] = payload_checksum(payload)
    target.write_text(json.dumps(payload)[:-5])  # torn mid-document
    ledger = FaultLedger()
    scrubber = RecoveryManager(ledger)
    assert scrubber.scrub_json_artifact(target, artifact="serving.state") is None
    assert not target.exists()
    assert target.with_name(target.name + ".corrupt").exists()
    assert ledger.records and ledger.records[0].stage == "storage"


def test_scrub_json_artifact_discards_stale_tmp(tmp_path):
    target = tmp_path / "state.json"
    stale_tmp_path(target).write_text("half a document")
    assert RecoveryManager().scrub_json_artifact(target, artifact="serving.state") is None
    assert not stale_tmp_path(target).exists()


def test_quarantine_artifact_sidelines_for_postmortem(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("garbage")
    sidecar = quarantine_artifact(target)
    assert sidecar == tmp_path / "broken.json.corrupt"
    assert sidecar.read_text() == "garbage"
    assert not target.exists()


def test_scrub_pipeline_checkpoint_resets_on_damaged_stage(tmp_path):
    from repro.core.checkpoint import PipelineCheckpoint

    path = tmp_path / "pipeline.ckpt"
    checkpoint = PipelineCheckpoint()
    # A stage payload that cannot round-trip (missing required fields).
    checkpoint.stages["honeypot"] = {"report": {"outcomes": "not-a-list"}}
    checkpoint.world_state = {"main": {}}
    checkpoint.save(path)
    ledger = FaultLedger()
    scrubbed = RecoveryManager(ledger).scrub_pipeline_checkpoint(path)
    assert scrubbed.stages == {}
    assert any(record.stage == "storage" for record in ledger.records)


def test_scrub_pipeline_checkpoint_requires_a_world_snapshot(tmp_path):
    from repro.core.checkpoint import PipelineCheckpoint
    from repro.honeypot.experiment import HoneypotReport

    path = tmp_path / "pipeline.ckpt"
    checkpoint = PipelineCheckpoint()
    checkpoint.store_honeypot(
        HoneypotReport(outcomes=[], triggers=[], manual_verifications=0, install_failures=0, captcha_cost=0.0)
    )
    checkpoint.save(path)  # stage present, world_state absent
    scrubbed = RecoveryManager().scrub_pipeline_checkpoint(path)
    assert scrubbed.stages == {}


def test_scrub_pipeline_checkpoint_trusts_a_whole_artifact_set(tmp_path):
    from repro.core.checkpoint import PipelineCheckpoint
    from repro.honeypot.experiment import HoneypotReport

    path = tmp_path / "pipeline.ckpt"
    checkpoint = PipelineCheckpoint()
    checkpoint.store_honeypot(
        HoneypotReport(outcomes=[], triggers=[], manual_verifications=0, install_failures=0, captcha_cost=0.0)
    )
    checkpoint.world_state = {"main": {"clock": 0.0}}
    checkpoint.save(path)
    scrubber = RecoveryManager()
    scrubbed = scrubber.scrub_pipeline_checkpoint(path)
    assert scrubbed.completed_stages == ["honeypot"]
    assert scrubber.actions == []


# -- typed error contract ----------------------------------------------------


def test_error_taxonomy_keeps_legacy_catches_working():
    from repro.core.checkpoint import CheckpointCorruptionError as PipelineCorruption

    assert issubclass(DiskFullError, OSError)
    assert issubclass(DiskIOError, OSError)
    assert issubclass(ArtifactCorruptionError, ValueError)
    for error in (DiskFullError, DiskIOError, ArtifactCorruptionError, PipelineCorruption):
        assert issubclass(error, StorageError)
    # The scrub's `except (OSError, ValueError)` catches checkpoint corruption.
    assert issubclass(PipelineCorruption, ValueError)


# -- serving state persistence -----------------------------------------------


def _service(internet, state_path, bots=None):
    from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
    from repro.serving.service import ServicePolicy, VettingService

    population = bots if bots is not None else generate_ecosystem(
        EcosystemConfig(n_bots=12, seed=5)
    ).bots
    return VettingService(
        internet,
        population,
        policy=ServicePolicy(warmup=0.0),
        seed=5,
        state_path=state_path,
    ), population


def test_serving_state_round_trips_through_disk(internet, tmp_path):
    state = tmp_path / "gate.state"
    service, bots = _service(internet, state)
    verdict = {"bot": bots[0].name, "verdict": "approved"}
    service.cache.store(bots[0], verdict, now=internet.clock.now())
    service.shutdown()  # persists
    assert state.exists()
    reborn, _ = _service(internet, state, bots=bots)
    entry = reborn.cache.entries[bots[0].name]
    assert entry.payload == verdict
    assert not reborn.ledger.records  # clean load, nothing scrubbed


def test_serving_state_corruption_means_cold_start(internet, tmp_path):
    state = tmp_path / "gate.state"
    service, bots = _service(internet, state)
    service.cache.store(bots[0], {"verdict": "approved"}, now=internet.clock.now())
    service.shutdown()
    blob = bytearray(state.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    state.write_bytes(bytes(blob))
    reborn, _ = _service(internet, state, bots=bots)
    assert len(reborn.cache.entries) == 0
    assert state.with_name(state.name + ".corrupt").exists()
    assert any(record.stage == "storage" for record in reborn.ledger.records)


def test_serving_state_version_skew_means_cold_start(internet, tmp_path):
    state = tmp_path / "gate.state"
    payload = {"version": 999, "checksum": "", "state": {}}
    payload["checksum"] = payload_checksum(payload)
    state.write_text(json.dumps(payload))
    reborn, _ = _service(internet, state)
    assert len(reborn.cache.entries) == 0
    assert any(record.stage == "storage" for record in reborn.ledger.records)


# -- the single-implementation lint ------------------------------------------


def test_no_durability_syscalls_outside_the_storage_layer():
    """All durable I/O must route through repro.core.storage.

    Grep-style lint: outside the storage module itself, no source file may
    call ``os.fsync``/``os.fdatasync`` or hand-roll ``.tmp`` rename
    staging — those are exactly the patterns the unified layer exists to
    own (and the fault shim can only inject under).
    """
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders: list[str] = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "storage.py" and path.parent.name == "core":
            continue
        text = path.read_text()
        for needle in ("os.fsync(", "os.fdatasync(", '".tmp"', "'.tmp'"):
            if needle in text:
                offenders.append(f"{path.relative_to(src)}: {needle}")
    assert offenders == [], f"durability primitives outside repro.core.storage: {offenders}"
