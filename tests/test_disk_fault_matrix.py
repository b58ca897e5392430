"""Systematic storage-fault injection matrix.

The contract under test: for **every** (consultation site × fault kind)
cell the storage layer registers (:func:`repro.core.storage.matrix_cells`),
a run suffering that single injected fault either

- completes **byte-identical** to its never-faulted golden, or
- dies loudly with a typed :class:`~repro.core.storage.StorageError`
  (driver exit code :data:`~repro.core.storage.STORAGE_EXIT_CODE`), after
  which a clean re-run *recovers* to the byte-identical golden result —

and never, in any cell, produces a silently wrong result.

Pipeline-owned artifacts (checkpoint / journal / spill) run through the
same subprocess driver as the crash matrix — in-process faults would leak
shim state into the recovery run.  The serving state snapshot is exercised
in-process against its own golden reload.  Those two scenarios reach every
registered artifact, and a sentinel keeps it that way: an artifact no
scenario writes would register cells that test nothing.

``DISK_MATRIX_BOTS=N`` scales the pipeline scenario up (the CI
disk-fault-smoke job runs N=2000 under hostile *network* chaos as well) on
a representative cell subset; unset, the full matrix runs at tier-1 scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.storage import (
    ENV_DISK_FAULT,
    ENV_DISK_RECORD,
    STORAGE_ARTIFACTS,
    STORAGE_EXIT_CODE,
    OneShotFault,
    StorageError,
    install_faults,
    matrix_cells,
    storage_sites,
    uninstall_faults,
)

SRC = Path(repro.__file__).resolve().parents[1]
DRIVER = [sys.executable, "-m", "repro.core.crash_driver"]

#: Pipeline-owned artifacts exercised through the subprocess scenario.
PIPELINE_ARTIFACTS = ("checkpoint", "journal", "spill")

SCALE = int(os.environ.get("DISK_MATRIX_BOTS", "0"))

#: Streamed + checkpointed + journaled under hostile network chaos: every
#: pipeline storage site is consulted, and disk faults land on top of an
#: already-adversarial run.  Mirrors the crash matrix's scale reasoning.
BASE_CONFIG = {
    "n_bots": SCALE or 48,
    "seed": 7,
    "honeypot_sample_size": 8,
    "validation_sample_size": 10,
    "chaos_profile": "hostile",
    "chaos_seed": 1,
    "adversarial_bots": 2,
    "stream": True,
    "chunk_size": 16 if not SCALE else 256,
}

#: At CI smoke scale, run this representative subset instead of all cells:
#: one loud kind and one silent kind per artifact.
SMOKE_CELLS = (
    ("checkpoint.write", "enospc"),
    ("checkpoint.settle", "rot"),
    ("journal.write", "short"),
    ("journal.fsync", "lost"),
    ("spill.fsync", "lost"),
    ("spill.settle", "rot"),
)


def _pipeline_cells() -> list[tuple[str, str]]:
    cells = [
        (site, kind)
        for site, kind in matrix_cells()
        if site.rsplit(".", 1)[0] in PIPELINE_ARTIFACTS
    ]
    if SCALE:
        return [cell for cell in cells if cell in SMOKE_CELLS]
    return cells


def _env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_DISK_FAULT, None)
    env.pop(ENV_DISK_RECORD, None)
    if extra:
        env.update(extra)
    return env


def _run_driver(workdir: Path, config: dict, extra_env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    return subprocess.run(
        DRIVER + [str(config_path), str(workdir / "out.json")],
        env=_env(extra_env),
        capture_output=True,
        text=True,
        timeout=600,
    )


def _scenario_config(workdir: Path) -> dict:
    config = dict(BASE_CONFIG)
    config["checkpoint_path"] = str(workdir / "ckpt.json")
    config["journal_path"] = str(workdir / "journal.wal")
    return config


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> tuple[bytes, set[str]]:
    """Golden comparable JSON plus the storage sites the scenario consults."""
    workdir = tmp_path_factory.mktemp("golden")
    record = workdir / "sites.txt"
    proc = _run_driver(workdir, _scenario_config(workdir), {ENV_DISK_RECORD: str(record)})
    assert proc.returncode == 0, f"golden run failed:\n{proc.stderr}"
    consulted = set(record.read_text().split()) if record.exists() else set()
    return (workdir / "out.json").read_bytes(), consulted


def test_every_storage_artifact_has_a_matrix_scenario() -> None:
    """Each registered artifact is one a scenario below writes."""
    assert set(STORAGE_ARTIFACTS) == set(PIPELINE_ARTIFACTS) | {"serving.state"}


def test_scenario_consults_every_pipeline_site(golden) -> None:
    """A site the scenario never reaches is a hole in the matrix, not a pass."""
    _, consulted = golden
    expected = {
        site for site in storage_sites() if site.rsplit(".", 1)[0] in PIPELINE_ARTIFACTS
    }
    assert expected <= consulted


@pytest.mark.parametrize("site,kind", _pipeline_cells())
def test_single_fault_is_golden_or_typed_then_recovers(site, kind, golden, tmp_path) -> None:
    golden_bytes, _ = golden
    config = _scenario_config(tmp_path)
    faulted = _run_driver(tmp_path, config, {ENV_DISK_FAULT: f"{site}:{kind}"})
    if faulted.returncode == 0:
        # The fault did not stop the run — then the result must be exactly
        # the golden's bytes: a completed run is never silently wrong.
        assert (tmp_path / "out.json").read_bytes() == golden_bytes, (
            f"{site}:{kind}: faulted run completed with a divergent result"
        )
    else:
        assert faulted.returncode == STORAGE_EXIT_CODE, (
            f"{site}:{kind}: exited {faulted.returncode} "
            f"(wanted 0 or typed {STORAGE_EXIT_CODE}):\n{faulted.stderr}"
        )
        assert "STORAGE_ERROR" in faulted.stderr
    # Recovery: a clean re-run over whatever artifacts the faulted run left
    # behind (torn, rotten, empty or fine) must converge on the golden.
    resumed = _run_driver(tmp_path, config)
    assert resumed.returncode == 0, f"{site}:{kind}: recovery run failed:\n{resumed.stderr}"
    assert (tmp_path / "out.json").read_bytes() == golden_bytes, (
        f"{site}:{kind}: recovery diverged from golden"
    )


# -- serving state snapshot (in-process) -------------------------------------


def _serving_cells() -> list[tuple[str, str]]:
    return [
        (site, kind)
        for site, kind in matrix_cells()
        if site.rsplit(".", 1)[0] == "serving.state"
    ]


@pytest.mark.parametrize("site,kind", _serving_cells())
def test_serving_state_fault_matrix(site, kind, internet, tmp_path) -> None:
    from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
    from repro.serving.service import ServicePolicy, VettingService

    bots = generate_ecosystem(EcosystemConfig(n_bots=10, seed=3)).bots
    state = tmp_path / "gate.state"

    def build() -> VettingService:
        return VettingService(
            internet, bots, policy=ServicePolicy(warmup=0.0), seed=3,
            state_path=state, register=False,
        )

    service = build()
    verdict = {"bot": bots[0].name, "verdict": "approved"}
    service.cache.store(bots[0], verdict, now=internet.clock.now())
    install_faults(OneShotFault(site, kind))
    typed = False
    try:
        service.persist_state()
    except StorageError:
        typed = True
    finally:
        uninstall_faults()

    reborn = build()
    recovered = reborn.cache.entries.get(bots[0].name)
    if recovered is not None:
        # The snapshot survived the fault: it must be the exact verdict.
        assert recovered.payload == verdict, f"{site}:{kind}: reloaded a wrong verdict"
    else:
        # Cold start: the damage was detected, scrubbed and recorded —
        # never a half-trusted cache.
        assert typed or any(record.stage == "storage" for record in reborn.ledger.records), (
            f"{site}:{kind}: snapshot lost without a typed error or a scrub record"
        )
    # The service re-earns its state and the next persist/reload round-trips.
    reborn.cache.store(bots[0], verdict, now=internet.clock.now())
    reborn.persist_state()
    healed = build()
    assert healed.cache.entries[bots[0].name].payload == verdict
