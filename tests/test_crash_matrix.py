"""Systematic crash-point injection matrix.

For each scenario (materialized and streamed, both under hostile chaos
with planted adversarial bots, checkpoint + journal armed) the harness:

1. runs a never-crashed **golden** subprocess with
   ``REPRO_CRASHPOINTS_RECORD`` set, learning which registered crash
   points actually fire and capturing the comparable result JSON;
2. for every fired point, kills a fresh subprocess exactly there
   (``REPRO_CRASH_AT``, expecting :data:`~repro.core.crashpoints.EXIT_CODE`),
   resumes it with no injection, and asserts the resumed comparable
   result is **byte-identical** to the golden one;
3. asserts the union of fired points across scenarios covers the whole
   :data:`~repro.core.crashpoints.REGISTRY` — a registered point nothing
   reaches is a hole in the recovery story, not a passing test.

Subprocesses are the point: an in-process simulated "crash" would leak
state (open journals, module globals, armed breakers) into the resume.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.crashpoints import ENV_CRASH_AT, ENV_RECORD, EXIT_CODE, REGISTRY, read_fired

SRC = Path(repro.__file__).resolve().parents[1]
DRIVER = [sys.executable, "-m", "repro.core.crash_driver"]

#: Small enough for a ~25 runs matrix in tier-1, large enough that every
#: stage does real work: multiple crawl pages, dozens of traceability
#: units, quarantined adversaries and a populated honeypot sample.
BASE_CONFIG = {
    "n_bots": 48,
    "seed": 7,
    "honeypot_sample_size": 8,
    "validation_sample_size": 10,
    "chaos_profile": "hostile",
    "chaos_seed": 1,
    "adversarial_bots": 2,
}

SCENARIOS = {
    "sequential": {},
    # Chunked stream consumption: the chunk size sits below the active
    # population so both the mid-chunk and chunk-boundary kills (plus the
    # cursor-save kill) genuinely occur.
    "streamed": {"stream": True, "chunk_size": 16},
}


def _env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_CRASH_AT, None)
    env.pop(ENV_RECORD, None)
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
        timeout=300,
    )


def _scenario_config(workdir: Path, overrides: dict) -> dict:
    config = dict(BASE_CONFIG)
    config.update(overrides)
    config["checkpoint_path"] = str(workdir / "ckpt.json")
    config["journal_path"] = str(workdir / "journal.wal")
    return config


@pytest.fixture(scope="module")
def goldens(tmp_path_factory) -> dict[str, tuple[bytes, dict[str, int]]]:
    """Golden comparable JSON + fired-point counts, per scenario."""
    results: dict[str, tuple[bytes, dict[str, int]]] = {}
    for name, overrides in SCENARIOS.items():
        workdir = tmp_path_factory.mktemp(f"golden-{name}")
        record = workdir / "fired.txt"
        proc = _run_driver(workdir, _scenario_config(workdir, overrides), {ENV_RECORD: str(record)})
        assert proc.returncode == 0, f"golden {name} failed:\n{proc.stderr}"
        results[name] = ((workdir / "out.json").read_bytes(), read_fired(record))
    return results


def test_every_registered_point_fires(goldens) -> None:
    fired = set()
    for _, counts in goldens.values():
        fired.update(counts)
    assert fired == set(REGISTRY)


def test_fired_points_are_registered(goldens) -> None:
    for _, counts in goldens.values():
        assert set(counts) <= set(REGISTRY)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_kill_and_resume_matches_golden(scenario, goldens, tmp_path) -> None:
    """Kill at every fired point (first occurrence), resume, compare bytes."""
    golden_bytes, counts = goldens[scenario]
    overrides = SCENARIOS[scenario]
    failures: list[str] = []
    for point in sorted(counts):
        workdir = tmp_path / point.replace(".", "-")
        workdir.mkdir()
        config = _scenario_config(workdir, overrides)
        crashed = _run_driver(workdir, config, {ENV_CRASH_AT: point})
        if crashed.returncode != EXIT_CODE:
            failures.append(f"{point}: crash run exited {crashed.returncode}, wanted {EXIT_CODE}")
            continue
        resumed = _run_driver(workdir, config)
        if resumed.returncode != 0:
            failures.append(f"{point}: resume exited {resumed.returncode}:\n{resumed.stderr}")
            continue
        if (workdir / "out.json").read_bytes() != golden_bytes:
            failures.append(f"{point}: resumed result diverged from golden")
    assert not failures, "crash matrix failures:\n" + "\n".join(failures)


def test_kill_at_last_unit_resumes_identically(goldens, tmp_path) -> None:
    """Dying on the final unit of a stage must redo at most that unit."""
    golden_bytes, counts = goldens["sequential"]
    point = "traceability.after_bot"
    arm = f"{point}:{counts[point]}"
    config = _scenario_config(tmp_path, SCENARIOS["sequential"])
    crashed = _run_driver(tmp_path, config, {ENV_CRASH_AT: arm})
    assert crashed.returncode == EXIT_CODE
    resumed = _run_driver(tmp_path, config)
    assert resumed.returncode == 0, resumed.stderr
    assert (tmp_path / "out.json").read_bytes() == golden_bytes


def test_double_crash_then_resume(goldens, tmp_path) -> None:
    """Two consecutive crashes at different points still converge."""
    golden_bytes, _ = goldens["sequential"]
    config = _scenario_config(tmp_path, SCENARIOS["sequential"])
    first = _run_driver(tmp_path, config, {ENV_CRASH_AT: "journal.mid_append:3"})
    assert first.returncode == EXIT_CODE
    second = _run_driver(tmp_path, config, {ENV_CRASH_AT: "honeypot.after_bot:2"})
    assert second.returncode == EXIT_CODE
    resumed = _run_driver(tmp_path, config)
    assert resumed.returncode == 0, resumed.stderr
    assert (tmp_path / "out.json").read_bytes() == golden_bytes


def test_journal_only_resume_matches_golden(goldens, tmp_path) -> None:
    """Without a checkpoint, the journal alone must carry the resume."""
    golden_bytes, _ = goldens["sequential"]
    config = _scenario_config(tmp_path, SCENARIOS["sequential"])
    del config["checkpoint_path"]
    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    golden_config = dict(config, journal_path=str(golden_dir / "journal.wal"))
    golden = _run_driver(golden_dir, golden_config)
    assert golden.returncode == 0, golden.stderr
    journal_golden = (golden_dir / "out.json").read_bytes()

    crashed = _run_driver(tmp_path, config, {ENV_CRASH_AT: "traceability.after_bot:5"})
    assert crashed.returncode == EXIT_CODE
    resumed = _run_driver(tmp_path, config)
    assert resumed.returncode == 0, resumed.stderr
    assert (tmp_path / "out.json").read_bytes() == journal_golden
    # The journal-only and checkpointed goldens describe the same campaign.
    assert journal_golden == golden_bytes
