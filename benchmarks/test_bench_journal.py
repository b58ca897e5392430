"""OVERHEAD + RECOVERY: the write-ahead journal must be near-free.

Two acceptance bars from the crash-anywhere work:

1. **Overhead** — journaling every completed honeypot bot unit must
   cost < 10% wall-clock on the honeypot stage at the batched fsync
   cadence (``journal_fsync_every=64``).  The stage's work per unit
   (guild provisioning, feed dispatch, a full observation window)
   dwarfs one JSONL append, so anything above the bar means the
   journal is doing per-unit work it shouldn't.  The per-record
   default (``fsync_every=1``) deliberately pays one disk barrier per
   append for exactly-one-record ack durability; that price is
   measured and tracked separately (here as a printed line, and as
   throughput in ``BENCH_STORAGE.json``) rather than held to the 10%
   bar — it is bounded by the disk, not by the journal.

2. **Recovery proportionality** — a run killed after 99% of the
   traceability stage's units must redo < 5% of them on resume.  Redone
   units are measured directly from the journal: replayed records are
   never re-appended, so the resumed process's appends ARE the redo set.

3. **Linearity** — unit records carry only what the unit touched, so
   the WAL grows linearly with the population: on the benchmark's
   ``durable`` configuration (streamed, checkpointed, per-record fsync,
   100-bot honeypot sample, seed 1) the WAL's bytes per bot at 2,000 bots
   must stay within 1.2x of the figure at 500 bots.  A record that
   re-serializes whole components makes the ratio grow with the
   population instead (2.5x when records carried the whole world).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core.checkpoint import STAGE_HONEYPOT, STAGE_TRACEABILITY
from repro.core.config import PipelineConfig
from repro.core.crashpoints import ENV_CRASH_AT, EXIT_CODE
from repro.core.journal import WriteAheadJournal
from repro.core.pipeline import AssessmentPipeline

SRC = Path(repro.__file__).resolve().parents[1]
JOURNAL_BENCH_SCALE = int(os.environ.get("REPRO_BENCH_JOURNAL_SCALE", 600))

#: < 10% relative overhead, with a small absolute floor so the assertion
#: is meaningful on hosts where the whole stage runs in milliseconds.
OVERHEAD_CEILING = 0.10
OVERHEAD_FLOOR_SECONDS = 0.25


def _config(journal_path: str | None, fsync_every: int = 64) -> PipelineConfig:
    return PipelineConfig(
        n_bots=JOURNAL_BENCH_SCALE,
        seed=13,
        honeypot_sample_size=min(120, JOURNAL_BENCH_SCALE),
        validation_sample_size=20,
        journal_path=journal_path,
        journal_fsync_every=fsync_every,
    )


def _honeypot_wall(journal_path: str | None, fsync_every: int = 64) -> float:
    start = time.monotonic()
    result = AssessmentPipeline(_config(journal_path, fsync_every)).run()
    total = time.monotonic() - start
    stage = result.metrics.stage(STAGE_HONEYPOT).wall_seconds
    label = "off" if journal_path is None else f"fsync_every={fsync_every}"
    print(f"journal={label:14s} honeypot={stage:.3f}s total={total:.3f}s")
    return stage


def test_journal_overhead_under_ten_percent(tmp_path) -> None:
    baseline = _honeypot_wall(None)
    journaled = _honeypot_wall(str(tmp_path / "journal.wal"))
    # The per-record-durable default pays the disk's barrier price; print
    # it for the trajectory but hold the 10% bar at the batched cadence.
    _honeypot_wall(str(tmp_path / "journal-durable.wal"), fsync_every=1)
    ceiling = max(baseline * (1.0 + OVERHEAD_CEILING), baseline + OVERHEAD_FLOOR_SECONDS)
    print(f"overhead={(journaled / baseline - 1.0) * 100:+.1f}% (ceiling {OVERHEAD_CEILING * 100:.0f}%)")
    assert journaled <= ceiling, (
        f"journaled honeypot stage took {journaled:.3f}s vs {baseline:.3f}s baseline"
    )


def _run_driver(workdir: Path, config: dict, extra_env: dict | None = None) -> subprocess.CompletedProcess:
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_CRASH_AT, None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.core.crash_driver", str(config_path), str(workdir / "out.json")],
        env=env, capture_output=True, text=True, timeout=600,
    )


def test_resume_after_99_percent_redoes_under_5_percent(tmp_path) -> None:
    config = {
        "n_bots": 400,
        "seed": 13,
        "run_code_analysis": False,
        "run_honeypot": False,
        "validation_sample_size": 20,
        "journal_path": str(tmp_path / "journal.wal"),
        "checkpoint_path": str(tmp_path / "ckpt.json"),
    }
    # Reference run: learn the stage's unit count, then start fresh.
    reference = _run_driver(tmp_path, config)
    assert reference.returncode == 0, reference.stderr
    units = len(WriteAheadJournal(config["journal_path"]).pending(STAGE_TRACEABILITY))
    assert units >= 100, f"scale too small to measure a 99% kill ({units} units)"
    for name in ("journal.wal", "ckpt.json", "out.json"):
        (tmp_path / name).unlink(missing_ok=True)

    kill_at = math.ceil(units * 0.99)
    crashed = _run_driver(tmp_path, config, {ENV_CRASH_AT: f"traceability.after_bot:{kill_at}"})
    assert crashed.returncode == EXIT_CODE
    survived = len(WriteAheadJournal(config["journal_path"]).pending(STAGE_TRACEABILITY))

    resumed = _run_driver(tmp_path, config)
    assert resumed.returncode == 0, resumed.stderr
    total = len(WriteAheadJournal(config["journal_path"]).pending(STAGE_TRACEABILITY))
    redone = total - survived
    print(f"units={units} survived={survived} redone={redone} "
          f"({redone / total * 100:.2f}% of {total})")
    assert total == units
    assert redone / total < 0.05, f"resume redid {redone}/{total} units"


#: Bytes per bot at the larger population over the smaller one.
LINEARITY_CEILING = 1.2


def _durable_wal_bytes(workdir: Path, bots: int) -> int:
    workdir.mkdir()
    config = PipelineConfig(
        n_bots=bots,
        seed=1,
        honeypot_sample_size=100,
        stream=True,
        checkpoint_path=str(workdir / "checkpoint.json"),
        journal_path=str(workdir / "journal.wal"),
    )
    AssessmentPipeline(config).run()
    size = (workdir / "journal.wal").stat().st_size
    print(f"bots={bots:5d} wal={size / 2**20:.2f} MiB ({size / bots / 1024:.2f} KiB/bot)")
    return size


def test_wal_grows_linearly_with_the_population(tmp_path) -> None:
    small, large = 500, 2_000
    per_bot_small = _durable_wal_bytes(tmp_path / "small", small) / small
    per_bot_large = _durable_wal_bytes(tmp_path / "large", large) / large
    print(f"bytes/bot ratio={per_bot_large / per_bot_small:.2f} (ceiling {LINEARITY_CEILING})")
    assert per_bot_large <= per_bot_small * LINEARITY_CEILING, (
        f"WAL bytes per bot {per_bot_large:.0f} at {large} bots vs {per_bot_small:.0f} at {small}"
    )
