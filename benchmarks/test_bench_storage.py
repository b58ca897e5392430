"""OVERHEAD: the unified durable-storage layer must be near-free.

Two acceptance bars from the storage-chaos work:

1. **Fsync cadence** — the journal's default ``fsync_every=1`` buys
   per-record durability; batching (``fsync_every=64``) must never be
   meaningfully slower than per-record (it exists to be faster on real
   disks), and explicit-sync mode (``0``) bounds the floor.  The
   trajectory file records all three so a regression in the append path
   shows up as a number, not a feeling.

2. **Storage tax** — running a checkpointed + journaled + streamed
   pipeline with the ``calm`` disk-chaos shim installed (every durable
   operation consults the fault plan, none injects) must cost < 5%
   wall-clock over the same run with no shim at 10^4 bots.  The consult
   is two dict operations; anything above the bar means the shim crept
   onto a hot path it doesn't belong on.  One pair of runs cannot
   resolve 5% on a shared machine, so the gate runs alternating
   bare/calm pairs (which side goes first alternates too) and holds the
   *median* per-pair ratio to the bar.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.core.journal import WriteAheadJournal
from repro.core.pipeline import AssessmentPipeline
from repro.core.storage import install_disk_chaos, uninstall_faults

STORAGE_BENCH_SCALE = int(os.environ.get("REPRO_BENCH_STORAGE_SCALE", 10_000))
JOURNAL_RECORDS = int(os.environ.get("REPRO_BENCH_STORAGE_RECORDS", 20_000))

#: < 5% relative overhead, with a small absolute floor so the assertion
#: is meaningful on hosts where the whole run finishes in seconds.
TAX_CEILING = 0.05
TAX_FLOOR_SECONDS = 0.25
#: Alternating bare/calm pairs behind the median ratio.
TAX_PAIRS = 3


def _journal_wall(path: Path, fsync_every: int) -> float:
    journal = WriteAheadJournal(path, fsync_every=fsync_every)
    body = {"verdict": "ok", "padding": "x" * 64}
    start = time.monotonic()
    for index in range(JOURNAL_RECORDS):
        journal.append("bench", f"bot-{index}", body)
    journal.sync()
    journal.close()
    wall = time.monotonic() - start
    print(f"fsync_every={fsync_every:3d}: {JOURNAL_RECORDS} records in {wall:.3f}s "
          f"({JOURNAL_RECORDS / wall:,.0f} rec/s)")
    return wall


def test_batched_fsync_cadence_is_never_slower(tmp_path) -> None:
    per_record = _journal_wall(tmp_path / "wal1", fsync_every=1)
    batched = _journal_wall(tmp_path / "wal64", fsync_every=64)
    explicit = _journal_wall(tmp_path / "wal0", fsync_every=0)
    # Batching trades torn-tail width for throughput; it must never lose
    # that trade (generous slack absorbs scheduler noise on fast disks).
    assert batched <= per_record * 1.25 + 0.1, (
        f"fsync_every=64 ({batched:.3f}s) slower than fsync_every=1 ({per_record:.3f}s)"
    )
    assert explicit <= per_record * 1.25 + 0.1


def _pipeline_wall(workdir: Path, shim: bool) -> float:
    """Wall time of one fresh streamed + checkpointed + journaled run."""
    workdir.mkdir(parents=True)
    config = PipelineConfig(
        n_bots=STORAGE_BENCH_SCALE,
        seed=13,
        honeypot_sample_size=min(200, STORAGE_BENCH_SCALE),
        validation_sample_size=20,
        stream=True,
        chunk_size=2_048,
        checkpoint_path=str(workdir / "ckpt.json"),
        journal_path=str(workdir / "journal.wal"),
    )
    if shim:
        install_disk_chaos("calm", seed=0)
    else:
        uninstall_faults()
    try:
        start = time.monotonic()
        AssessmentPipeline(config).run()
        wall = time.monotonic() - start
    finally:
        uninstall_faults()
    print(f"shim={'calm' if shim else 'off '}: {STORAGE_BENCH_SCALE} bots in {wall:.3f}s")
    return wall


def test_storage_tax_under_five_percent(tmp_path) -> None:
    bare_walls: list[float] = []
    ratios: list[float] = []
    for pair in range(TAX_PAIRS):
        # Alternate which side runs first, so drift in the machine's speed
        # over a pair does not always land on the same side.
        order = (False, True) if pair % 2 == 0 else (True, False)
        walls = {shim: _pipeline_wall(tmp_path / f"pair{pair}-{'calm' if shim else 'bare'}", shim) for shim in order}
        bare_walls.append(walls[False])
        ratios.append(walls[True] / walls[False])
        print(f"pair {pair + 1}: bare={walls[False]:.3f}s calm={walls[True]:.3f}s "
              f"tax={(ratios[-1] - 1.0) * 100:+.1f}%")
    median = statistics.median(ratios)
    ceiling = max(1.0 + TAX_CEILING, 1.0 + TAX_FLOOR_SECONDS / statistics.median(bare_walls))
    print(f"storage tax median={(median - 1.0) * 100:+.1f}% over {TAX_PAIRS} pairs "
          f"(ceiling {(ceiling - 1.0) * 100:.1f}%)")
    assert median <= ceiling, (
        f"calm-shimmed pipeline costs a median {(median - 1.0) * 100:+.1f}% over bare "
        f"across {TAX_PAIRS} alternating pairs"
    )
