"""ROBUSTNESS: supervision under chaos — adversaries, faults, kill/resume.

The worst realistic campaign: a hostile fault schedule on the transport
plane *and* hostile bot runtimes on the data plane (a crasher, a flooder,
a staller planted in the honeypot sample), checkpointed, and killed
once mid-run.  The supervision contract:

- the run completes — quarantined and degraded, never crashed;
- every planted adversary lands in the quarantine log with a root cause
  in the fault ledger;
- the honeypot books close: processed + skipped + quarantined == sample;
- a killed run resumes from its checkpoint with quarantines intact.
"""

import pytest

from repro.core.checkpoint import STAGE_HONEYPOT
from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.web.chaos import HOSTILE

N_BOTS = 60
# At seed 3 the 12 most-voted bots hold three plantable bots, as in
# tests/test_adversarial_e2e.py; 10 held only two, and a short planting is
# refused.
SAMPLE = 12
ADVERSARIES = 3

BENCH_HOSTILE = HOSTILE.scaled(
    epoch=120.0,
    window_duration=(30.0, 90.0),
    outage_rate=0.3,
    error_burst_rate=0.5,
    latency_spike_rate=0.4,
    rate_limit_rate=0.4,
    captcha_surge_rate=0.3,
    truncation_rate=0.05,
)


def _config(**overrides) -> PipelineConfig:
    defaults = dict(
        n_bots=N_BOTS,
        seed=3,
        honeypot_sample_size=SAMPLE,
        validation_sample_size=20,
        adversarial_bots=ADVERSARIES,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _assert_books_close(result) -> None:
    entry = result.metrics.stage(STAGE_HONEYPOT)
    assert entry is not None
    assert entry.bots_processed + entry.bots_skipped + entry.bots_quarantined == SAMPLE


def test_bench_adversarial_hostile_run_completes(benchmark):
    result = benchmark.pedantic(
        lambda: AssessmentPipeline(_config(chaos_profile=BENCH_HOSTILE, chaos_seed=0)).run(),
        rounds=1,
        iterations=1,
    )
    assert set(result.stage_status.values()) <= {"completed", "degraded"}
    assert result.honeypot is not None
    # Chaos may skip a planted bot before its runtime ever starts (a
    # transport fault is a skip, not a quarantine), but nothing crashes
    # and the books always close.
    assert len(result.quarantines) <= ADVERSARIES
    assert len(result.fault_ledger.quarantine_records()) == len(result.quarantines)
    _assert_books_close(result)

    print()
    print(result.fault_ledger.summary_line())
    print(result.quarantines.summary_line())


def test_bench_calm_adversarial_quarantines_all_three():
    result = AssessmentPipeline(_config()).run()
    assert len(result.quarantines) == ADVERSARIES
    assert set(result.quarantines.by_reason()) == {"crash", "event_flood", "deadline"}
    _assert_books_close(result)


def test_bench_killed_adversarial_run_resumes_with_quarantines(tmp_path):
    path = str(tmp_path / "pipeline.json")
    uninterrupted = AssessmentPipeline(
        _config(chaos_profile=BENCH_HOSTILE, chaos_seed=0)
    ).run()

    interrupted = AssessmentPipeline(
        _config(chaos_profile=BENCH_HOSTILE, chaos_seed=0, checkpoint_path=path)
    )

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    interrupted.analyze_code = killed
    with pytest.raises(KeyboardInterrupt):
        interrupted.run()

    resumed = AssessmentPipeline(
        _config(chaos_profile=BENCH_HOSTILE, chaos_seed=0, checkpoint_path=path)
    ).run()
    assert set(resumed.stage_status.values()) <= {"completed", "degraded", "resumed"}
    # Virtual timestamps shift when earlier stages resume instead of re-run;
    # the quarantine *identities* must survive the kill intact.
    assert [
        (r.bot_name, r.reason, r.root_cause) for r in resumed.quarantines.records
    ] == [(r.bot_name, r.reason, r.root_cause) for r in uninterrupted.quarantines.records]
    _assert_books_close(resumed)
