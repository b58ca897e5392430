"""End-to-end supervision: adversarial bots quarantined, everyone else intact.

The contract under test is *blast-radius zero*: planting a crasher, a
flooder and a staller into the honeypot sample must quarantine exactly
those three runtimes — with the right reasons and root causes in the
ledger — while every other bot's statistics stay byte-identical to an
adversary-free run.

``use_osn_feed=False`` keeps the conversation feed per-bot-deterministic
(the scraped OSN feed is a shared sequential source, so an adversary
aborting mid-feed would shift which messages later bots receive — a
feed-content difference, not a supervision leak).
"""

from collections import Counter

import pytest

from repro.core.checkpoint import STAGE_HONEYPOT
from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.supervision import REASON_CRASH, REASON_DEADLINE, REASON_EVENT_FLOOD

SAMPLE = 12
ADVERSARIES = 3


def _config(**overrides) -> PipelineConfig:
    defaults = dict(
        n_bots=60,
        seed=3,
        honeypot_sample_size=SAMPLE,
        validation_sample_size=20,
        use_osn_feed=False,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _outcome_dict(outcome) -> dict:
    """One honeypot outcome as a comparable dict (no process-local ids)."""
    return {
        "bot_name": outcome.bot_name,
        "installed": outcome.installed,
        "tokens_deployed": outcome.tokens_deployed,
        "trigger_kinds": sorted(kind.value for kind in outcome.trigger_kinds),
        "suspicious_messages": list(outcome.suspicious_messages),
        "functionality_explained": outcome.functionality_explained,
        "quarantined": outcome.quarantined,
    }


def _stage_statistics(result) -> dict:
    """Everything the pre-honeypot stages report, as a comparable dict."""
    return {
        "bots": result.bots_collected,
        "active": result.active_bots,
        "listing_ids": sorted(bot.listing_id for bot in result.crawl.bots),
        "trace_classes": Counter(r.classification.value for r in result.traceability_results),
        "validation_accuracy": result.validation.accuracy if result.validation else None,
        "repo_languages": Counter(a.main_language for a in result.repo_analyses),
        "repos_with_checks": sum(1 for a in result.repo_analyses if a.performs_check),
    }


@pytest.fixture(scope="module")
def baseline():
    return AssessmentPipeline(_config()).run()


@pytest.fixture(scope="module")
def hostile():
    return AssessmentPipeline(_config(adversarial_bots=ADVERSARIES)).run()


def _assert_adversaries_contained(hostile_result, baseline_result):
    quarantines = hostile_result.quarantines
    assert len(quarantines) == ADVERSARIES
    assert all(record.stage == STAGE_HONEYPOT for record in quarantines.records)
    # The rotation plants one of each misbehaviour.
    assert set(quarantines.by_reason()) == {REASON_CRASH, REASON_EVENT_FLOOD, REASON_DEADLINE}

    # Root causes in the fault ledger name the actual exception classes.
    ledger_records = hostile_result.fault_ledger.quarantine_records()
    assert len(ledger_records) == ADVERSARIES
    assert {record.error_class for record in ledger_records} == {
        "RuntimeError",
        "EventBudgetExceeded",
        "DeadlineExceeded",
    }

    # Stages before the honeypot never see the planted behaviours.
    assert _stage_statistics(hostile_result) == _stage_statistics(baseline_result)

    # Every non-planted bot's honeypot outcome is identical.
    planted = set(quarantines.bot_names())
    assert len(planted) == ADVERSARIES
    hostile_outcomes = {o.bot_name: o for o in hostile_result.honeypot.outcomes}
    baseline_outcomes = {o.bot_name: o for o in baseline_result.honeypot.outcomes}
    assert set(hostile_outcomes) == set(baseline_outcomes)  # nobody lost, nobody gained
    for name in set(hostile_outcomes) - planted:
        assert _outcome_dict(hostile_outcomes[name]) == _outcome_dict(baseline_outcomes[name]), name
    for name in planted:
        assert hostile_outcomes[name].quarantined
        assert not hostile_outcomes[name].flagged  # a quarantined bot is not a detection

    # Accounting closes: processed + skipped + quarantined == sample.
    entry = hostile_result.metrics.stage(STAGE_HONEYPOT)
    assert entry is not None
    assert entry.bots_quarantined == ADVERSARIES
    assert entry.bots_processed + entry.bots_skipped + entry.bots_quarantined == SAMPLE


class TestSequential:
    def test_adversaries_quarantined_everyone_else_identical(self, hostile, baseline):
        _assert_adversaries_contained(hostile, baseline)

    def test_baseline_run_quarantines_nobody(self, baseline):
        assert len(baseline.quarantines) == 0
        assert baseline.metrics.stage(STAGE_HONEYPOT).bots_quarantined == 0
        assert not baseline.fault_ledger.quarantine_records()

    def test_quarantine_reaches_report_and_json(self, hostile):
        from repro.core.report import render_full_report
        from repro.core.serialize import result_to_dict

        report = render_full_report(hostile)
        assert "Supervision: quarantined runtimes" in report
        for name in hostile.quarantines.bot_names():
            assert name in report

        payload = result_to_dict(hostile)
        assert payload["quarantine"]["count"] == ADVERSARIES
        assert set(payload["quarantine"]["by_reason"]) == {
            REASON_CRASH,
            REASON_EVENT_FLOOD,
            REASON_DEADLINE,
        }
        assert payload["honeypot"]["bots_quarantined"] == ADVERSARIES
        assert payload["honeypot"]["bots_processed"] == SAMPLE - ADVERSARIES


class TestPlanting:
    def test_short_sample_is_a_config_error(self):
        """At seed 3 a 10-bot sample holds two plantable bots, so asking for three fails up front."""
        with pytest.raises(ValueError, match=r"adversarial_bots=3, but the 10-bot honeypot sample holds only 2 "):
            AssessmentPipeline(_config(honeypot_sample_size=10, adversarial_bots=ADVERSARIES))


class TestCheckpointedAdversaries:
    def test_kill_and_resume_preserves_quarantines(self, tmp_path, hostile):
        path = str(tmp_path / "pipeline.json")
        interrupted = AssessmentPipeline(_config(adversarial_bots=ADVERSARIES, checkpoint_path=path))

        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        interrupted.analyze_code = killed
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()

        resumed = AssessmentPipeline(
            _config(adversarial_bots=ADVERSARIES, checkpoint_path=path)
        ).run()
        _assert_adversaries_contained(resumed, hostile)

    def test_resume_after_honeypot_restores_quarantines_from_disk(self, tmp_path, hostile):
        path = str(tmp_path / "pipeline.json")
        first = AssessmentPipeline(_config(adversarial_bots=ADVERSARIES, checkpoint_path=path)).run()
        resumed = AssessmentPipeline(_config(adversarial_bots=ADVERSARIES, checkpoint_path=path)).run()
        assert all(status == "resumed" for status in resumed.stage_status.values())
        assert resumed.quarantines.records == first.quarantines.records
        quarantined = [o.bot_name for o in resumed.honeypot.quarantined_bots]
        assert sorted(quarantined) == sorted(first.quarantines.bot_names())
