"""Unit tests for the crash-point registry and injection plumbing."""

from __future__ import annotations

import pytest

from repro.core import crashpoints
from repro.core.crashpoints import (
    REGISTRY,
    UnknownCrashPointError,
    crashpoint,
    hits,
    parse_arm,
    read_fired,
    reset,
    set_handler,
)


@pytest.fixture(autouse=True)
def clean_state():
    reset()
    yield
    reset()


def test_registry_names_are_unique_and_namespaced() -> None:
    assert len(REGISTRY) == len(set(REGISTRY))
    assert all("." in name for name in REGISTRY)


def test_unknown_name_raises() -> None:
    with pytest.raises(UnknownCrashPointError):
        crashpoint("not.registered")


def test_parse_arm_defaults_to_first_occurrence() -> None:
    assert parse_arm("crawl.after_page") == ("crawl.after_page", 1)
    assert parse_arm("crawl.after_page:4") == ("crawl.after_page", 4)


def test_handler_sees_name_and_count() -> None:
    seen: list[tuple[str, int]] = []
    set_handler(lambda name, count: seen.append((name, count)))
    crashpoint("crawl.after_page")
    crashpoint("crawl.after_page")
    crashpoint("run.before_result")
    assert seen == [("crawl.after_page", 1), ("crawl.after_page", 2), ("run.before_result", 1)]
    assert hits() == {"crawl.after_page": 2, "run.before_result": 1}


def test_handler_suppresses_env_arming(monkeypatch) -> None:
    monkeypatch.setenv(crashpoints.ENV_CRASH_AT, "crawl.after_page")
    set_handler(lambda name, count: None)
    crashpoint("crawl.after_page")  # would os._exit(137) without the handler


def test_reset_clears_hits_and_handler(monkeypatch) -> None:
    set_handler(lambda name, count: None)
    crashpoint("crawl.after_page")
    reset()
    assert hits() == {}
    # Handler gone: with nothing armed, a hit is a no-op.
    monkeypatch.delenv(crashpoints.ENV_CRASH_AT, raising=False)
    crashpoint("crawl.after_page")
    assert hits() == {"crawl.after_page": 1}


def test_record_env_appends_one_line_per_hit(tmp_path, monkeypatch) -> None:
    record = tmp_path / "fired.txt"
    monkeypatch.setenv(crashpoints.ENV_RECORD, str(record))
    monkeypatch.delenv(crashpoints.ENV_CRASH_AT, raising=False)
    crashpoint("crawl.after_page")
    crashpoint("crawl.after_page")
    crashpoint("run.before_result")
    assert read_fired(record) == {"crawl.after_page": 2, "run.before_result": 1}


def test_read_fired_missing_file_is_empty(tmp_path) -> None:
    assert read_fired(tmp_path / "absent.txt") == {}


def test_run_fires_crash_points_in_a_fixed_order(tmp_path) -> None:
    """Stages run one unit at a time, so two identical runs fire the same
    point sequence and ``NAME:N`` always names the same unit."""
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import AssessmentPipeline

    def fired(workdir) -> list[str]:
        workdir.mkdir()
        seen: list[str] = []
        set_handler(lambda name, count: seen.append(name))
        config = PipelineConfig(
            n_bots=90,
            seed=7,
            honeypot_sample_size=10,
            validation_sample_size=8,
            chaos_profile="hostile",
            chaos_seed=1,
            adversarial_bots=2,
            journal_path=str(workdir / "journal.wal"),
        )
        AssessmentPipeline(config=config).run()
        reset()
        return seen

    first = fired(tmp_path / "first")
    assert "traceability.after_bot" in first and "honeypot.after_bot" in first
    assert fired(tmp_path / "second") == first
