"""Reproducibility guarantees: identical seeds produce identical results.

A measurement pipeline whose numbers change between runs is useless for
science; these tests pin the end-to-end determinism the virtual clock and
seeded RNGs are supposed to provide.
"""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import result_to_dict


def _run(seed: int):
    config = PipelineConfig(
        n_bots=150,
        seed=seed,
        honeypot_sample_size=20,
    )
    return AssessmentPipeline(config).run()


def strip_wall_times(payload: dict) -> dict:
    """Drop wall-clock fields (the only legitimately nondeterministic ones)."""
    payload.pop("wall_seconds", None)
    for stage in payload.get("metrics", {}).get("stages", {}).values():
        stage.pop("wall_seconds", None)
    return payload


class TestDeterminism:
    def test_same_seed_identical_results(self):
        first = strip_wall_times(result_to_dict(_run(71), include_bots=True))
        second = strip_wall_times(result_to_dict(_run(71), include_bots=True))
        # Wall time legitimately differs; everything measured must not.
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_different_seed_different_world(self):
        first = result_to_dict(_run(72), include_bots=True)
        second = result_to_dict(_run(73), include_bots=True)
        names_a = [bot["name"] for bot in first["bots"]]
        names_b = [bot["name"] for bot in second["bots"]]
        assert names_a != names_b

    def test_virtual_time_is_deterministic(self):
        assert _run(74).virtual_seconds == _run(74).virtual_seconds


class TestReportWithoutStages:
    def test_report_renders_with_everything_disabled(self):
        from repro.core.report import render_full_report

        config = PipelineConfig(
            n_bots=60,
            seed=8,
            honeypot_sample_size=5,
            run_traceability=False,
            run_code_analysis=False,
            run_honeypot=False,
            resolve_permissions=False,
        )
        result = AssessmentPipeline(config).run()
        report = render_full_report(result)
        assert "Assessment Report" in report
        assert "Table 2" not in report  # stage disabled
        assert "Honeypot campaign" not in report

    def test_summary_lines_without_stages(self):
        config = PipelineConfig(
            n_bots=60,
            seed=8,
            honeypot_sample_size=5,
            run_traceability=False,
            run_code_analysis=False,
            run_honeypot=False,
        )
        result = AssessmentPipeline(config).run()
        lines = result.summary_lines()
        assert any("Collected 60 chatbots" in line for line in lines)
        assert not any("Honeypot" in line for line in lines)
