"""Tests for the CLI and result serialization."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.crash_driver import build_config
from repro.core.serialize import load_result_summary, result_to_dict, save_result


class TestSerialization:
    def test_roundtrip_summary(self, pipeline_result, tmp_path):
        path = save_result(pipeline_result, tmp_path / "result.json")
        loaded = load_result_summary(path)
        assert loaded["bots_collected"] == pipeline_result.bots_collected
        assert loaded["figure3"]["administrator_percent"] == pytest.approx(
            pipeline_result.permission_distribution.administrator_percent
        )
        assert loaded["table2"]["broken_fraction"] == pytest.approx(
            pipeline_result.traceability_summary.broken_fraction
        )
        assert loaded["honeypot"]["flagged"][0]["bot_name"] == "Melonian"

    def test_include_bots(self, pipeline_result):
        payload = result_to_dict(pipeline_result, include_bots=True)
        assert len(payload["bots"]) == pipeline_result.bots_collected
        sample = payload["bots"][0]
        assert {"name", "permissions", "permission_status"} <= set(sample)

    def test_json_serializable(self, pipeline_result):
        json.dumps(result_to_dict(pipeline_result, include_bots=True))

    def test_schema_version_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            load_result_summary(bad)


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("flag", [["--parallel"], ["--shards", "2"]], ids=["parallel", "shards"])
    def test_run_has_no_deleted_flag(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["--bots", "60", "run", *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["parallel", "shards"])
    def test_crash_driver_refuses_a_deleted_field(self, field):
        with pytest.raises(SystemExit, match=f"unknown config field '{field}'"):
            build_config({field: 2})

    def test_platforms_command(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "discord" in out and "slack" in out
        assert "runtime enforcer" in out and "developer-trusted" in out

    def test_run_command_small(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        code = main(
            ["--bots", "80", "--seed", "5", "run", "--honeypot-sample", "10", "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Table 2" in out
        assert json_path.exists()
        loaded = load_result_summary(json_path)
        assert loaded["bots_collected"] == 80

    def test_honeypot_command(self, capsys):
        assert main(["--bots", "80", "--seed", "5", "honeypot", "--sample", "10"]) == 0
        out = capsys.readouterr().out
        assert "Tested 10 bots" in out
        assert "precision=" in out

    def test_traceability_command(self, capsys):
        assert main(["--bots", "60", "--seed", "5", "traceability"]) == 0
        out = capsys.readouterr().out
        assert "Website Link" in out and "broken=" in out

    def test_code_command(self, capsys):
        assert main(["--bots", "60", "--seed", "5", "code"]) == 0
        out = capsys.readouterr().out
        assert "github links" in out and "JavaScript" in out

    def test_plan_command(self, capsys):
        assert main(["--bots", "1000", "plan"]) == 0
        out = capsys.readouterr().out
        assert "Campaign plan" in out and "virtual hours" in out

    def test_longitudinal_command(self, capsys):
        assert main(["--bots", "120", "--seed", "6", "longitudinal", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "epoch 0->1" in out and "mean risk" in out

    def test_vet_command(self, capsys):
        assert main(["--bots", "150", "--seed", "9", "vet"]) == 0
        out = capsys.readouterr().out
        assert "Vetted" in out and "rejected" in out


class TestMarkdownReport:
    def test_contains_all_sections(self, pipeline_result):
        from repro.core.markdown_report import render_markdown_report

        text = render_markdown_report(pipeline_result)
        for heading in (
            "# Chatbot Security & Privacy Assessment",
            "## Permission distribution (Figure 3)",
            "## Bots per developer (Table 1)",
            "## Traceability (Table 2)",
            "## Code analysis",
            "## Honeypot campaign",
            "## Population risk",
        ):
            assert heading in text
        assert "Melonian" in text
        assert "wtf is this bro" in text

    def test_tables_are_valid_gfm(self, pipeline_result):
        from repro.core.markdown_report import render_markdown_report

        text = render_markdown_report(pipeline_result)
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")

    def test_cli_markdown_flag(self, capsys, tmp_path):
        md_path = tmp_path / "report.md"
        code = main(["--bots", "80", "--seed", "5", "run", "--honeypot-sample", "10", "--markdown", str(md_path)])
        assert code == 0
        assert md_path.exists()
        assert "## Permission distribution" in md_path.read_text()

    def test_sections_absent_for_disabled_stages(self):
        from repro.core.config import PipelineConfig
        from repro.core.markdown_report import render_markdown_report
        from repro.core.pipeline import AssessmentPipeline

        config = PipelineConfig(
            n_bots=50, seed=4, honeypot_sample_size=5,
            run_traceability=False, run_code_analysis=False, run_honeypot=False,
        )
        text = render_markdown_report(AssessmentPipeline(config).run())
        assert "## Traceability" not in text
        assert "## Honeypot campaign" not in text
        assert "## Permission distribution" in text

    def test_compare_command(self, capsys):
        code = main(["--bots", "600", "--seed", "2022", "compare"])
        out = capsys.readouterr().out
        assert "Paper vs. measured" in out
        assert code == 0 and "REPRODUCED" in out
