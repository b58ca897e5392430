"""Tests of the benchmark itself, at its small scale.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Every workload runs end to end through ``run.py`` -- fresh child processes,
as the benchmark is meant to be run -- and must print every metric that
BENCHMARK.json names, with its unit.  Each correctness check must reject a
tampered input.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = workloads.SCALES["small"]
#: The small campaign (600 bots) matches every paper row at this seed.
SEED = 2022


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_spec_documents_every_metric_and_workload() -> None:
    spec = json.loads((HERE / "spec.json").read_text())
    documented = [name for layer in spec["per_layer"] for name in layer["metrics"]]
    assert documented == [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert list(spec["end_to_end"])[:-1] == [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert list(spec["workloads"]) == [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    spans = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}.tsv"
    spans.unlink(missing_ok=True)
    done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
                 "--scale", "small")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {spec["name"]: spec["unit"] for spec in specs}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
    elif workload == "gate":
        assert all(value == 0 for name, value in values.items() if name.startswith(("web.dom.", "core.journal.")))
        assert values["serving.workers.execute.calls"] > 0
    else:
        assert values["core.pipeline.collect.s"] > 0 and values["web.dom.select.calls"] > 0
        assert (values["core.journal.append.calls"] > 0) == (workload == "durable")
    if trace:
        lines = [line for line in spans.read_text().splitlines() if not line.startswith("#")]
        assert len(lines) == values["trace.spans"] > 0
        assert set(values) >= {f"trace.overhead.{metric['name']}" for metric in BENCHMARK["end_to_end"]}
    else:
        assert not spans.exists()


def test_without_program_sources_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_durable_check_rejects_a_tampered_comparable() -> None:
    control = workloads.Durable(SEED, SMALL).control()
    assert checks.comparison_problems(copy.deepcopy(control), control, "control run") == []
    tampered = copy.deepcopy(control)
    tampered["bots_collected"] += 1
    assert checks.comparison_problems(tampered, control, "control run")


def test_gate_checks_reject_a_violated_contract_and_a_tampered_report() -> None:
    gate = workloads.Gate(SEED, SMALL, workers=0)
    harness = gate.setup()
    try:
        report = harness.run(gate.script)
    finally:
        gate.teardown(harness)
    assert checks.gate_problems(report.to_dict()) == []
    violated = report.to_dict()
    violated["contract_ok"] = False
    assert checks.gate_problems(violated)
    unbalanced = report.to_dict()
    unbalanced["pool"] = {"dispatch": {"consistent": False}}
    assert checks.gate_problems(unbalanced)
    tampered = report.comparable_dict()
    tampered["verdicts"] += 1
    assert checks.comparison_problems(tampered, report.comparable_dict(), "control run")


def test_campaign_check_rejects_open_books_and_missing_paper_rows() -> None:
    campaign = workloads.Campaign(SEED, SMALL)
    result = campaign.setup().run()
    assert workloads.campaign_problems(result, campaign.config) == []
    crawl = result.metrics.stages["crawl"]
    crawl.bots_processed -= 1
    assert any("stage crawl" in problem for problem in workloads.campaign_problems(result, campaign.config))
    crawl.bots_processed += 1
    result.traceability_summary = None
    assert any("paper comparison" in problem for problem in workloads.campaign_problems(result, campaign.config))
