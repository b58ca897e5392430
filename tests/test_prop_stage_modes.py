"""Property: stages 2–4 give the same result in every mode the driver serves.

One stage driver runs stages 2–4 whatever the mode: a materialized or a
streamed population, with or without a checkpoint and write-ahead
journal, and with any subset of the stages switched off.  A run in any
such mode must produce the comparable result JSON of a plain run with the
same stage switches, and must report each disabled stage as ``skipped``.
"""

from __future__ import annotations

import json
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import STAGE_CODE, STAGE_HONEYPOT, STAGE_TRACEABILITY
from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import comparable_result, result_to_dict

#: Stage name -> the ``PipelineConfig`` switch that turns it off.
SWITCHES = {
    STAGE_TRACEABILITY: "run_traceability",
    STAGE_CODE: "run_code_analysis",
    STAGE_HONEYPOT: "run_honeypot",
}


def _config(enabled: tuple[bool, bool, bool], **extra) -> PipelineConfig:
    switches = {switch: on for switch, on in zip(SWITCHES.values(), enabled)}
    return PipelineConfig(n_bots=40, seed=5, honeypot_sample_size=6, validation_sample_size=8, **switches, **extra)


def _comparable_json(result) -> str:
    return json.dumps(comparable_result(result_to_dict(result, include_bots=True)), sort_keys=True, indent=1)


@lru_cache(maxsize=None)
def _plain(enabled: tuple[bool, bool, bool]) -> str:
    return _comparable_json(AssessmentPipeline(config=_config(enabled)).run())


@settings(max_examples=16, deadline=None)
@given(
    enabled=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    stream=st.booleans(),
    durable=st.booleans(),
)
def test_every_mode_matches_the_plain_run(enabled, stream, durable):
    with tempfile.TemporaryDirectory() as workdir:
        extra: dict = {}
        if stream:
            extra.update(stream=True, chunk_size=16)
        if durable:
            extra.update(
                checkpoint_path=str(Path(workdir) / "ckpt.json"),
                journal_path=str(Path(workdir) / "journal.wal"),
            )
        result = AssessmentPipeline(config=_config(enabled, **extra)).run()
        # Streamed results read back from spills inside ``workdir``.
        assert _comparable_json(result) == _plain(enabled)
    for stage, on in zip(SWITCHES, enabled):
        if not on:
            assert result.stage_status[stage] == "skipped"
