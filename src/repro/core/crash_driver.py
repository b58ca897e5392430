"""Subprocess driver for the crash-injection harness.

Runs one full pipeline from a JSON config file and writes the
*comparable* result (see :func:`repro.core.serialize.comparable_result`)
as canonical sorted JSON, so two runs can be compared byte-for-byte::

    python -m repro.core.crash_driver config.json out.json

The config file holds :class:`~repro.core.config.PipelineConfig` field
overrides (``n_bots``, ``stream``, ``checkpoint_path``, ``journal_path``,
...).  The harness arms crashes purely through the environment
(``REPRO_CRASH_AT`` / ``REPRO_CRASHPOINTS_RECORD``) so the golden, killed
and resumed invocations of a scenario run the exact same code path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Sequence

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import comparable_result, result_to_dict
from repro.core.storage import STORAGE_EXIT_CODE, StorageError


def build_config(payload: dict) -> PipelineConfig:
    """Apply JSON field overrides to a default :class:`PipelineConfig`."""
    config = PipelineConfig()
    for key, value in payload.items():
        if not hasattr(config, key):
            raise SystemExit(f"unknown config field {key!r}")
        setattr(config, key, value)
    return config


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: python -m repro.core.crash_driver CONFIG.json OUT.json", file=sys.stderr)
        return 2
    config_path, out_path = argv
    payload = json.loads(Path(config_path).read_text())
    try:
        result = AssessmentPipeline(build_config(payload)).run()
    except StorageError as error:
        # A typed storage failure: loud, named, and distinguishable from a
        # crash-point kill (137) so the disk-fault harness can assert the
        # run failed *honestly* rather than producing a wrong result.
        print(f"STORAGE_ERROR {type(error).__name__}: {error}", file=sys.stderr)
        return STORAGE_EXIT_CODE
    comparable = comparable_result(result_to_dict(result))
    Path(out_path).write_text(json.dumps(comparable, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
