"""Correctness checks on the JSON that workload runs hand back.

Pure functions over plain data, shared by ``run.py`` (which compares a
measured run with its control run and must not import the program) and
``workloads.py``, and exercised with tampered inputs by the benchmark's own
tests.
"""

from __future__ import annotations

import hashlib
import json


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: object) -> str:
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


def comparison_problems(measured: dict, expected: dict, what: str) -> list[str]:
    """Empty when ``measured`` equals ``expected`` as canonical JSON, else where they differ."""
    if canonical(measured) == canonical(expected):
        return []
    differing = [
        key
        for key in sorted(set(measured) | set(expected))
        if canonical(measured.get(key)) != canonical(expected.get(key))
    ]
    return [f"output differs from the {what} in: {', '.join(differing)}"]


def gate_problems(report: dict) -> list[str]:
    """The serving contract held and the worker pool's dispatch ledger balanced.

    ``report`` is ``ServingRunReport.to_dict()``: ``contract_ok`` already
    folds in every between-wave ledger check; the pool's own end-of-run
    ledger must balance too.
    """
    problems = []
    if not report.get("contract_ok"):
        details = ", ".join(
            f"{key}={report.get(key)}"
            for key in ("unexplained_5xx", "shed_missing_retry_after", "readyz_recovered",
                        "readiness_timeouts", "ledger_consistent")
        )
        problems.append(f"serving contract violated ({details})")
    pool = report.get("pool")
    if pool is not None and not pool.get("dispatch", {}).get("consistent", False):
        problems.append("worker-pool dispatch ledger does not balance")
    return problems
