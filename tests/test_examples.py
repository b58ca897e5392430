"""Every script under ``examples/`` runs to completion at a small scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: Small arguments for each example.  A new example must be added here.
ARGS = {
    "code_audit.py": ["200"],
    "guild_guardian.py": [],
    "honeypot_study.py": ["10"],
    "longitudinal_study.py": ["200", "2"],
    "permission_audit.py": [],
    "platform_comparison.py": [],
    "quickstart.py": ["200"],
    "slash_defense.py": [],
    "traceability_study.py": ["200"],
    "vetting_gate.py": ["60"],
}


@pytest.mark.parametrize("name", sorted(path.name for path in EXAMPLES.glob("*.py")))
def test_example_runs(name):
    assert name in ARGS, f"examples/{name} has no entry in ARGS"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *ARGS[name]],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"examples/{name} printed nothing"
