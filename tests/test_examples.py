"""Every script under ``examples/`` runs to completion against ``src/``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(p.name for p in (ROOT / "examples").glob("*.py"))


def test_examples_are_collected():
    assert "quickstart.py" in EXAMPLES and len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_zero(script, tmp_path):
    """Run from a scratch cwd: some examples write ``mdrun_logs/`` there."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
