"""Smoke runs of the example scripts, so an API change cannot break them unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kiqa

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_toy_pipeline.py", ["--n-items", "40", "--n-train", "24", "--epochs", "2"]),
    ("run_strategies.py", ["--rev-epochs", "2", "--epochs", "2"]),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(Path(kiqa.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
