"""Every demo script runs to completion and prints exactly the stdout
committed under tests/demo_output/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
