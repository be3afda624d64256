"""Smoke tests for the scripts under ``scripts/``, run as separate processes."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tame_census_runs_and_prints_its_footer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tame_census.py"), "D:2:1", "--max-size", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"# \d+/\d+ tame", proc.stdout.splitlines()[-1])
