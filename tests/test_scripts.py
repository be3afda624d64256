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
    lines = proc.stdout.splitlines()
    footer = re.fullmatch(r"# (\d+)/\d+ tame", lines[-1])
    assert footer
    assert not any("Weight(" in line for line in lines)
    # each tame row ends with T, its k roots rendered as strings like d1-e2
    tame = atypical = 0
    for line in lines:
        row = re.fullmatch(r"\S+\s+(\d+)\s+yes\s+\d+\s+\d+  \{(.*)\}", line)
        if row:
            roots = row[2].split(",") if row[2] else []
            assert len(roots) == int(row[1]), line
            assert all(re.fullmatch(r"[de]\d[+-][de]\d", r) for r in roots), line
            tame += 1
            atypical += bool(roots)
    assert tame == int(footer[1]) and atypical
