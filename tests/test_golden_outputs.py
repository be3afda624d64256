"""Replay the benchmark's golden outputs through the CLI.

``perfbench/golden.json`` stores, for every benchmark operation, its argv
and sha256("{exit code}\\n{stdout}").  Replaying the workloads here makes
any byte change in ``classify``, ``bottom`` or ``character`` output fail the
tests directly.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ospchar.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("workload", ["census", "char-sweep", "char-large"])
def test_replay_matches_golden_digest(workload, capsys):
    rows = json.loads(GOLDEN.read_text())["workloads"][workload]
    assert rows
    changed = []
    for row in rows:
        rc = main(list(row["argv"]))
        out = capsys.readouterr().out
        if hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest() != row["sha256"]:
            changed.append(" ".join(row["argv"]))
    assert not changed, f"{len(changed)} of {len(rows)} outputs changed: {changed[:5]}"
