"""Regenerate golden.json: each workload's operations and their expected output.

Runs every operation of every population once through ospchar.cli.main and
stores its argv, exit code and output digest.  The char-sweep population is
the tame weights among its candidates, decided by ``classify``.  Run it only
when the program's output is meant to change:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from run import GOLDEN, git_commit
from worker import ROOT, digest, run_op


def _dumps(record: dict) -> str:
    """JSON with one operation per line, so a changed output is a one-line diff."""
    blocks = []
    for name, rows in record["workloads"].items():
        body = ",\n".join(json.dumps(row) for row in rows)
        blocks.append(f"{json.dumps(name)}: [\n{body}\n]")
    return '{"commit": %s, "workloads": {\n%s\n}}\n' % (json.dumps(record["commit"]), ",\n".join(blocks))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ospchar.cli as cli

    def is_tame(argv: list[str]) -> bool:
        rc, out, *_ = run_op(cli, ["classify"] + argv[1:])
        return rc == 0 and json.loads(out)["report"]["tame"]

    populations = {
        "census": workloads.census_ops(),
        "char-sweep": [op for op in workloads.sweep_candidates() if is_tame(op)],
        "char-large": workloads.large_ops(),
    }
    record = {"commit": git_commit(), "workloads": {}}
    for name, ops in populations.items():
        rows = []
        for argv in ops:
            rc, out, *_ = run_op(cli, argv)
            if rc != 0:
                print(f"{name}: {' '.join(argv)} failed with {rc}", file=sys.stderr)
                return 1
            rows.append({"argv": argv, "sha256": digest(rc, out)})
        record["workloads"][name] = rows
        print(f"{name}: {len(rows)} operations", file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        fh.write(_dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
