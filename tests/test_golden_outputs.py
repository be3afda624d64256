"""Replay the benchmark's golden outputs through the CLI.

``perfbench/golden.json`` stores, for every benchmark operation, its argv
and sha256("{exit code}\\n{stdout}").  Replaying the workloads here makes
any byte change in ``classify``, ``bottom`` or ``character`` output fail the
tests directly.  The file is only read.  The stdout of ``verify --max-rank 3``
is pinned the same way, by its sha256, with and without the entries of its
newest check.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ospchar import characters
from ospchar.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden.json"
VERIFY_RANK_3_SHA256 = "d0bf4a9db1fb75fd8a40c14f83b7ed0912ad892e0e1555ae2ae9b0b3b753533f"
# the same stdout without the bottom-in-block entries, as it was before that
# check joined the suite
VERIFY_RANK_3_WITHOUT_BOTTOMS_SHA256 = "dd4414e06165e3b780e8f231e57fced60fa08c163ca009d9076401df7cc7039e"


def _changed(rows, capsys) -> list[str]:
    """The argv of every row whose replay differs from its golden digest."""
    assert rows
    changed = []
    for row in rows:
        rc = main(list(row["argv"]))
        out = capsys.readouterr().out
        if hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest() != row["sha256"]:
            changed.append(" ".join(row["argv"]))
    return changed


@pytest.mark.parametrize("workload", ["census", "char-sweep", "char-large"])
def test_replay_matches_golden_digest(workload, capsys):
    rows = json.loads(GOLDEN.read_text())["workloads"][workload]
    changed = _changed(rows, capsys)
    assert not changed, f"{len(changed)} of {len(rows)} outputs changed: {changed[:5]}"


def _clear_tables() -> set[str]:
    """Empty every table the library keeps per process, found rather than
    named: each lru_cache of an ospchar module or of a class defined there,
    and each module-level dict.  Returns their qualified names."""
    cleared = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("ospchar."):
            continue
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == name]
        for holder in [module, *classes]:
            for attr_name, attr in vars(holder).items():
                if hasattr(attr, "cache_clear"):
                    attr.cache_clear()
                    cleared.add(attr.__qualname__)
                elif holder is module and isinstance(attr, dict) and not attr_name.startswith("__"):
                    attr.clear()
                    cleared.add(attr_name)
    return cleared


@pytest.mark.parametrize("workload", ["char-sweep", "char-large"])
def test_reverse_replay_from_empty_weyl_factor_tables(workload, capsys):
    # the chamber maps, the delta characters, the walk plans and every other
    # table are memoized for the whole process, so a character must not
    # depend on which characters filled the tables first
    cleared = _clear_tables()
    assert cleared >= {
        "weyl_factor",
        "WeylFactor.children",
        "WeylFactor.straighten",
        "WeylFactor.orbit",
        "_DELTA_CHARACTERS",
        "_walk_plan",
    }, cleared
    rows = json.loads(GOLDEN.read_text())["workloads"][workload][::-1]
    changed = _changed(rows, capsys)
    assert not changed, f"{len(changed)} of {len(rows)} outputs changed: {changed[:5]}"


def test_memoized_delta_characters_of_the_sweep_equal_fresh_ones(capsys):
    # each table entry was filled in one Racah walk with other labels;
    # alone, labelled by itself, its nu_delta must give the same character
    characters._DELTA_CHARACTERS.clear()
    rows = json.loads(GOLDEN.read_text())["workloads"]["char-sweep"]
    assert not _changed(rows, capsys)
    table = dict(characters._DELTA_CHARACTERS)
    assert table
    for (delta, nu), character in table.items():
        fresh = characters._racah(delta, {nu: {nu: 1}})
        assert character == {mu: by_label[nu] for mu, by_label in fresh.items()}, nu


def test_verify_rank_3_matches_its_digest(capsys):
    # every check's name, verdict and detail on the 15 algebras of rank <= 3
    assert main(["verify", "--max-rank", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_RANK_3_SHA256
    # the older checks' entries are unchanged, written the same way
    payload = json.loads(out)
    bottoms = [c for c in payload["checks"] if c["check"] == "bottom-in-block"]
    assert len(bottoms) == 15 and all(c["pass"] for c in bottoms)
    payload["checks"] = [c for c in payload["checks"] if c["check"] != "bottom-in-block"]
    old = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(old.encode()).hexdigest() == VERIFY_RANK_3_WITHOUT_BOTTOMS_SHA256


def _benchmark_oracles(monkeypatch):
    """perfbench/oracles.py, loaded by path under its own module name (the
    tests' own oracles module holds the name ``oracles``), writing nothing."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_oracles", PERFBENCH / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrong_k(payload):
    payload["report"]["k"] += 1


def _untamed_bottom(payload):
    payload["trace"]["result"] = [6, 6, 5, 2, 1, 1]


@pytest.mark.parametrize(
    "argv, tamper",
    [
        (["classify", "--algebra", "B:3:3", "--partition", "5"], _wrong_k),
        (["bottom", "--algebra", "B:3:3", "--partition", "6,6,5,2,1,1"], _untamed_bottom),
    ],
    ids=["classify", "bottom"],
)
def test_benchmark_oracles_import_and_check_cli_output(argv, tamper, capsys, monkeypatch):
    # the benchmark's correctness gate imports library names; a move that
    # breaks one of those imports fails here, not only inside the benchmark
    oracles = _benchmark_oracles(monkeypatch)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert oracles.check(list(argv), out) is None
    payload = json.loads(out)
    tamper(payload)
    assert oracles.check(list(argv), json.dumps(payload)) is not None
