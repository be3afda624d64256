"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import GOLDEN, LAYER_METRICS, END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"census": 6, "char-sweep": 4, "char-large": 1}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {n: u for n, u, *_ in LAYER_METRICS}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    rc, out = bench(
        "--workload", workload, "--seed", "7", "--seconds", "0.1",
        "--trace", str(trace), "--limit", str(TINY[workload]),
    )
    result = json.loads(out.splitlines()[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}


def test_tampered_golden_digest_fails(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    first = golden["workloads"]["census"][0]
    first["sha256"] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    rc, out = bench(
        "--workload", "census", "--seed", "3", "--seconds", "0.1", "--trace", "0",
        "--limit", "2", "--golden", str(tampered),
    )
    result = json.loads(out.splitlines()[-1])
    assert rc == 1 and not result["correct"] and result["failed"] >= 1


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    rc, out = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert rc != 0 and out == ""


@pytest.mark.parametrize(
    "argv, tamper",
    [
        (["character", "--algebra", "B:1:1", "--partition", "2"], lambda p: p.update(dim=str(int(p["dim"]) + 1))),
        (["character", "--algebra", "D:2:1", "--partition", "2,2"], lambda p: p["character"][0].update(coef="7")),
        (["classify", "--algebra", "B:2:2", "--partition", "2,1"], lambda p: p["report"].update(k=p["report"]["k"] + 1)),
        (["bottom", "--algebra", "B:2:2", "--partition", "3,3"], lambda p: p["trace"].update(result=[1])),
    ],
)
def test_oracles_reject_a_wrong_output(monkeypatch, argv, tamper):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import ospchar.cli as cli
    import oracles
    from worker import run_op

    rc, out, *_ = run_op(cli, argv)
    assert rc == 0 and oracles.check(argv, out) is None
    payload = json.loads(out)
    tamper(payload)
    assert oracles.check(argv, json.dumps(payload)) is not None


def test_tracer_wraps_every_binding_and_survives_a_missing_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import ospchar.characters
    import ospchar.cli as cli
    import ospchar.rootdata
    from tracer import Tracer
    from worker import run_op

    original = ospchar.rootdata.borel_from_sequence
    monkeypatch.delattr(ospchar.rootdata, "weyl_alternating_sum")
    tracer = Tracer()
    tracer.install()
    try:
        assert ospchar.cli.borel_from_sequence is not original
        rc, *_ = run_op(cli, ["character", "--algebra", "B:1:1", "--partition", "2"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert ospchar.rootdata.borel_from_sequence is original
    summary = tracer.summary()
    assert summary["rootdata.weyl_alternating_sum"]["calls"] == 0
    assert summary["characters.kw_character"]["calls"] == 1
    assert summary["exactnum.divide_by_factors"]["calls"] == 1


def test_host_speed_scaling_removes_probe_time_and_slowdown():
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    # Probes every 0.1 s: the host runs at reference speed until t = 1, then half as fast.
    speed.samples = [
        (t / 10, t / 10 + took, took)
        for t in range(40)
        for took in [REFERENCE_S if t < 10 else 2 * REFERENCE_S]
    ]
    scaled = speed.scaler()
    assert scaled(0.35, 0.01) == pytest.approx(0.01)
    assert scaled(2.05, 0.04) == pytest.approx(0.02)
    # An interval holding one probe: the probe's time is not the program's.
    assert scaled(2.09, 0.02) == pytest.approx((0.02 - 2 * REFERENCE_S) / 2)
    # An interval across the change is scaled piece by piece, cut at the probe.
    pieces = (1.0 + REFERENCE_S - 0.95) + (1.05 - 1.0 - REFERENCE_S) / 2
    assert scaled(0.95, 0.1) == pytest.approx(pieces * (0.1 - 2 * REFERENCE_S) / 0.1)
