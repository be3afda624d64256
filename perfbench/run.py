"""ospchar benchmark: seeded workloads through ``ospchar.cli.main``, checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Load model: closed loop, one client, one process, one thread; each
operation starts when the previous one returns.  A pass runs the
workload's whole operation list, in seed-shuffled order, inside a fresh
interpreter (``worker.py``), so caches start cold as they do for a CLI user
and their warm-up is measured.  A run repeats passes for ``--seconds``.

Timings are scaled to a fixed host speed.  The shared host's CPU runs up
to 1.8x slower for seconds to minutes at a time, longer than a pass and
often longer than a run, so raw times spread past any useful bound from run
to run.  Each pass therefore times a fixed probe loop every 25 ms while the
operations run (``hostspeed.py``), and each operation's latency, less the
probe's own time, is scaled by the probe's reference time over its time
around that operation (piece by piece where the speed changed during it);
traced spans are scaled the same way.  An operation's latency is the median
of its scaled latencies over the run's passes; ``ops_per_s`` is the
operation count over the sum of those, ``latency_p50_ms`` and
``latency_p90_ms`` their deciles.  ``setup_s`` is
the median scaled time of ``import ospchar.cli`` over several import-only
interpreters and every pass; ``peak_rss_mb`` the median of each pass's
``ru_maxrss``.  The unscaled figures go to stderr and the run record.

Every operation's stdout digest is compared with ``golden.json``; the first
pass of a run also goes through the oracles in ``oracles.py``.  Any failure
makes ``correct`` false and the exit code 1.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes, checks that their digests agree and
reports the difference in operation time as ``trace.overhead_pct``.

Each run appends its values to ``perfbench/results/<workload>-trace<t>.jsonl``
and rewrites ``<workload>-trace<t>.json``: every metric's unit, sample
count, median and quartiles across the runs of the same commit, with the
interpreter version, nproc and commit.  A traced run also writes its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from workloads import WHY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 10  # import-only interpreters per untraced run
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit, traced function, field).  Field "calls",
# "s" (inclusive seconds) or "self_s" comes from the spans; "pct" and
# "self_pct" are those times as a share of the pass's operation time, used
# for layers some workload never enters, so that no time reads a constant 0;
# any other field is a count taken at the function's boundary.
#
# What each should move, and where:
#   borel_from_sequence calls/s        ops_per_s, latency_p50_ms on census, char-sweep
#   is_tame calls/self_s               latency_p50_ms on census, char-sweep (twice per character)
#   highest_weight self, odd_reflection latency_p50_ms on char-sweep
#   bottom_of_block self/steps         latency_p90_ms on census
#   weyl_alternating_sum               ops_per_s on char-large (B:2:3), latency_p90_ms on char-sweep
#   divide_by_factors, exact_divide    ops_per_s, peak_rss_mb on char-large (D:3:2)
#   mul, kw_character self             ops_per_s on char-large
#   cli.main self, output_bytes        latency_p50_ms on census, peak_rss_mb on char-large
LAYER_METRICS = (
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.output_bytes", "bytes", None, None),
    ("atyp.is_tame.calls", "count", "atyp.is_tame", "calls"),
    ("atyp.is_tame.self_s", "s", "atyp.is_tame", "self_s"),
    ("rootdata.borel_from_sequence.calls", "count", "rootdata.borel_from_sequence", "calls"),
    ("rootdata.borel_from_sequence.s", "s", "rootdata.borel_from_sequence", "s"),
    ("rootdata.odd_reflection.calls", "count", "rootdata.odd_reflection", "calls"),
    ("hook.highest_weight_via_reflections.self_pct", "%", "hook.highest_weight_via_reflections", "self_pct"),
    ("blocks.bottom_of_block.self_pct", "%", "blocks.bottom_of_block", "self_pct"),
    ("blocks.bottom_of_block.steps", "count", "blocks.bottom_of_block", "steps"),
    ("rootdata.weyl_alternating_sum.pct", "%", "rootdata.weyl_alternating_sum", "pct"),
    ("rootdata.weyl_alternating_sum.terms_in", "count", "rootdata.weyl_alternating_sum", "terms_in"),
    ("rootdata.weyl_alternating_sum.terms_out", "count", "rootdata.weyl_alternating_sum", "terms_out"),
    ("rootdata.weyl_alternating_sum.images", "count", "rootdata.weyl_alternating_sum", "images"),
    ("exactnum.divide_by_factors.pct", "%", "exactnum.divide_by_factors", "pct"),
    ("exactnum.divide_by_factors.terms_in", "count", "exactnum.divide_by_factors", "terms_in"),
    ("exactnum.divide_by_factors.terms_out", "count", "exactnum.divide_by_factors", "terms_out"),
    ("exactnum.exact_divide.calls", "count", "exactnum.exact_divide", "calls"),
    ("exactnum.mul.pct", "%", "exactnum.mul", "pct"),
    ("exactnum.mul.term_pairs", "count", "exactnum.mul", "term_pairs"),
    ("characters.kw_character.self_pct", "%", "characters.kw_character", "self_pct"),
    ("trace.overhead_pct", "%", None, None),
)


SHARE_OF = {"pct": "s", "self_pct": "self_s"}


class BenchError(Exception):
    """The benchmark cannot measure: a pass broke down or ran out of time."""


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def load_ops(golden_path: str, workload: str, seed: int, limit: int | None) -> list[dict]:
    with open(golden_path) as fh:
        rows = json.load(fh)["workloads"][workload]
    rows = rows[:limit] if limit else list(rows)
    random.Random(f"{workload}:{seed}").shuffle(rows)
    return rows


class Run:
    """One workload run: passes in fresh interpreters until the time is used."""

    def __init__(self, rows: list[dict], seconds: float, started: float):
        self.rows = rows
        self.seconds = seconds
        self.started = started
        self.attempted = 0
        self.failures: list[str] = []

    def _worker(self, ops: list, trace: bool = False, check: bool = False, spans: str | None = None) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("no time left for another pass")
        spec = json.dumps({"ops": ops, "trace": trace, "check": check, "spans": spans})
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py")],
                input=spec, capture_output=True, text=True, cwd=ROOT, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"a pass ran past the {DEADLINE_S} s deadline") from exc
        if done.returncode != 0:
            raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout)

    def setup_probe(self) -> dict:
        return self._worker([])

    def run_pass(self, trace: bool = False, check: bool = False, spans: str | None = None) -> dict:
        result = self._worker([row["argv"] for row in self.rows], trace, check, spans)
        self.attempted += len(self.rows)
        label = "traced pass" if trace else "pass"
        for row, rc, sha in zip(self.rows, result["rcs"], result["digests"]):
            if rc != 0:
                self.failures.append(f"{label}: {' '.join(row['argv'])}: exit {rc}")
            elif sha != row["sha256"]:
                self.failures.append(f"{label}: {' '.join(row['argv'])}: output differs from golden.json")
        for i, reason in result["failures"]:
            self.failures.append(f"{label}: {' '.join(self.rows[i]['argv'])}: {reason}")
        return result

    def repeat(self, one_round) -> None:
        """Call one_round(index) until another round would overrun the time."""
        begin = time.monotonic()
        shortest = None
        rounds = 0
        while True:
            start = time.monotonic()
            one_round(rounds)
            rounds += 1
            took = time.monotonic() - start
            shortest = took if shortest is None else min(shortest, took)
            if time.monotonic() - begin + shortest > self.seconds:
                return


def decile(values: list[float], k: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def median_per_op(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes (same order in each)."""
    return [statistics.median(column) for column in zip(*passes)]


def timings(setups: list[float], passes: list[list[float]]) -> dict[str, float]:
    per_op = median_per_op(passes)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": 1000 * decile(per_op, 5),
        "latency_p90_ms": 1000 * decile(per_op, 9),
    }


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the same timings unscaled."""
    probes = [run.setup_probe() for _ in range(SETUP_PROBES)]
    setups = [p["setup_scaled_s"] for p in probes]
    raw_setups = [p["setup_s"] for p in probes]
    scaled, raw, rss_mb = [], [], []

    def one_pass(index: int) -> None:
        result = run.run_pass(check=index == 0)
        setups.append(result["setup_scaled_s"])
        raw_setups.append(result["setup_s"])
        scaled.append(result["scaled"])
        raw.append(result["latencies"])
        rss_mb.append(result["rss_kb"] / 1024)

    run.repeat(one_pass)
    values = timings(setups, scaled)
    values["peak_rss_mb"] = statistics.median(rss_mb)
    return values, timings(raw_setups, raw)


def layer_values(result: dict) -> dict[str, float]:
    total = sum(result["scaled"])
    functions, counts = result["layers"]["functions"], result["layers"]["counts"]
    out = {"cli.output_bytes": result["output_bytes"]}
    for name, _, function, field in LAYER_METRICS:
        if function is None:
            continue
        if field in ("calls", "s", "self_s"):
            out[name] = functions[function][field]
        elif field in SHARE_OF:
            out[name] = 100 * functions[function][SHARE_OF[field]] / total
        else:
            out[name] = counts.get(f"{function}.{field}", 0)
    return out


def per_layer(run: Run, spans_path: str) -> dict[str, float]:
    """Medians over the traced passes, each paired with an untraced one."""
    samples: dict[str, list[float]] = {}
    plain, traced = [], []

    def one_pair(index: int) -> None:
        untraced = run.run_pass(check=index == 0)
        result = run.run_pass(trace=True, spans=spans_path)
        if untraced["digests"] != result["digests"]:
            run.failures.append("traced pass output differs from the untraced pass")
        plain.append(untraced["scaled"])
        traced.append(result["scaled"])
        for name, value in layer_values(result).items():
            samples.setdefault(name, []).append(value)

    run.repeat(one_pair)
    values = {name: statistics.median(v) for name, v in samples.items()}
    base = sum(median_per_op(plain))
    values["trace.overhead_pct"] = 100 * (sum(median_per_op(traced)) - base) / base
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def record(
    workload: str, args, run: Run, values: dict[str, float], units: dict[str, str], unscaled: dict[str, float]
) -> dict:
    """Append this run to the workload's history and summarise that history."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload}-trace{args.trace}")
    commit = git_commit()
    line = {
        "seed": args.seed, "seconds": args.seconds, "commit": commit, "operations": len(run.rows),
        "attempted": run.attempted, "failed": len(run.failures), "metrics": values, "unscaled": unscaled,
    }
    with open(stem + ".jsonl", "a") as fh:
        fh.write(json.dumps(line) + "\n")
    with open(stem + ".jsonl") as fh:
        history = [json.loads(text) for text in fh if text.strip()]
    history = [
        h for h in history
        if (h["commit"], h["seconds"], h["operations"]) == (commit, args.seconds, len(run.rows))
    ]
    table = {}
    for name, unit in units.items():
        q1, med, q3 = quartiles([h["metrics"][name] for h in history])
        table[name] = {"unit": unit, "samples": len(history), "median": med, "q1": q1, "q3": q3}
    attempted = sum(h["attempted"] for h in history)
    summary = {
        "workload": workload,
        "why": WHY[workload],
        "trace": args.trace,
        "runs": len(history),
        "seeds": [h["seed"] for h in history],
        "error_rate": sum(h["failed"] for h in history) / attempted,
        "metrics": table,
        "last_failures": run.failures[:50],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def measure(workload: str, args, started: float) -> dict:
    run = Run(load_ops(args.golden, workload, args.seed, args.limit), args.seconds, started)
    if args.trace:
        os.makedirs(RESULTS, exist_ok=True)
        values = per_layer(run, os.path.join(RESULTS, f"{workload}-seed{args.seed}-spans.json"))
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        unscaled = {}
    else:
        values, unscaled = end_to_end(run)
        units = END_TO_END
    summary = record(workload, args, run, values, units, unscaled)
    print(
        f"# {workload}  seed {args.seed}  {len(run.rows)} operations  "
        f"error_rate {len(run.failures) / run.attempted:.4g} ({len(run.failures)}/{run.attempted})  "
        f"quartiles over {summary['runs']} run(s) of this commit",
        file=sys.stderr,
    )
    for name, row in summary["metrics"].items():
        print(
            f"{name:<46}{values[name]:>14.6g} {row['unit']:<6} "
            f"median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}",
            file=sys.stderr,
        )
    for name, value in unscaled.items():
        print(f"{name + ' unscaled':<46}{value:>14.6g} {END_TO_END[name]}", file=sys.stderr)
    for failure in run.failures[:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ospchar benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, help="run only the first N operations of each population")
    parser.add_argument("--golden", default=GOLDEN, help="expected outputs (default: golden.json)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ospchar", "cli.py")):
        print(f"ospchar sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            results[workload] = measure(workload, args, time.monotonic())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
