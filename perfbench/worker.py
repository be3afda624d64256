"""One pass of a workload inside a fresh interpreter.

Reads a JSON spec on stdin: ``{"ops": [argv, ...], "trace": bool,
"check": bool, "spans": path or null}``.  Times ``import ospchar.cli``, then
calls ``ospchar.cli.main(argv)`` for each operation in order (closed loop,
one thread), with stdout and stderr captured in memory.  A host-speed probe
(``hostspeed.py``) runs throughout; each time is reported both as measured
and scaled to the probe's reference speed.  Digests, oracle checks and the
span dump happen after the timed loop.  Writes one JSON object to stdout.

Usage (as run.py starts it): python3 perfbench/worker.py < spec.json
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(rc, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def run_op(cli, argv: list[str]) -> tuple[object, str, float, float]:
    """(exit code or exception text, captured stdout, start, seconds) of cli.main(argv).

    ``main`` is looked up on the module per call, so a traced wrapper is used.
    """
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - start
        sys.stdout, sys.stderr = real_out, real_err
    return rc, out.getvalue(), start, seconds


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    speed = HostSpeed()
    speed.start()
    setup_start = perf_counter()
    import ospchar.cli as cli

    setup_s = perf_counter() - setup_start
    ops = spec["ops"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rcs, outs, starts, lat = [], [], [], []
    for i, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        rc, out, start, seconds = run_op(cli, argv)
        rcs.append(rc)
        outs.append(out)
        starts.append(start)
        lat.append(seconds)
    speed.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = speed.scaler()

    result = {
        "setup_s": setup_s,
        "setup_scaled_s": scaled(setup_start, setup_s),
        "latencies": lat,
        "scaled": [scaled(start, seconds) for start, seconds in zip(starts, lat)],
        "rcs": rcs,
        "digests": [digest(rc, out) for rc, out in zip(rcs, outs)],
        "output_bytes": sum(len(out.encode()) for out in outs),
        "rss_kb": rss_kb,
        "failures": [],
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {"functions": tracer.summary(scaled), "counts": dict(tracer.counts)}
        if spec.get("spans"):
            tracer.write(spec["spans"])
    if spec["check"]:
        import oracles

        for i, (argv, rc, out) in enumerate(zip(ops, rcs, outs)):
            if rc != 0:
                continue  # already a failure against the golden record
            try:
                reason = oracles.check(argv, out)
            except Exception as exc:  # a broken output must not hide the others
                reason = f"oracle raised {type(exc).__name__}: {exc}"
            if reason:
                result["failures"].append([i, reason])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
