"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.8x, in periods of seconds to minutes: the same fixed Python loop takes
20 ms at one moment and 40 ms a few seconds later, and wall time equals
thread CPU time throughout, so the slowdown is the CPU's, not the scheduler's.
Such periods outlast a pass and often a whole run, so no statistic over a
run's raw times removes them.

A ``HostSpeed`` times a fixed pure-Python loop (``probe``) every
``INTERVAL_S`` seconds from a SIGALRM handler, in the worker's own thread,
while the operations run.  The loop allocates no object the garbage
collector tracks, so it leaves the program's collections where they were.
The function ``scaler()`` returns takes a measured interval, removes the
probe time that fell inside it and multiplies the rest by ``REFERENCE_S``
over the probe time around it: seconds at the speed at which the probe
takes ``REFERENCE_S``, about the fast periods of the 2-core host it was
tuned on.  A program that does half the work reads about half the scaled
time at any host speed.  Not exactly: in slow periods the program slows
somewhat more than the probe (a pass's scaled time rose up to ~20 % where
its raw time rose 80 %), so the benchmark still takes medians over passes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PROBE_ROUNDS = 2000
REFERENCE_S = 0.00025  # probe time at the reference speed
INTERVAL_S = 0.025  # probe period
WINDOW_S = 0.2  # a probe's speed is the median of the probes this near

_TABLE = {i: (i * 7919) % 1009 for i in range(512)}


def probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds taken by a fixed loop of dict lookups and int arithmetic."""
    table = _TABLE
    start = perf_counter()
    acc = 0
    for i in range(rounds):
        acc = (acc + table[i & 511] * i) % 1000003
    return perf_counter() - start


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, probe seconds)
        self._previous = None

    def _sample(self, *_) -> None:
        start = perf_counter()
        took = probe()
        self.samples.append((start, perf_counter(), took))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def scaler(self):
        """A function (start, seconds) -> seconds at the reference speed.

        Each probe's speed is the median of the probes within ``WINDOW_S``
        of it, which drops a probe that a timer interrupt lengthened.  An
        interval is cut at the probes' midpoints and each piece is scaled
        by the speed of the probe it follows, so an operation that spans a
        change of host speed is scaled piece by piece.
        """
        starts = [s for s, _, _ in self.samples]
        ends = [e for _, e, _ in self.samples]
        middles = [(s + e) / 2 for s, e, _ in self.samples]
        took = [t for _, _, t in self.samples]
        factor = []
        for middle in middles:
            lo = bisect.bisect_left(middles, middle - WINDOW_S)
            hi = bisect.bisect_right(middles, middle + WINDOW_S)
            factor.append(REFERENCE_S / statistics.median(took[lo:hi]))

        def scaled(start: float, seconds: float) -> float:
            end = start + seconds
            first, last = bisect.bisect_left(starts, start), bisect.bisect_right(ends, end)
            inside = sum(ends[i] - starts[i] for i in range(first, last))
            k = max(bisect.bisect_right(middles, start) - 1, 0)
            total, at = 0.0, start
            while at < end:
                cut = middles[k + 1] if k + 1 < len(middles) else end
                piece_end = min(cut, end)
                total += (piece_end - at) * factor[k]
                at = piece_end
                k = min(k + 1, len(middles) - 1)
            return total * (seconds - inside) / seconds if seconds > 0 else 0.0

        return scaled
