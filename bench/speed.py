"""The host's speed, sampled while the benchmark's work runs.

On a shared host the same pure-Python work runs up to 1.7x slower in some
spells than in others, and a spell lasts from seconds to minutes, so run
lengths the benchmark can afford do not average it out.  A `Speedometer`
therefore interleaves a probe with the work: every `PERIOD_S` of wall time a
SIGALRM handler times `PROBE_LOOPS` turns of a fixed loop.  The handler runs
in the main thread between bytecodes, so the probes see the same spells as
the work around them.  `reference_seconds` converts a time measured during
the probes to what it would have been at the reference speed, at which one
probe takes `PROBE_REFERENCE_S`.

This module imports only `signal` and `time`, so that the set-up
measurement can load it without loading any module samplerlang needs.
"""
from __future__ import annotations

import signal
from time import perf_counter

#: wall time between probes
PERIOD_S = 0.05
#: turns of the probe loop: about 1 ms, so probing costs about 2 % of the time
PROBE_LOOPS = 10000
#: one probe's median time on the reference host (2.0 GHz Xeon, Python 3.11),
#: where a reference second is a second
PROBE_REFERENCE_S = 0.00100
#: probes per span at the least: a short span is probed again after its end
MIN_PROBES = 5


def probe() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return perf_counter() - t0


class Speedometer:
    """Probe times of one span of work, from `start` to `stop`."""

    def __init__(self):
        self.probes: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        self.probes.append(probe())

    def start(self) -> None:
        self.probes = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, *args):
        """fn(*args), its time less the probes' and that time in reference seconds."""
        self.start()
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = perf_counter() - t0
            self.stop()
        seconds = elapsed - sum(self.probes)
        while len(self.probes) < MIN_PROBES:
            self.probes.append(probe())
        return out, seconds, reference_seconds(seconds, self.probes)


def reference_seconds(seconds: float, probes: list[float]) -> float:
    """`seconds` scaled by the reference probe time over the median probe time."""
    ordered = sorted(probes)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return seconds * PROBE_REFERENCE_S / median
