"""Timing on a machine whose speed drifts.

The benchmark was written on a shared virtual machine whose speed switches
between states about 1.7 times apart, for seconds to minutes at a time, so
the raw times of identical runs spread by 10-40% (NOTES.md).  A Stopwatch
therefore runs a short fixed probe just before and just after each block it
times and every PROBE_INTERVAL_S during it.  Besides the raw wall and CPU
time it gives the block's time at reference speed: its wall time times the
mean rate of the probes (probes per second) is the number of probes the
machine could have run in the block, and that times REFERENCE_PROBE_S is the
time the block would take where one probe takes REFERENCE_PROBE_S.  A switch
of state within the block counts for its share of the block.  The probes'
own time is left out of every time a Stopwatch gives.

The probe does the kind of work the program's inner loops do: a memoised
recursion over tuple keys that builds frozensets of lengths.  This module
imports only gc, signal and time, so that it can time the set-up of a fresh
process from its first line.
"""

import gc
import signal
from time import perf_counter, process_time

PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.001
_PARTS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
    (1, 0, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1),
)
_TARGET = (5, 4, 4)


def probe():
    """Run the probe once and return its wall time.

    Garbage collection is off meanwhile: a collection would traverse the
    program's heap, whose size varies between blocks."""
    memo = {}

    def lengths(v):
        hit = memo.get(v)
        if hit is not None:
            return hit
        if not any(v):
            result = frozenset((0,))
        else:
            acc = set()
            for p in _PARTS:
                if p[0] <= v[0] and p[1] <= v[1] and p[2] <= v[2]:
                    acc.update(n + 1 for n in lengths((v[0] - p[0], v[1] - p[1], v[2] - p[2])))
            result = frozenset(acc)
        memo[v] = result
        return result

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        lengths(_TARGET)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Time of the ``with`` blocks it guards, summed: ``wall`` and ``cpu``
    raw, ``ref`` at reference speed (see the module's docstring).

    While a block runs, SIGALRM runs the probe; blocks must not nest.  The
    handler re-arms the timer only while the block runs, so that no alarm
    outlives it and meets the default SIGALRM action."""

    def __init__(self):
        self.wall = self.cpu = self.ref = 0.0

    def _sample(self, *_):
        wall, cpu = perf_counter(), process_time()
        self._rates.append(1.0 / probe())
        self._probe_wall += perf_counter() - wall
        self._probe_cpu += process_time() - cpu
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __enter__(self):
        self._rates = [1.0 / probe()]
        self._probe_wall = self._probe_cpu = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        self._wall, self._cpu = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        # A probe that ran during the three calls above is inside the interval.
        wall = perf_counter() - self._wall - self._probe_wall
        cpu = process_time() - self._cpu - self._probe_cpu
        self._rates.append(1.0 / probe())
        self.wall += wall
        self.cpu += cpu
        self.ref += wall * sum(self._rates) / len(self._rates) * REFERENCE_PROBE_S
