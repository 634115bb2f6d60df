"""Reading the host's speed while the load phase runs.

The suite runs on shared hosts whose speed drifts by tens of percent
over minutes, far more than the medians of one run can absorb.  So every
untraced child times a fixed *reference slice* (generator resumes and
dict stores, the simulator's own staple) every ``INTERVAL_S`` of wall
time during its load phase.  The slices run in a ``SIGALRM`` handler,
between two bytecodes of the simulator, and touch no simulated state;
their time is taken out of the load time, and their median over
``NOMINAL_SLICE_S`` says how slow the host was while the load ran.

The load does not slow down one-for-one with the slice: on a shared
2-core Xeon (2.1 GHz) container, over 36 runs of three workloads,
load time followed median slice time with an exponent of about 0.6
(log-log least squares, correlation 0.85) -- a tight loop loses more
to a busy sibling hardware thread than the memory-bound simulator does.
:func:`factor` scales by that power.
"""

from __future__ import annotations

import signal
import statistics
import time

__all__ = ["HostSpeedProbe", "factor", "reference_slice"]

SLICE_ITERATIONS = 8000
INTERVAL_S = 0.05
#: median slice time on that container, idle
NOMINAL_SLICE_S = 0.001
EXPONENT = 0.6


def reference_slice(n: int = SLICE_ITERATIONS) -> float:
    """Host seconds for ``n`` rounds of the reference loop."""
    def proc():
        x = 0
        while True:
            x = yield x + 1

    gens = [proc() for _ in range(64)]
    for gen in gens:
        next(gen)
    table = {}
    start = time.perf_counter()
    for i in range(n):
        table[i & 4095] = gens[i & 63].send(i)
    return time.perf_counter() - start


def factor(slowness: float | None) -> float:
    """How much slower than nominal the load ran (1 when unknown)."""
    return 1.0 if slowness is None else slowness ** EXPONENT


class HostSpeedProbe:
    """Reference slices on a wall-clock timer (see the module doc)."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        #: wall time spent in the handler, to take out of the load time
        self.spent_s = 0.0

    @staticmethod
    def available() -> bool:
        return hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.slices.append(reference_slice())
        self.spent_s += time.perf_counter() - start

    @property
    def slowness(self) -> float | None:
        """Median slice over the nominal one; None without slices."""
        if not self.slices:
            return None
        return statistics.median(self.slices) / NOMINAL_SLICE_S
