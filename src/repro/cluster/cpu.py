"""CPU model: a single processor whose speed scales reference work.

All CPU costs in the simulator are expressed as *seconds on the 350 MHz
reference machine*; a 150 MHz node takes 350/150 = 2.33x as long.  This is
the heterogeneity that Figure 3 exploits: "when a complex database query or
a heavy request for a long-running CGI script is dispatched to the node with
a slow processor, it will take orders of magnitude more time".
"""

from __future__ import annotations

from typing import Generator

from ..sim import Resource, Simulator
from ..sim.resources import SEGMENT_SPLIT
from .spec import REFERENCE_MHZ

__all__ = ["Cpu"]


class Cpu:
    """One processor serving bursts FIFO (no preemption; bursts are short)."""

    def __init__(self, sim: Simulator, mhz: float, name: str = ""):
        if mhz <= 0:
            raise ValueError("mhz must be positive")
        self.sim = sim
        self.mhz = mhz
        self.name = name
        self._core = Resource(sim, capacity=1, name=f"{name}.cpu")
        self.busy_seconds = 0.0
        self.bursts = 0

    @property
    def speed_factor(self) -> float:
        return self.mhz / REFERENCE_MHZ

    def scaled(self, reference_seconds: float) -> float:
        """Wall time this CPU needs for ``reference_seconds`` of 350 MHz work."""
        if reference_seconds < 0:
            raise ValueError("work must be non-negative")
        return reference_seconds / self.speed_factor

    def run(self, reference_seconds: float) -> Generator:
        """Execute a burst; use ``yield from cpu.run(...)`` inside a process."""
        duration = self.scaled(reference_seconds)
        core = self._core
        ks = self.sim.kernel_stats
        req = core.try_acquire()
        if req is not None:
            try:
                if ks is not None:
                    ks.on_fast_path("cpu", True)
                yield self.sim.hot_timeout(duration)
            finally:
                core.release(req)
        else:
            if ks is not None:
                ks.on_fast_path("cpu", False)
            # Grant-and-hold: the grant event fires once, at the end
            # of the burst (see Resource.request).
            req = yield core.request(hold=duration)
            core.release(req)
        self.busy_seconds += duration
        self.bursts += 1

    def run_pair(self, first_ref: float, second_ref: float) -> Generator:
        """Two back-to-back bursts as one segmented hold.

        Caller must have verified ``self._core.can_acquire``.
        Uncontended, this costs one scheduled event for both bursts and
        applies the bookkeeping the two-burst event cascade would have
        produced.  A contender arriving at or before the internal boundary
        splits the hold (see :meth:`Resource.hold_segmented`): the first
        burst completes at the boundary exactly as the event path would,
        and the second burst replays through :meth:`run`.
        """
        d1 = self.scaled(first_ref)
        d2 = self.scaled(second_ref)
        core = self._core
        sim = self.sim
        boundary = sim._now + d1
        if boundary + d2 > sim._horizon:
            # A hold truncated by the run deadline would freeze with the
            # boundary bookkeeping unapplied while the event path had
            # already completed the first burst; near the edge, stay
            # event-accurate.
            yield from self.run(first_ref)
            yield from self.run(second_ref)
            return
        req = core.try_acquire()
        try:
            outcome = yield core.hold_segmented(req, d1, d2)
        except BaseException:
            core.release(req)
            raise
        if outcome is SEGMENT_SPLIT:
            core.release(req)
            self.busy_seconds += d1
            self.bursts += 1
            yield from self.run(second_ref)
            return
        # Bookkeeping for the elided boundary: the event path released and
        # instantly re-granted the core there, so the busy integral accrued
        # in two chunks split at the boundary (float addition is not
        # associative -- one (t2-t0) chunk digests differently), and one
        # more zero-wait request was counted.  The core is capacity-1 and
        # we are its sole holder, so the utilization weight is exactly 1.
        if boundary > core._last_change:
            core._busy_integral += boundary - core._last_change
            core._last_change = boundary
        core.release(req)
        core.total_requests += 1
        core.peak_queue_len = max(core.peak_queue_len, 1)
        self.busy_seconds += d1
        self.busy_seconds += d2
        self.bursts += 2

    def utilization(self) -> float:
        return self._core.utilization()

    @property
    def queue_len(self) -> int:
        return self._core.queue_len
