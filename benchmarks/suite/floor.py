"""The kernel floor: a minimal heap-and-tombstone event loop.

``sim.self_ns_per_event`` says what the simulator's kernel costs per
event; this module says what *any* Python event loop costs per event,
so the first number can be read against an honest floor.  The loop is
the plain discrete-event design: one ``heapq`` of ``(time, sequence,
event)`` entries, cancellation by tombstone (the entry stays queued and
is skipped when popped), and a callback per event.

:func:`floor_ns_per_event` replays a traced run's event count with the
same mix: the share of events due at the current timestamp, the share
of scheduled events later cancelled, and the pending-queue population.
Every fired event schedules its successor, so the population holds.
All random draws happen before the timed loop.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time

__all__ = ["FloorKernel", "floor_ns_per_event"]


class _Event:
    __slots__ = ("callback", "removed")

    def __init__(self, callback):
        self.callback = callback
        self.removed = False


class FloorKernel:
    """Heap of (time, seq, event); cancelled events are tombstoned."""

    def __init__(self):
        self.queue: list = []
        self.now = 0.0
        self.fired = 0
        self._seq = itertools.count()

    def schedule(self, delay: float, callback) -> _Event:
        event = _Event(callback)
        heapq.heappush(self.queue, (self.now + delay, next(self._seq), event))
        return event

    def run(self, limit: int) -> None:
        queue, pop = self.queue, heapq.heappop
        while queue and self.fired < limit:
            when, _, event = pop(queue)
            if event.removed:
                continue
            self.now = when
            self.fired += 1
            event.callback()


def floor_ns_per_event(events: int, same_time_share: float,
                       cancel_share: float, population: int,
                       seed: int = 0) -> float:
    """Host ns per fired event of :class:`FloorKernel` on the given mix."""
    events = max(1, events)
    population = max(1, population)
    rng = random.Random(seed)
    delays = [0.0 if rng.random() < same_time_share else rng.random()
              for _ in range(events + population)]
    cancels = [rng.random() < cancel_share for _ in range(events)]
    kernel = FloorKernel()
    schedule = kernel.schedule
    counter = itertools.count(population)

    def fire():
        i = next(counter)
        schedule(delays[i], fire)
        if cancels[i - population]:
            schedule(delays[i], fire).removed = True

    for i in range(population):
        schedule(delays[i] + 1e-9, fire)
    start = time.perf_counter_ns()
    kernel.run(events)
    return (time.perf_counter_ns() - start) / kernel.fired
