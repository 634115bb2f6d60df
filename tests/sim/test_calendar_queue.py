"""Property tests: the calendar queue dispatches identically to a heap.

The engine's event queue is a two-level calendar queue (level 0: FIFO for
the current timestamp; level 1: per-exact-timestamp buckets indexed by a
heap of distinct times).  DESIGN §16 claims it produces the same
(time, seq) dispatch order as a flat ``heapq`` of ``(time, seq, event)``
triples.  :class:`HeapSimulator` is that flat heap, kept here as the
reference.  These tests drive randomized schedule / cancel / reschedule
scripts through both and require the observed fire orders to match event
for event, including same-timestamp FIFO ties and handle reuse after
cancellation.
"""

from __future__ import annotations

import heapq
import random
from typing import Optional

import pytest

from repro.obs.telemetry import KernelStats
from repro.sim.engine import SimEvent, Simulator, StopSimulation, Timeout


class HeapSimulator(Simulator):
    """The simulator on a flat binary heap of ``(time, seq, event)``.

    The reference queue: every ordering property of the calendar queue
    is checked against it.  It has no cancel-by-handle.
    """

    def __init__(self):
        super().__init__()
        self._heap: list[tuple[float, int, SimEvent]] = []

    def _enqueue(self, delay: float, event: SimEvent) -> None:
        self._eid += 1
        heapq.heappush(self._heap, (self._now + delay, self._eid, event))
        ks = self.kernel_stats
        if ks is not None:
            ks.on_scheduled(event, len(self._heap))

    def _enqueue_abs(self, when: float, event: SimEvent) -> None:
        self._eid += 1
        heapq.heappush(self._heap, (when, self._eid, event))
        ks = self.kernel_stats
        if ks is not None:
            ks.on_scheduled(event, len(self._heap))

    def _cancel_scheduled(self, event: SimEvent, when: float) -> bool:
        return False

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def idle_now(self) -> bool:
        heap = self._heap
        return not heap or heap[0][0] > self._now

    @property
    def heap_depth(self) -> int:
        return len(self._heap)

    def step(self) -> None:
        when, _eid, event = heapq.heappop(self._heap)
        self._now = when
        event._fire()
        # Recycle pooled timeouts: every waiter resumed synchronously
        # inside _fire(), so nothing can reference the event afterwards.
        if type(event) is Timeout and event._pooled:
            self._timeout_pool.append(event)
        ks = self.kernel_stats
        if ks is not None:
            ks.on_fired(event)
        tel = self.telemetry
        if tel is not None:
            tel.on_event(self._now)
        if self._invariants:
            self._run_invariants()

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        self._horizon = float("inf") if until is None else until
        try:
            while self._heap:
                if until is not None and self._heap[0][0] > until:
                    break
                self.step()
        except StopSimulation:
            pass
        if until is not None:
            self._now = max(self._now, until)


# Times are drawn from a coarse grid so same-timestamp ties are common --
# ties are exactly where a broken tie-break would show up.
GRID = [round(i * 0.25, 2) for i in range(24)]


def _make_script(seed: int, n: int) -> list[dict]:
    """A deterministic op script: each op happens at ``at`` sim-time."""
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        at = rng.choice(GRID)
        kind = rng.random()
        fire_delay = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, rng.random()])
        ops.append({
            "at": at,
            "label": f"ev{i}",
            "delay": fire_delay,
            # ~20% of future events get cancelled, ~10% rescheduled
            "cancel_after": rng.choice(GRID) if kind < 0.2 else None,
            "resched": (rng.choice([0.0, 0.25, 0.75])
                        if 0.2 <= kind < 0.3 else None),
        })
    ops.sort(key=lambda op: op["at"])
    return ops


def _run_script(heap: bool, script: list[dict]) -> list[tuple]:
    """Execute the script on one queue; return the observed fire order."""
    sim = HeapSimulator() if heap else Simulator()
    order: list[tuple] = []
    live: dict[str, tuple] = {}  # label -> (event, fire_time)
    dead: set[str] = set()

    def fire(label: str) -> None:
        if label not in dead:
            order.append((round(sim.now, 6), label))

    def do_schedule(label: str, delay: float) -> None:
        ev = sim.schedule(delay, lambda lb=label: fire(lb))
        live[label] = (ev, sim.now + delay)

    def do_cancel(label: str) -> None:
        ev, when = live.get(label, (None, 0.0))
        if ev is None or when <= sim.now:
            return
        if heap:
            # The heap has no cancellation; emulate by muting the callback
            # so the surviving order is comparable.
            dead.add(label)
        elif sim._cancel_scheduled(ev, when):
            # Real removal by handle on the calendar queue.
            dead.add(label)

    for op in script:
        at, label = op["at"], op["label"]

        def run_op(op=op, label=label) -> None:
            do_schedule(label, op["delay"])
            if op["cancel_after"] is not None:
                sim.schedule(op["cancel_after"],
                             lambda lb=label: do_cancel(lb))
            if op["resched"] is not None:
                def resched(lb=label, d=op["resched"]) -> None:
                    do_cancel(lb)
                    do_schedule(lb + "'", d)
                sim.schedule(op["resched"] / 2.0, resched)

        sim.schedule(at, run_op)
    sim.run()
    return order


@pytest.mark.parametrize("seed", range(8))
def test_random_schedule_cancel_reschedule_order_identical(seed):
    script = _make_script(seed, n=120)
    heap_order = _run_script(True, script)
    cal_order = _run_script(False, script)
    assert cal_order == heap_order
    assert heap_order, "script produced no events"


def test_same_timestamp_ties_are_fifo_on_both_backends():
    for sim in (HeapSimulator(), Simulator()):
        seen: list[str] = []
        # All land on t=1.0; insertion order must be preserved.
        for name in "abcdefgh":
            sim.schedule(1.0, lambda n=name: seen.append(n))
        sim.run()
        assert seen == list("abcdefgh"), type(sim).__name__


def test_zero_delay_chain_drains_within_one_batch_in_order():
    """Events enqueued at the current timestamp fire after earlier peers
    but before any later timestamp, in enqueue order — on both queues."""
    results = {}
    for heap in (True, False):
        sim = HeapSimulator() if heap else Simulator()
        seen: list[str] = []

        def chain() -> None:
            seen.append("chain")
            sim.schedule(0.0, lambda: seen.append("child1"))
            sim.schedule(0.0, lambda: seen.append("child2"))

        sim.schedule(1.0, chain)
        sim.schedule(1.0, lambda: seen.append("peer"))
        sim.schedule(1.25, lambda: seen.append("later"))
        sim.run()
        results[heap] = seen
    assert results[False] == results[True]
    assert results[False] == ["chain", "peer", "child1", "child2", "later"]


def test_cancel_by_handle_removes_pending_entry():
    sim = Simulator()
    fired: list[str] = []
    keep = sim.schedule(1.0, lambda: fired.append("keep"))
    drop = sim.schedule(1.0, lambda: fired.append("drop"))
    assert sim.heap_depth == 2
    assert sim._cancel_scheduled(drop, 1.0)
    assert sim.heap_depth == 1
    # a second cancel of the same handle is a no-op
    assert not sim._cancel_scheduled(drop, 1.0)
    sim.run()
    assert fired == ["keep"]
    assert keep.processed


def test_cancelled_handle_reuse_via_timeout_pool():
    """A cancelled pooled timeout can be recycled and re-issued without
    double-firing or perturbing dispatch order (the segmented-hold split
    in resources.py relies on exactly this)."""
    sim = Simulator()
    t = sim.hot_timeout(2.0)
    woke: list[float] = []
    t.add_callback(lambda ev: woke.append(sim.now))
    assert sim._cancel_scheduled(t, 2.0)
    # hand the handle back and re-issue at an earlier time
    t.callbacks = []
    sim._timeout_pool.append(t)
    t2 = sim.hot_timeout(1.0)
    assert t2 is t  # the handle really was reused
    t2.add_callback(lambda ev: woke.append(sim.now))
    sim.run()
    assert woke == [1.0]


def test_peek_and_depth_parity_across_backends():
    for sim in (HeapSimulator(), Simulator()):
        assert sim.peek() == float("inf")
        sim.schedule(2.0, lambda: None)
        sim.schedule(0.5, lambda: None)
        assert sim.peek() == 0.5
        assert sim.heap_depth == 2
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert sim.peek() == 2.0
        assert sim.heap_depth == 1
        sim.run()
        assert sim.heap_depth == 0


def test_peek_skips_fully_cancelled_buckets():
    sim = Simulator()
    only = sim.schedule(1.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    assert sim._cancel_scheduled(only, 1.0)
    assert sim.peek() == 3.0
    sim.run()
    assert sim.now == 3.0


def test_run_until_boundary_parity():
    script = _make_script(seed=99, n=60)
    for until in (1.0, 2.5, 7.0):
        results = {}
        for heap in (True, False):
            sim = HeapSimulator() if heap else Simulator()
            seen: list[tuple] = []
            for op in script:
                sim.schedule(op["at"] + op["delay"],
                             lambda lb=op["label"]: seen.append(
                                 (round(sim.now, 6), lb)))
            sim.run(until=until)
            results[heap] = (seen, sim.now)
        assert results[False] == results[True], until


def test_step_fires_one_event_and_counts_batches():
    ks = KernelStats()
    sim = Simulator()
    ks.attach(sim)
    seen: list[str] = []
    for name in "abc":
        sim.schedule(1.0, lambda n=name: seen.append(n))
    sim.schedule(2.0, lambda: seen.append("d"))
    sim.step()
    assert seen == ["a"]
    sim.run()
    assert seen == ["a", "b", "c", "d"]
    assert ks.batches >= 1
    assert ks.batched_events >= 3
    assert ks.max_batch >= 3
    report = ks.report()
    assert report["batch_dispatch"]["batches"] == ks.batches

    with pytest.raises(IndexError):
        sim.step()


def test_batch_dispatch_counts_every_fired_event():
    """The batch in flight when run() returns is reported too, so every
    fired event belongs to exactly one reported batch."""
    def fresh():
        ks = KernelStats()
        sim = Simulator()
        ks.attach(sim)
        for t in (1.0, 1.0, 2.0, 2.0, 2.0):
            sim.timeout(t)
        return sim, ks

    sim, ks = fresh()
    sim.run()
    report = ks.report()
    assert report["fired_total"] == 5
    assert report["batch_dispatch"]["events"] == 5
    assert report["batch_dispatch"]["batches"] == 2
    assert report["batch_dispatch"]["max"] == 3

    sim, ks = fresh()
    sim.run(until=1.5)
    report = ks.report()
    assert report["fired_total"] == 2
    assert report["batch_dispatch"] == {"batches": 1, "events": 2,
                                        "max": 2, "avg": 2.0}
    sim.run(until=2.0)
    report = ks.report()
    assert report["fired_total"] == 5
    assert report["batch_dispatch"]["events"] == 5


def test_timeout_pool_still_recycles_on_calendar_backend():
    sim = Simulator()

    def proc():
        for _ in range(5):
            yield sim.hot_timeout(0.1)

    sim.process(proc())
    sim.run()
    # steady state is two pooled objects: the resume that requests the next
    # hot timeout runs before the fired one is recycled back into the pool
    assert len(sim._timeout_pool) == 2
    for t in sim._timeout_pool:
        assert isinstance(t, Timeout) and t._pooled
