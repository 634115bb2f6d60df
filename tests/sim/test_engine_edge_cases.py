"""Edge-case and property tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import KernelStats
from repro.sim import AllOf, AnyOf, Interrupt, Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestConditionFailures:
    def test_all_of_fails_if_component_fails(self, sim):
        caught = []

        def child_ok():
            yield sim.timeout(1.0)

        def child_bad():
            yield sim.timeout(2.0)
            raise ValueError("bad child")

        def parent():
            try:
                yield AllOf(sim, [sim.process(child_ok()),
                                  sim.process(child_bad())])
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["bad child"]

    def test_any_of_fails_if_first_event_fails(self, sim):
        caught = []

        def child_bad():
            yield sim.timeout(1.0)
            raise ValueError("early failure")

        def parent():
            try:
                yield AnyOf(sim, [sim.process(child_bad()),
                                  sim.timeout(10.0)])
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["early failure"]

    def test_any_of_success_defuses_later_failure(self, sim):
        """A condition observes its components, so a failure landing after
        the condition already fired is absorbed (SimPy semantics) -- the
        failed process still records its exception."""
        log = []

        def child_bad():
            yield sim.timeout(5.0)
            raise ValueError("late")

        bad_proc = None

        def parent():
            nonlocal bad_proc
            bad_proc = sim.process(child_bad())
            result = yield AnyOf(sim, [sim.timeout(1.0, value="fast"),
                                       bad_proc])
            log.append(list(result.values()))

        sim.process(parent())
        sim.run()  # must not raise: the condition observed the failure
        assert log == [["fast"]]
        assert not bad_proc.ok
        with pytest.raises(ValueError):
            _ = bad_proc.value


class TestProcessJoinChains:
    def test_deep_join_chain(self, sim):
        order = []

        def worker(depth):
            if depth > 0:
                yield sim.process(worker(depth - 1))
            yield sim.timeout(1.0)
            order.append(depth)

        sim.process(worker(5))
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]
        assert sim.now == pytest.approx(6.0)

    def test_joining_already_finished_process(self, sim):
        def quick():
            yield sim.timeout(1.0)
            return "done"

        got = []

        def late_joiner(proc):
            yield sim.timeout(5.0)
            value = yield proc
            got.append((sim.now, value))

        proc = sim.process(quick())
        sim.process(late_joiner(proc))
        sim.run()
        assert got == [(5.0, "done")]

    def test_two_joiners_both_get_value(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 99

        got = []

        def joiner(proc):
            got.append((yield proc))

        proc = sim.process(child())
        sim.process(joiner(proc))
        sim.process(joiner(proc))
        sim.run()
        assert got == [99, 99]


class TestInterruptEdgeCases:
    def test_interrupt_process_waiting_on_resource(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def holder():
            req = yield res.request()
            yield sim.timeout(10.0)
            res.release(req)

        def waiter():
            req = res.request()
            try:
                yield req
            except Interrupt:
                req.cancel()
                log.append("interrupted")
                return
            res.release(req)  # pragma: no cover

        sim.process(holder())
        waiter_proc = sim.process(waiter())
        sim.schedule(1.0, lambda: waiter_proc.interrupt())
        sim.run()
        assert log == ["interrupted"]
        # the cancelled request never blocks later grants
        assert res.queue_len == 0

    def test_interrupt_during_join_detaches(self, sim):
        log = []

        def child():
            yield sim.timeout(10.0)
            return "child-done"

        def parent(proc):
            try:
                yield proc
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.timeout(1.0)
            log.append(("after", sim.now))

        child_proc = sim.process(child())
        parent_proc = sim.process(parent(child_proc))
        sim.schedule(2.0, lambda: parent_proc.interrupt())
        sim.run()
        assert log == [("interrupted", 2.0), ("after", 3.0)]
        assert child_proc.value == "child-done"  # child unaffected

    def test_double_interrupt(self, sim):
        hits = []

        def stubborn():
            for _ in range(2):
                try:
                    yield sim.timeout(100.0)
                except Interrupt as exc:
                    hits.append(exc.cause)

        proc = sim.process(stubborn())
        sim.schedule(1.0, lambda: proc.interrupt("one"))
        sim.schedule(2.0, lambda: proc.interrupt("two"))
        sim.run()
        assert hits == ["one", "two"]

    def test_interrupt_during_redelivery_resumes_once(self):
        """Yielding an already-processed event waits on a re-delivery
        event.  An interrupt in the same instant must detach the process
        from it: the process sees only the Interrupt, keeps its return
        value, and fires once (no timer armed in between can resume the
        finished generator later)."""
        stats = KernelStats()
        sim = Simulator()
        stats.attach(sim)
        done = sim.event()
        done.succeed("stale")
        sim.run()
        seen = []

        def victim():
            try:
                seen.append((yield done))
                yield sim.timeout(1.0)
            except Interrupt as exc:
                seen.append(exc.cause)
            return "kept"

        proc = sim.process(victim())
        sim.schedule(0.0, lambda: proc.interrupt("now"))
        sim.run()
        assert seen == ["now"]
        assert proc.value == "kept"
        assert stats.fired["Process"] == 1


class TestHandOver:
    def test_background_process_takes_the_callback_slot(self, sim):
        """A generator run by hand inside one process continues as a
        process of its own, resuming where the outer process would have:
        at its position in the event's callback list."""
        gate = sim.event()
        order = []

        def served():
            value = yield gate
            order.append(("served", value))
            return "served-done"

        def bystander():
            order.append(("bystander", (yield gate)))

        def outer(gen):
            yield gen.send(None)  # wait on the event the generator yields
            order.append("outer resumed")  # pragma: no cover

        sim.process(bystander())
        inner = served()
        proc = sim.process(outer(inner))
        sim.process(bystander())
        sim.run()
        background = proc.hand_over(inner)
        gate.succeed("go")
        sim.run()
        assert order == [("bystander", "go"), ("served", "go"),
                         ("bystander", "go")]
        assert background.value == "served-done"
        assert proc.is_alive  # left waiting on nothing


class TestSchedulingProperties:
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(n=st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_n_processes_all_complete(self, n):
        sim = Simulator()
        done = []

        def worker(i):
            yield sim.timeout(i * 0.1)
            done.append(i)

        for i in range(n):
            sim.process(worker(i))
        sim.run()
        assert sorted(done) == list(range(n))
