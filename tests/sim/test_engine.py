"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (AllOf, AnyOf, Interrupt, Simulator, StopSimulation)


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_empty_heap_is_noop(self, sim):
        sim.run()
        assert sim.now == 0.0

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_in_past_raises(self, sim):
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            sim.run(until=3.0)

    def test_schedule_callback_fires_at_delay(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_schedule_order_same_timestamp_is_fifo(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_call_later_shares_schedule_fifo_order(self, fast_path):
        sim = Simulator(fast_path=fast_path)
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.call_later(1.0, order.append, "b")
        sim.schedule(1.0, lambda: order.append("c"))
        sim.call_later(0.5, order.append, "early")
        sim.run()
        assert order == ["early", "a", "b", "c"]
        assert sim.event_count == 4

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_idle_now_sees_events_due_at_this_instant(self, fast_path):
        sim = Simulator(fast_path=fast_path)
        seen = []
        sim.call_later(1.0, lambda tag: seen.append((tag, sim.idle_now())),
                       "first")
        sim.call_later(1.0, lambda tag: seen.append((tag, sim.idle_now())),
                       "last")
        sim.call_later(2.0, lambda tag: seen.append((tag, sim.idle_now())),
                       "alone")
        sim.run()
        # "first" still has "last" due at t=1; a later timestamp does not
        # count as due now
        assert seen == [("first", False), ("last", True), ("alone", True)]

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_idle_now_sees_zero_delay_work(self, fast_path):
        sim = Simulator(fast_path=fast_path)
        seen = []

        def first(_):
            sim.call_later(0.0, seen.append, "zero-delay")
            seen.append(sim.idle_now())

        sim.call_later(1.0, first, None)
        sim.run()
        assert seen == [False, "zero-delay"]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_peek_reports_next_timestamp(self, sim):
        assert sim.peek() == float("inf")
        sim.schedule(4.0, lambda: None)
        assert sim.peek() == 4.0

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1]
        assert sim.now == 2.0


class TestTimeout:
    def test_timeout_resumes_process_after_delay(self, sim):
        log = []

        def proc():
            yield sim.timeout(2.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [2.0]

    def test_timeout_value_is_delivered(self, sim):
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self, sim):
        log = []

        def proc():
            yield sim.timeout(0.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [0.0]


class TestProcess:
    def test_process_return_value_becomes_event_value(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 42

        got = []

        def parent():
            value = yield sim.process(child())
            got.append(value)

        sim.process(parent())
        sim.run()
        assert got == [42]

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def proc():
            yield sim.timeout(1.0)
            times.append(sim.now)
            yield sim.timeout(2.0)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [1.0, 3.0]

    def test_is_alive_tracks_lifetime(self, sim):
        def proc():
            yield sim.timeout(5.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_exception_in_process_propagates_to_joiner(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        caught = []

        def parent():
            try:
                yield sim.process(child())
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["boom"]

    def test_unobserved_process_exception_raises_at_fire(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("unobserved")

        sim.process(child())
        with pytest.raises(RuntimeError, match="unobserved"):
            sim.run()

    def test_yielding_non_event_raises(self, sim):
        def proc():
            yield 17

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_process_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_waiting_on_already_processed_event_resumes_immediately(self, sim):
        ev = sim.event()
        ev.succeed("done")
        sim.run()
        assert ev.processed
        got = []

        def proc():
            value = yield ev
            got.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert got == [(0.0, "done")]

    def test_two_processes_interleave(self, sim):
        log = []

        def ping():
            for _ in range(3):
                yield sim.timeout(2.0)
                log.append(("ping", sim.now))

        def pong():
            yield sim.timeout(1.0)
            for _ in range(3):
                yield sim.timeout(2.0)
                log.append(("pong", sim.now))

        sim.process(ping())
        sim.process(pong())
        sim.run()
        assert log == [("ping", 2.0), ("pong", 3.0), ("ping", 4.0),
                       ("pong", 5.0), ("ping", 6.0), ("pong", 7.0)]

    def test_active_process_visible_during_execution(self, sim):
        seen = []

        def proc():
            seen.append(sim.active_process)
            yield sim.timeout(1.0)

        p = sim.process(proc())
        sim.run()
        assert seen == [p]
        assert sim.active_process is None


class TestManualEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []

        def waiter():
            got.append((yield ev))

        sim.process(waiter())

        def trigger():
            yield sim.timeout(3.0)
            ev.succeed("hello")

        sim.process(trigger())
        sim.run()
        assert got == ["hello"]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)
        ev2 = sim.event()
        ev2.fail(ValueError("x"))
        ev2.defuse()
        with pytest.raises(RuntimeError):
            ev2.succeed(1)
        sim.run()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_failed_event_raises_in_waiter(self, sim):
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        ev.fail(ValueError("bad"))
        sim.run()
        assert caught == ["bad"]

    def test_unobserved_failed_event_raises_unless_defused(self, sim):
        ev = sim.event()
        ev.fail(ValueError("silent"))
        with pytest.raises(ValueError):
            sim.run()
        ev2 = sim.event()
        ev2.fail(ValueError("silenced"))
        ev2.defuse()
        sim.run()  # should not raise

    def test_value_access_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError):
            _ = ev.value


class TestInterrupt:
    def test_interrupt_wakes_sleeping_process(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                log.append((sim.now, exc.cause))

        p = sim.process(sleeper())
        sim.schedule(5.0, lambda: p.interrupt("wake up"))
        sim.run()
        assert log == [(5.0, "wake up")]

    def test_unhandled_interrupt_terminates_with_cause(self, sim):
        def sleeper():
            yield sim.timeout(100.0)

        p = sim.process(sleeper())
        sim.schedule(1.0, lambda: p.interrupt("die"))
        sim.run()
        assert not p.is_alive
        assert p.value == "die"

    def test_interrupting_finished_process_raises(self, sim):
        def quick():
            yield sim.timeout(1.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, sim):
        log = []

        def worker():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(1.0)
            log.append(sim.now)

        p = sim.process(worker())
        sim.schedule(2.0, lambda: p.interrupt())
        sim.run()
        assert log == [3.0]

    def test_original_timeout_does_not_resume_after_interrupt(self, sim):
        resumed = []

        def worker():
            try:
                yield sim.timeout(10.0)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
            yield sim.timeout(50.0)
            resumed.append("second")

        p = sim.process(worker())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert resumed == ["interrupt", "second"]
        assert sim.now >= 51.0


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        log = []

        def proc():
            t1 = sim.timeout(1.0, value="a")
            t2 = sim.timeout(3.0, value="b")
            results = yield AllOf(sim, [t1, t2])
            log.append((sim.now, sorted(results.values())))

        sim.process(proc())
        sim.run()
        assert log == [(3.0, ["a", "b"])]

    def test_any_of_fires_on_first(self, sim):
        log = []

        def proc():
            t1 = sim.timeout(1.0, value="fast")
            t2 = sim.timeout(3.0, value="slow")
            results = yield AnyOf(sim, [t1, t2])
            log.append((sim.now, list(results.values())))

        sim.process(proc())
        sim.run()
        assert log == [(1.0, ["fast"])]

    def test_empty_all_of_succeeds_immediately(self, sim):
        log = []

        def proc():
            yield AllOf(sim, [])
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [0.0]

    def test_all_of_with_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("pre")
        sim.run()
        log = []

        def proc():
            results = yield AllOf(sim, [ev, sim.timeout(2.0, value="post")])
            log.append(sorted(results.values()))

        sim.process(proc())
        sim.run()
        assert log == [["post", "pre"]]

    def test_any_of_helper_methods(self, sim):
        log = []

        def proc():
            yield sim.any_of([sim.timeout(1.0), sim.timeout(9.0)])
            log.append(sim.now)
            yield sim.all_of([sim.timeout(1.0), sim.timeout(2.0)])
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [1.0, 3.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []

            def worker(wid, delay):
                for _ in range(5):
                    yield sim.timeout(delay)
                    trace.append((wid, sim.now))

            for wid, delay in enumerate([1.0, 1.5, 0.7]):
                sim.process(worker(wid, delay))
            sim.run()
            return trace

        assert build() == build()
