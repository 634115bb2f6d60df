"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Resource, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_when_free(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def proc():
            req = yield res.request()
            log.append(sim.now)
            res.release(req)

        sim.process(proc())
        sim.run()
        assert log == [0.0]
        assert res.in_use == 0

    def test_fifo_service_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(name, hold):
            req = yield res.request()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release(req)

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]

    def test_capacity_two_allows_two_concurrent(self, sim):
        res = Resource(sim, capacity=2)
        order = []

        def worker(name):
            req = yield res.request()
            order.append((name, sim.now))
            yield sim.timeout(5.0)
            res.release(req)

        for name in "abc":
            sim.process(worker(name))
        sim.run()
        assert order == [("a", 0.0), ("b", 0.0), ("c", 5.0)]

    def test_release_unowned_request_raises(self, sim):
        res = Resource(sim)
        req = res.request()
        sim.run()
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)

    def test_wait_time_accounting(self, sim):
        res = Resource(sim, capacity=1)

        def worker(hold):
            req = yield res.request()
            yield sim.timeout(hold)
            res.release(req)

        sim.process(worker(4.0))
        sim.process(worker(1.0))
        sim.run()
        assert res.total_requests == 2
        assert res.total_wait_time == pytest.approx(4.0)

    def test_utilization(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            req = yield res.request()
            yield sim.timeout(5.0)
            res.release(req)

        sim.process(worker())
        sim.run(until=10.0)
        assert res.utilization() == pytest.approx(0.5)

    def test_cancel_pending_request(self, sim):
        res = Resource(sim, capacity=1)
        granted = []

        def holder():
            req = yield res.request()
            yield sim.timeout(10.0)
            res.release(req)

        sim.process(holder())
        sim.run(until=1.0)
        abandoned = res.request()
        abandoned.cancel()

        def late():
            req = yield res.request()
            granted.append(sim.now)
            res.release(req)

        sim.process(late())
        sim.run()
        assert granted == [10.0]
        assert not abandoned.triggered

    def test_cancel_granted_request_raises(self, sim):
        res = Resource(sim)
        req = res.request()
        sim.run()
        with pytest.raises(RuntimeError):
            req.cancel()

    def test_peak_queue_len(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            req = yield res.request()
            yield sim.timeout(1.0)
            res.release(req)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        # The first request is granted immediately; the other three queue.
        assert res.peak_queue_len == 3


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def getter():
            got.append((yield store.get()))

        sim.process(getter())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((sim.now, item))

        sim.process(getter())
        sim.schedule(3.0, lambda: store.put("late"))
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        got = []

        def getter():
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(getter())
        sim.run()
        assert got == [0, 1, 2]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item))

        sim.process(getter("first"))
        sim.process(getter("second"))
        sim.schedule(1.0, lambda: store.put("a"))
        sim.schedule(2.0, lambda: store.put("b"))
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_capacity_overflow_raises(self, sim):
        store = Store(sim, capacity=1)
        store.put(1)
        with pytest.raises(OverflowError):
            store.put(2)

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put("y")
        assert store.try_get() == "y"

    def test_cancel_get(self, sim):
        store = Store(sim)
        ev = store.get()
        store.cancel_get(ev)
        store.put("z")
        assert not ev.triggered
        assert store.try_get() == "z"

    def test_len_and_peak(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.peak_size == 2

