"""Tests for the pre-forked persistent connection pools."""

import pytest

from repro.core import ConnectionPool, PoolManager
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestConnectionPool:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            ConnectionPool(sim, "b", prefork=0)
        with pytest.raises(ValueError):
            ConnectionPool(sim, "b", prefork=4, max_size=2)

    def test_prefork_creates_idle_connections(self, sim):
        pool = ConnectionPool(sim, "b", prefork=3)
        assert pool.idle_count == 3
        assert pool.total == 3
        assert pool.busy_count == 0

    def test_acquire_release_cycle(self, sim):
        pool = ConnectionPool(sim, "b", prefork=2)
        got = []

        def go():
            conn = yield pool.acquire()
            got.append(conn)
            assert conn.in_use
            assert pool.busy_count == 1
            pool.release(conn)
            assert pool.idle_count == 2

        sim.process(go())
        sim.run()
        assert got[0].uses == 1

    def test_connections_are_reused(self, sim):
        pool = ConnectionPool(sim, "b", prefork=1)
        ids = []

        def go():
            for _ in range(3):
                conn = yield pool.acquire()
                ids.append(conn.conn_id)
                pool.release(conn)

        sim.process(go())
        sim.run()
        assert len(set(ids)) == 1   # same pre-forked connection every time

    def test_growth_up_to_max(self, sim):
        pool = ConnectionPool(sim, "b", prefork=1, max_size=2)
        held = []

        def go():
            a = yield pool.acquire()
            b = yield pool.acquire()   # grows to 2
            held.extend([a, b])

        sim.process(go())
        sim.run()
        assert pool.total == 2
        assert pool.grown == 1

    def test_blocks_at_max_until_release(self, sim):
        pool = ConnectionPool(sim, "b", prefork=1, max_size=1)
        order = []

        def holder():
            conn = yield pool.acquire()
            order.append(("held", sim.now))
            yield sim.timeout(5.0)
            pool.release(conn)

        def waiter():
            yield sim.timeout(1.0)
            conn = yield pool.acquire()
            order.append(("waited", sim.now))
            pool.release(conn)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert order == [("held", 0.0), ("waited", 5.0)]
        assert pool.waits == 1

    def test_release_wrong_pool_rejected(self, sim):
        pool_a = ConnectionPool(sim, "a", prefork=1)
        pool_b = ConnectionPool(sim, "b", prefork=1)
        got = []

        def go():
            conn = yield pool_a.acquire()
            got.append(conn)

        sim.process(go())
        sim.run()
        with pytest.raises(ValueError):
            pool_b.release(got[0])

    def test_release_idle_connection_rejected(self, sim):
        pool = ConnectionPool(sim, "b", prefork=1)
        conn = pool._idle.items[0]
        with pytest.raises(ValueError):
            pool.release(conn)

    def test_counters(self, sim):
        pool = ConnectionPool(sim, "b", prefork=2)

        def go():
            for _ in range(4):
                conn = yield pool.acquire()
                pool.release(conn)

        sim.process(go())
        sim.run()
        assert pool.acquired == 4
        assert pool.released == 4


class TestPoolManager:
    def test_lazy_pool_creation(self, sim):
        mgr = PoolManager(sim, prefork=2)
        pool = mgr.pool("backend-1")
        assert pool is mgr.pool("backend-1")
        assert pool.prefork == 2
        assert mgr.total_connections() == 2

    def test_pools_listing(self, sim):
        mgr = PoolManager(sim, prefork=1)
        mgr.pool("a")
        mgr.pool("b")
        assert set(mgr.pools()) == {"a", "b"}
        assert mgr.total_connections() == 2


def test_interrupted_acquirer_leaves_the_pool_queue():
    """A request torn down while it waits for a pooled connection
    withdraws: the next release serves the next acquirer, not the dead
    one, and nothing stays leased."""
    from repro.cluster import BackendServer, distributor_spec
    from repro.cluster import paper_testbed_specs
    from repro.core import ContentAwareDistributor, UrlTable
    from repro.net import Lan

    sim = Simulator()
    lan = Lan(sim)
    spec = paper_testbed_specs()[0]
    servers = {spec.name: BackendServer(sim, lan, spec)}
    dist = ContentAwareDistributor(sim, lan, distributor_spec(), servers,
                                   UrlTable(), prefork=1, max_pool_size=1)
    backend = spec.name
    pool = dist.pools.pool(backend)
    held = pool.try_acquire()
    got = []

    def acquirer():
        conn = yield from dist.acquire_backend(backend)
        got.append(conn)

    victim = sim.process(acquirer())

    def scenario():
        yield sim.timeout(0.1)
        victim.interrupt("client gone")
        yield sim.timeout(0.1)
        dist.release_backend(backend, held)
        yield sim.timeout(0.1)
        sim.process(acquirer())

    sim.process(scenario())
    sim.run()
    assert got == [held]
    assert pool.leased_count == 1 and pool.idle_count == 0
    assert pool.waiting == 0
    dist.release_backend(backend, held)
    assert pool.leased_count == 0 and pool.idle_count == 1


def test_withdraw_after_hand_over_returns_the_connection(sim):
    """An acquirer interrupted in the instant a release handed it a
    connection gives that connection back as soon as the hand-over
    fires."""
    pool = ConnectionPool(sim, "b", prefork=1)
    held = pool.try_acquire()
    event = pool.acquire()
    pool.release(held)            # hands ``held`` to the waiting event
    assert event.triggered and event.callbacks is not None
    pool.withdraw(event)
    sim.run()
    assert pool.leased_count == 0 and pool.idle_count == 1
    assert pool.waiting == 0
    assert pool.released == pool.acquired == 2
