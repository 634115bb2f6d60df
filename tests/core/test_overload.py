"""Unit and integration tests for the overload-control subsystem."""

import pytest

from repro.cluster import (BackendServer, distributor_spec,
                           paper_testbed_specs)
from repro.content import ContentItem, ContentType
from repro.core import (ContentAwareDistributor, FrontendDown,
                        HaDistributorPair, OverloadConfig, RetryBudget,
                        RoutingView, UrlTable, WeightedLeastConnection)
from repro.core.overload import (AdmissionController, BREAKER_TRANSITIONS,
                                 CircuitBreaker)
from repro.mgmt import Broker, Controller, StatusAgent
from repro.net import HttpRequest, Lan, Nic
from repro.sim import Simulator


def make_breaker(**overrides):
    """A breaker on a manually advanced clock."""
    config = OverloadConfig(**overrides)
    tnow = [0.0]
    breaker = CircuitBreaker("node-a", config, clock=lambda: tnow[0])
    return breaker, tnow, config


class TestBreakerStateMachine:
    def test_transition_table_shape(self):
        # first key is the initial state; "disabled" is terminal absorbing
        assert next(iter(BREAKER_TRANSITIONS)) == "closed"
        assert BREAKER_TRANSITIONS["disabled"] == ()
        for origin, targets in BREAKER_TRANSITIONS.items():
            for to in targets:
                assert to in BREAKER_TRANSITIONS

    def test_consecutive_failures_trip(self):
        breaker, tnow, config = make_breaker(breaker_failures=3)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_count == 1
        assert not breaker.routable()

    def test_success_resets_consecutive_count(self):
        breaker, tnow, config = make_breaker(breaker_failures=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_error_rate_trips_with_min_samples(self):
        breaker, tnow, config = make_breaker(
            breaker_failures=100, breaker_window=8, breaker_min_samples=4,
            breaker_error_rate=0.5)
        # alternate so the consecutive count never trips
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # 3 samples < min_samples
        breaker.record_success()
        assert breaker.state == "closed"  # 2/4 bad but last was a success
        breaker.record_failure()
        assert breaker.state == "open"    # 3/5 bad >= 0.5

    def test_open_blocks_until_cooldown_then_probes(self):
        breaker, tnow, config = make_breaker(
            breaker_failures=1, breaker_open_duration=2.0,
            breaker_probes=2, breaker_probe_inflight=1)
        breaker.record_failure()
        assert breaker.state == "open"
        tnow[0] = 1.99
        assert not breaker.routable()
        assert breaker.state == "open"
        tnow[0] = 2.0
        assert breaker.routable()           # lazily shifts to half-open
        assert breaker.state == "half-open"
        breaker.on_dispatch()
        assert not breaker.routable()       # probe_inflight cap reached
        breaker.record_success()
        assert breaker.state == "half-open"  # 1/2 probe successes
        assert breaker.routable()
        breaker.on_dispatch()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.reclosed_count == 1

    def test_probe_failure_reopens(self):
        breaker, tnow, config = make_breaker(
            breaker_failures=1, breaker_open_duration=1.0)
        breaker.record_failure()
        tnow[0] = 1.0
        assert breaker.routable()
        breaker.on_dispatch()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_count == 2
        tnow[0] = 1.5
        assert not breaker.routable()       # new cooldown from reopen

    def test_disable_is_terminal_and_routable(self):
        breaker, tnow, config = make_breaker(breaker_failures=1)
        breaker.record_failure()
        breaker.disable()
        assert breaker.state == "disabled"
        assert breaker.routable()
        for _ in range(5):
            breaker.record_failure()
        assert breaker.state == "disabled"

    def test_illegal_transition_rejected(self):
        breaker, tnow, config = make_breaker()
        with pytest.raises(ValueError, match="illegal transition"):
            breaker._shift("half-open")     # closed -> half-open


class TestAdmissionController:
    def run_admit(self, sim, adm, results):
        def one():
            admitted = yield from adm.admit()
            results.append(admitted)
            if admitted:
                # hold the slot until explicitly released by the test body
                yield sim.timeout(1.0)
                adm.release()
        return sim.process(one())

    def test_grant_queue_shed(self):
        sim = Simulator()
        adm = AdmissionController(
            sim, OverloadConfig(max_inflight=2, max_queue=1))
        results = []
        for _ in range(4):
            self.run_admit(sim, adm, results)
        sim.run()
        # 2 granted immediately, 1 queued (granted later), 1 shed
        assert results.count(True) == 3
        assert results.count(False) == 1
        assert adm.submitted == 4
        assert adm.admitted == 3
        assert adm.shed == 1
        assert adm.peak_inflight == 2
        assert adm.peak_queue == 1
        assert adm.inflight == 0 and adm.queued == 0

    def test_waiters_granted_fifo(self):
        sim = Simulator()
        adm = AdmissionController(
            sim, OverloadConfig(max_inflight=1, max_queue=3))
        order = []

        def one(tag, hold):
            admitted = yield from adm.admit()
            assert admitted
            order.append(tag)
            yield sim.timeout(hold)
            adm.release()

        for i, tag in enumerate(["a", "b", "c", "d"]):
            sim.process(one(tag, 0.5))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_interrupted_waiter_leaves_the_queue(self):
        """A request torn down while queued for admission withdraws: the
        freed slot goes to the next request, not to the dead one."""
        sim = Simulator()
        adm = AdmissionController(
            sim, OverloadConfig(max_inflight=1, max_queue=2))
        admitted = []

        def one(tag, delay=0.0):
            yield sim.timeout(delay)
            yield from adm.admit()
            admitted.append(tag)
            yield sim.timeout(0.5)
            adm.release()

        sim.process(one("first"))
        victim = sim.process(one("victim"))

        def killer():
            yield sim.timeout(0.1)
            victim.interrupt("client gone")

        sim.process(killer())
        sim.process(one("after", delay=0.6))
        sim.run()
        assert admitted == ["first", "after"]
        assert adm.inflight == 0 and adm.queued == 0
        assert adm.admitted == adm.released == 2

    def test_release_without_admit_raises(self):
        sim = Simulator()
        adm = AdmissionController(sim, OverloadConfig())
        with pytest.raises(ValueError, match="release without"):
            adm.release()


class TestRetryBudget:
    def test_deposit_and_spend(self):
        budget = RetryBudget(ratio=0.5, initial=1.0, cap=2.0)
        assert budget.try_spend()
        assert not budget.try_spend()       # empty
        for _ in range(4):
            budget.on_request()
        assert budget.tokens == pytest.approx(2.0)  # capped
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.granted == 3 and budget.denied == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(initial=4.0, cap=2.0)


class TestSlowStart:
    def test_ramp_boundaries(self):
        view = RoutingView({"a": 4.0, "b": 4.0})
        tnow = [10.0]
        view.configure_slow_start(2.0, 0.25, clock=lambda: tnow[0])
        view.begin_slow_start("a")
        assert view.effective_weight("a") == pytest.approx(1.0)   # floor
        assert view.effective_weight("b") == pytest.approx(4.0)   # unramped
        tnow[0] = 11.0
        assert view.effective_weight("a") == pytest.approx(2.5)   # midway
        tnow[0] = 12.0
        assert view.effective_weight("a") == pytest.approx(4.0)   # done
        # the expired ramp is dropped entirely
        tnow[0] = 13.0
        assert view.effective_weight("a") == pytest.approx(4.0)

    def test_mark_up_restarts_ramp(self):
        view = RoutingView({"a": 2.0})
        tnow = [0.0]
        view.configure_slow_start(1.0, 0.5, clock=lambda: tnow[0])
        view.mark_down("a")
        tnow[0] = 5.0
        view.mark_up("a")
        assert view.effective_weight("a") == pytest.approx(1.0)

    def test_wlc_prefers_full_weight_node_during_ramp(self):
        view = RoutingView({"a": 4.0, "b": 4.0})
        tnow = [0.0]
        view.configure_slow_start(2.0, 0.1, clock=lambda: tnow[0])
        view.begin_slow_start("a")
        policy = WeightedLeastConnection()
        # equal active counts: the ramping node looks 10x smaller
        assert policy.select(["a", "b"], view) == "b"
        tnow[0] = 2.0
        assert policy.select(["a", "b"], view) == "a"  # tie -> name order

    def test_gate_filters_candidates(self):
        view = RoutingView({"a": 1.0, "b": 1.0})
        view.gate = lambda node: node != "a"
        policy = WeightedLeastConnection()
        assert policy.select(["a", "b"], view) == "b"
        assert policy.select(["a"], view) is None
        view.gate = None
        assert policy.select(["a"], view) == "a"


def build_distributor(overload, n_specs=3, **dist_kwargs):
    sim = Simulator()
    lan = Lan(sim)
    specs = paper_testbed_specs()[:n_specs]
    servers = {s.name: BackendServer(sim, lan, s) for s in specs}
    table = UrlTable()
    dist = ContentAwareDistributor(sim, lan, distributor_spec(), servers,
                                   table, overload=overload, **dist_kwargs)
    client_nic = Nic(sim, 100, name="client")
    return sim, specs, servers, table, dist, client_nic


def place_everywhere(specs, servers, table, item):
    for s in specs:
        servers[s.name].place(item)
    table.insert(item, {s.name for s in specs})


class TestFrontendOverload:
    def test_shed_path_leaks_nothing(self):
        config = OverloadConfig(max_inflight=1, max_queue=0)
        sim, specs, servers, table, dist, client_nic = \
            build_distributor(config)
        item = ContentItem("/hot.html", 65536, ContentType.HTML)
        place_everywhere(specs, servers, table, item)
        outcomes = []

        def one():
            outcome = yield sim.process(
                dist.submit(HttpRequest(item.path), client_nic))
            outcomes.append(outcome)

        for _ in range(3):
            sim.process(one())
        sim.run()
        shed = [o for o in outcomes if o.shed]
        served = [o for o in outcomes if not o.shed]
        assert len(shed) == 2 and len(served) == 1
        for o in shed:
            assert o.response.status == 503
            assert o.retry_after == config.retry_after
            assert o.backend is None
        # nothing leaked: no mapping entries, no leases, slot drained
        assert len(dist.mapping) == 0
        for backend in dist.pools.pools().values():
            assert backend.leased_count == 0
        assert dist.overload.admission.inflight == 0
        assert dist.overload.admission.shed == 2
        assert dist.metrics.counter("overload/shed").count == 2
        from repro.analysis.invariants import check_invariants
        assert check_invariants(table, servers=servers, frontend=dist) == []

    def test_timeout_trips_breaker_and_degrades_cleanly(self):
        config = OverloadConfig(request_timeout=1e-4, breaker_failures=1,
                                max_replica_retries=0)
        sim, specs, servers, table, dist, client_nic = \
            build_distributor(config, n_specs=1)
        item = ContentItem("/slow.html", 1 << 20, ContentType.HTML)
        place_everywhere(specs, servers, table, item)
        outcomes = []

        def one():
            outcome = yield sim.process(
                dist.submit(HttpRequest(item.path), client_nic))
            outcomes.append(outcome)

        sim.process(one())
        sim.run()
        [outcome] = outcomes
        assert outcome.shed and outcome.response.status == 503
        assert dist.metrics.counter("overload/timeout").count == 1
        assert dist.metrics.counter("overload/degraded").count == 1
        breaker = dist.overload.breakers.breaker(specs[0].name)
        assert breaker.state == "open"
        assert len(dist.mapping) == 0
        assert dist.overload.admission.inflight == 0

    def test_legacy_path_untouched_without_overload(self):
        sim, specs, servers, table, dist, client_nic = \
            build_distributor(None)
        assert dist.overload is None
        item = ContentItem("/plain.html", 4096, ContentType.HTML)
        place_everywhere(specs, servers, table, item)
        outcomes = []

        def one():
            outcome = yield sim.process(
                dist.submit(HttpRequest(item.path), client_nic))
            outcomes.append(outcome)

        sim.process(one())
        sim.run()
        [outcome] = outcomes
        assert outcome.response.ok
        assert not outcome.shed and outcome.retry_after == 0.0


class TestHaRetryBudget:
    def test_outage_retries_denied_when_budget_empty(self):
        sim = Simulator()
        lan = Lan(sim)
        specs = paper_testbed_specs()[:2]
        servers = {s.name: BackendServer(sim, lan, s) for s in specs}
        primary = ContentAwareDistributor(sim, lan, distributor_spec(),
                                          servers, UrlTable())
        backup = ContentAwareDistributor(sim, lan, distributor_spec(),
                                         servers, UrlTable(),
                                         name="dist-backup")
        budget = RetryBudget(ratio=0.0, initial=0.0, cap=0.0)
        pair = HaDistributorPair(sim, primary, backup,
                                 heartbeat_interval=10.0, misses_to_fail=3,
                                 retry_budget=budget)
        primary.crash()
        failures = []

        def one():
            try:
                yield sim.process(
                    pair.submit(HttpRequest("/x.html"),
                                Nic(sim, 100, name="client")))
            except FrontendDown as exc:
                failures.append(str(exc))

        sim.process(one())
        sim.run(until=1.0)
        pair.stop()
        [message] = failures
        assert "retry budget exhausted" in message
        assert pair.budget_denied == 1
        assert budget.denied == 1


class TestMgmtHealthSignal:
    def test_dispatch_timeout_feeds_breaker_board(self):
        sim = Simulator()
        lan = Lan(sim)
        spec = paper_testbed_specs()[0]
        server = BackendServer(sim, lan, spec)
        dist = ContentAwareDistributor(
            sim, lan, distributor_spec(), {spec.name: server}, UrlTable(),
            overload=OverloadConfig(breaker_failures=2))
        controller = Controller(sim, dist.nic, dist.url_table,
                                None)
        controller.default_timeout = 0.2
        controller.health_sink = dist.overload.breakers
        broker = Broker(sim, lan, server, controller.nic)
        controller.register_broker(broker)
        broker.drop_filter = lambda dispatch: True  # every agent lost

        def go():
            for _ in range(2):
                yield from controller.execute(StatusAgent(), spec.name)

        sim.process(go())
        sim.run()
        broker.stop()
        assert controller.timeouts == 2
        board = dist.overload.breakers
        assert board.mgmt_timeouts == {spec.name: 2}
        assert board.breaker(spec.name).state == "open"
        assert not dist.view.routable(spec.name)
