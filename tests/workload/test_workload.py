"""Tests for workload specs, request sampling, and the WebBench rig."""

import pytest

from repro.content import ContentType, generate_catalog
from repro.experiments import ExperimentConfig, build_deployment
from repro.net import HttpVersion
from repro.obs import KernelStats
from repro.sim import RngStream, Simulator
from repro.workload import (WORKLOAD_A, WORKLOAD_B, RequestSampler,
                            WebBenchRig, WorkloadSpec)


class TestWorkloadSpecs:
    def test_request_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="X", catalog_mix=WORKLOAD_A.catalog_mix,
                         request_mix={ContentType.HTML: 0.5})

    def test_requests_must_have_catalog_backing(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="X", catalog_mix=WORKLOAD_A.catalog_mix,
                         request_mix={ContentType.HTML: 0.5,
                                      ContentType.CGI: 0.5})

    def test_workload_a_is_static(self):
        assert WORKLOAD_A.dynamic_request_fraction == 0.0

    def test_workload_b_is_significantly_dynamic(self):
        assert WORKLOAD_B.dynamic_request_fraction >= 0.15

    def test_multimedia_requests_are_rare(self):
        """Arlitt & Jin: the largest files get ~0.1 % of requests."""
        for spec in (WORKLOAD_A, WORKLOAD_B):
            assert spec.request_mix[ContentType.VIDEO] <= 0.002


class TestRequestSampler:
    @pytest.fixture
    def catalog_a(self):
        return generate_catalog(600, rng=RngStream(1),
                                mix=WORKLOAD_A.catalog_mix)

    def test_validation(self, catalog_a):
        with pytest.raises(ValueError):
            RequestSampler(catalog_a, WORKLOAD_A, http10_fraction=2.0)

    def test_class_mix_respected(self, catalog_a):
        sampler = RequestSampler(catalog_a, WORKLOAD_A,
                                 rng=RngStream(2, "s"))
        counts = {t: 0 for t in ContentType}
        n = 5000
        for _ in range(n):
            counts[sampler.sample_item().ctype] += 1
        assert counts[ContentType.IMAGE] / n == pytest.approx(0.61, abs=0.03)
        assert counts[ContentType.HTML] / n == pytest.approx(0.385, abs=0.03)
        assert counts[ContentType.CGI] == 0

    def test_popular_items_are_small(self, catalog_a):
        """Rank-1 popularity goes to the smallest file of the class."""
        sampler = RequestSampler(catalog_a, WORKLOAD_A, rng=RngStream(3, "s"))
        counts: dict[str, int] = {}
        for _ in range(8000):
            item = sampler.sample_item(ContentType.IMAGE)
            counts[item.path] = counts.get(item.path, 0) + 1
        most_popular = max(counts, key=counts.get)
        sizes = sorted(i.size_bytes
                       for i in catalog_a.by_type(ContentType.IMAGE))
        assert catalog_a.get(most_popular).size_bytes <= sizes[len(sizes)//10]

    def test_http_version_mix(self, catalog_a):
        sampler = RequestSampler(catalog_a, WORKLOAD_A,
                                 rng=RngStream(4, "s"),
                                 http10_fraction=0.5)
        versions = [sampler.request().version for _ in range(400)]
        tens = sum(1 for v in versions if v is HttpVersion.HTTP_1_0)
        assert 120 <= tens <= 280

    def test_requests_resolve_in_catalog(self, catalog_a):
        sampler = RequestSampler(catalog_a, WORKLOAD_A, rng=RngStream(5, "s"))
        for _ in range(200):
            req = sampler.request()
            assert req.url in catalog_a

    def test_deterministic(self, catalog_a):
        a = RequestSampler(catalog_a, WORKLOAD_A, rng=RngStream(6, "s"))
        b = RequestSampler(catalog_a, WORKLOAD_A, rng=RngStream(6, "s"))
        assert [a.request().url for _ in range(50)] == \
               [b.request().url for _ in range(50)]

    def test_expected_request_bytes_reasonable(self, catalog_a):
        sampler = RequestSampler(catalog_a, WORKLOAD_A, rng=RngStream(7, "s"))
        mean = sampler.expected_request_bytes(draws=3000)
        # request-weighted mean must be far below the inventory mean
        inventory_mean = catalog_a.total_bytes / len(catalog_a)
        assert mean < inventory_mean

    def test_workload_b_samples_dynamic(self):
        catalog = generate_catalog(800, rng=RngStream(8),
                                   mix=WORKLOAD_B.catalog_mix)
        sampler = RequestSampler(catalog, WORKLOAD_B, rng=RngStream(8, "s"))
        types = {sampler.sample_item().ctype for _ in range(2000)}
        assert ContentType.CGI in types
        assert ContentType.ASP in types


class FakeFrontend:
    """Deterministic front end: every request succeeds after a fixed delay."""

    def __init__(self, sim, delay=0.01):
        self.sim = sim
        self.delay = delay
        self.served = 0

    def submit(self, request, nic):
        from repro.core.frontend import RequestOutcome
        from repro.net import HttpResponse

        def go():
            yield self.sim.timeout(self.delay)
            self.served += 1
            resp = HttpResponse(request=request, content_length=1000,
                                served_by="fake",
                                completed_at=self.sim.now)
            return RequestOutcome(response=resp, latency=self.delay,
                                  backend="fake")

        return go()


class FailingFrontend(FakeFrontend):
    """Fails every request until ``recover_at``."""

    def __init__(self, sim, recover_at):
        super().__init__(sim)
        self.recover_at = recover_at

    def submit(self, request, nic):
        if self.sim.now < self.recover_at:
            raise RuntimeError("down")
        return super().submit(request, nic)


class TestWebBenchRig:
    def make(self, sim, frontend, warmup=0.0, think=0.0):
        catalog = generate_catalog(200, rng=RngStream(1),
                                   mix=WORKLOAD_A.catalog_mix)
        sampler = RequestSampler(catalog, WORKLOAD_A, rng=RngStream(2, "s"))
        return WebBenchRig(sim, frontend.submit, sampler, n_machines=4,
                           warmup=warmup, think_time=think,
                           rng=RngStream(3, "rig"))

    def test_validation(self):
        sim = Simulator()
        fe = FakeFrontend(sim)
        with pytest.raises(ValueError):
            WebBenchRig(sim, fe.submit, None, n_machines=0)
        rig = self.make(sim, fe)
        with pytest.raises(ValueError):
            rig.start_clients(0)

    def test_closed_loop_throughput(self):
        sim = Simulator()
        fe = FakeFrontend(sim, delay=0.01)
        rig = self.make(sim, fe)
        rig.start_clients(5)
        sim.run(until=2.0)
        rig.stop_clients()
        # 5 clients, 10 ms per request -> ~500 req/s
        assert rig.throughput(2.0) == pytest.approx(500, rel=0.05)

    def test_warmup_excluded_from_metrics(self):
        sim = Simulator()
        fe = FakeFrontend(sim, delay=0.01)
        rig = self.make(sim, fe, warmup=1.0)
        rig.start_clients(2)
        sim.run(until=2.0)
        # only the second half counts
        assert rig.meter.completions == pytest.approx(200, rel=0.1)

    def test_think_time_lowers_throughput(self):
        sim = Simulator()
        fe = FakeFrontend(sim, delay=0.01)
        rig = self.make(sim, fe, think=0.09)
        rig.start_clients(5)
        sim.run(until=2.0)
        assert rig.throughput(2.0) < 120

    def test_per_class_accounting(self):
        sim = Simulator()
        fe = FakeFrontend(sim)
        rig = self.make(sim, fe)
        rig.start_clients(4)
        sim.run(until=1.0)
        summary = rig.summary(1.0)
        assert summary["completed"] > 0
        assert "image" in summary["by_class"]
        total_by_class = sum(
            m.completions for m in rig.class_meters.values())
        assert total_by_class == rig.meter.completions

    def test_errors_retried_with_backoff(self):
        sim = Simulator()
        fe = FailingFrontend(sim, recover_at=1.0)
        rig = self.make(sim, fe)
        rig.start_clients(3)
        sim.run(until=3.0)
        assert rig.errors > 0
        assert rig.first_error_at is not None
        assert rig.first_error_at < 0.01
        assert rig.last_error_at < 1.3
        assert rig.meter.completions > 0  # recovered and made progress

    def test_clients_spread_over_machines(self):
        sim = Simulator()
        fe = FakeFrontend(sim)
        rig = self.make(sim, fe)
        rig.start_clients(8)
        nics = {c.nic.name for c in rig.clients}
        assert len(nics) == 4  # all machines used

    def test_stop_clients_halts_load(self):
        sim = Simulator()
        fe = FakeFrontend(sim)
        rig = self.make(sim, fe)
        rig.start_clients(2)
        sim.run(until=0.5)
        rig.stop_clients()
        served = fe.served
        sim.run(until=1.5)
        assert fe.served <= served + 2  # at most in-flight ones finish

    def test_requests_spawn_no_process(self):
        """A client submits inline: no Process or _Initialize event per
        request, only the clients' own start events."""
        stats = KernelStats()
        sim = Simulator()
        stats.attach(sim)
        fe = FakeFrontend(sim)
        rig = self.make(sim, fe)
        rig.start_clients(3)
        sim.run(until=1.0)
        classes = dict(stats.report(top=20)["event_classes"])
        assert fe.served > 200
        assert classes["_Initialize"] == 3
        assert "Process" not in classes and "AnyOf" not in classes

    def test_stop_mid_request_lets_it_finish_unrecorded(self):
        sim = Simulator()
        fe = FakeFrontend(sim, delay=1.0)
        rig = self.make(sim, fe)
        rig.start_clients(1)
        sim.run(until=0.5)
        [client] = rig.clients
        client.stop()
        sim.run(until=0.5)
        assert client.process.is_alive  # nothing was thrown into the request
        sim.run(until=2.0)
        assert fe.served == 1
        assert rig.meter.completions == 0 and rig.errors == 0
        assert not client.process.is_alive

    def test_stop_during_think_time_ends_client_at_once(self):
        sim = Simulator()
        fe = FakeFrontend(sim, delay=0.01)
        rig = self.make(sim, fe, think=100.0)
        rig.start_clients(1)
        sim.run(until=0.5)
        [client] = rig.clients
        assert fe.served == 1 and client.process.is_alive  # thinking
        client.stop()
        sim.run(until=0.5)
        assert not client.process.is_alive


class TestStopOnRealFrontend:
    def test_stopped_requests_finish_and_leave_nothing_behind(self):
        """Stopping the rig mid-flight: each request in flight completes
        at the front end, reaches no client record, and after a further
        run no mapping entry or pool lease is left."""
        dep = build_deployment(ExperimentConfig(
            scheme="partition-ca", workload=WORKLOAD_A, seed=3,
            duration=0.6, warmup=0.1, n_objects=120, n_client_machines=4))
        dep.run(8)  # ends with rig.stop_clients()
        fe, rig = dep.frontend, dep.rig
        in_flight = fe.inflight
        assert in_flight > 0
        recorded = (rig.meter.completions, rig.errors)
        served = fe.meter.completions
        dep.sim.run(until=1.0)
        assert fe.meter.completions == served + in_flight
        assert (rig.meter.completions, rig.errors) == recorded
        assert len(fe.mapping) == 0
        assert all(pool.leased_count == 0
                   for pool in fe.pools.pools().values())
        assert not any(c.process.is_alive for c in rig.clients)
