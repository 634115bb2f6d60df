"""Integration tests for the request-level front ends."""

import pytest

from repro.cluster import (BackendServer, NfsServer, NodeSpec, SCSI_DISK_8GB,
                           distributor_spec, paper_testbed_specs)
from repro.content import ContentItem, ContentType, generate_catalog
from repro.core import (ContentAwareDistributor, FrontendDown, L4Router,
                        MappingState, UrlTable, apply_plan, full_replication,
                        partition_by_type, shared_nfs)
from repro.net import HttpRequest, Lan, Nic
from repro.sim import RngStream, Simulator


def build_cluster(n_specs=3):
    sim = Simulator()
    lan = Lan(sim)
    specs = paper_testbed_specs()[:n_specs] if n_specs else \
        paper_testbed_specs()
    servers = {s.name: BackendServer(sim, lan, s) for s in specs}
    client_nic = Nic(sim, 100, name="client")
    return sim, lan, specs, servers, client_nic


def drive(sim, frontend, requests, client_nic):
    """Submit requests sequentially; return outcomes."""
    outcomes = []

    def go():
        for req in requests:
            outcome = yield sim.process(frontend.submit(req, client_nic))
            outcomes.append(outcome)

    sim.process(go())
    sim.run()
    return outcomes


def drive_concurrent(sim, frontend, requests, client_nic):
    """Submit all requests at once (concurrent clients); return outcomes."""
    outcomes = []

    def one(req):
        outcome = yield sim.process(frontend.submit(req, client_nic))
        outcomes.append(outcome)

    for req in requests:
        sim.process(one(req))
    sim.run()
    return outcomes


class TestContentAwareDistributor:
    def make(self, n_specs=3):
        sim, lan, specs, servers, client_nic = build_cluster(n_specs)
        table = UrlTable()
        dist = ContentAwareDistributor(sim, lan, distributor_spec(),
                                       servers, table)
        return sim, lan, specs, servers, client_nic, table, dist

    def test_routes_to_the_holding_node(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make()
        item = ContentItem("/only/here.html", 4096, ContentType.HTML)
        holder = specs[1].name
        servers[holder].place(item)
        table.insert(item, {holder})
        [outcome] = drive(sim, dist, [HttpRequest(item.path)], client_nic)
        assert outcome.response.ok
        assert outcome.backend == holder

    def test_unknown_url_is_503(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make()
        [outcome] = drive(sim, dist, [HttpRequest("/ghost.html")],
                          client_nic)
        assert outcome.response.status == 503
        assert dist.metrics.counter("route/unknown-url").count == 1

    def test_replica_choice_balances(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make()
        item = ContentItem("/rep.html", 2048, ContentType.HTML)
        for s in specs:
            servers[s.name].place(item)
        table.insert(item, {s.name for s in specs})
        outcomes = drive_concurrent(
            sim, dist, [HttpRequest(item.path) for _ in range(12)],
            client_nic)
        used = {o.backend for o in outcomes}
        assert len(used) >= 2  # load spread over replicas

    def test_pool_connection_reused_and_released(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make(1)
        item = ContentItem("/x.html", 1024, ContentType.HTML)
        servers[specs[0].name].place(item)
        table.insert(item, {specs[0].name})
        drive(sim, dist, [HttpRequest(item.path) for _ in range(5)],
              client_nic)
        pool = dist.pools.pool(specs[0].name)
        assert pool.acquired == 5
        assert pool.released == 5
        assert pool.idle_count == pool.total

    def test_mapping_table_drains(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make(1)
        item = ContentItem("/x.html", 1024, ContentType.HTML)
        servers[specs[0].name].place(item)
        table.insert(item, {specs[0].name})
        drive(sim, dist, [HttpRequest(item.path) for _ in range(4)],
              client_nic)
        assert len(dist.mapping) == 0
        assert dist.mapping.created == 4
        assert dist.mapping.deleted == 4

    def test_dead_replica_skipped(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make()
        item = ContentItem("/ha.html", 2048, ContentType.HTML)
        a, b = specs[0].name, specs[1].name
        servers[a].place(item)
        servers[b].place(item)
        table.insert(item, {a, b})
        servers[a].crash()
        dist.view.mark_down(a)
        outcomes = drive(sim, dist,
                         [HttpRequest(item.path) for _ in range(3)],
                         client_nic)
        assert all(o.backend == b for o in outcomes)

    def test_no_replica_alive_is_503(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make()
        item = ContentItem("/down.html", 2048, ContentType.HTML)
        a = specs[0].name
        servers[a].place(item)
        table.insert(item, {a})
        dist.view.mark_down(a)
        [outcome] = drive(sim, dist, [HttpRequest(item.path)], client_nic)
        assert outcome.response.status == 503

    def test_latency_includes_transfer_and_service(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make(1)
        item = ContentItem("/big.html", 512 * 1024, ContentType.HTML)
        servers[specs[0].name].place(item)
        table.insert(item, {specs[0].name})
        [outcome] = drive(sim, dist, [HttpRequest(item.path)], client_nic)
        # 512 KB over two 100 Mbps hops: > 2 x 41 ms of wire time
        assert outcome.latency > 0.08

    def test_crashed_frontend_rejects(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make(1)
        dist.crash()
        with pytest.raises(RuntimeError):
            next(iter(dist.submit(HttpRequest("/x.html"), client_nic)))

    def test_on_response_hook_fires(self):
        sim, lan, specs, servers, client_nic, table, dist = self.make(1)
        item = ContentItem("/x.html", 1024, ContentType.HTML)
        servers[specs[0].name].place(item)
        table.insert(item, {specs[0].name})
        seen = []
        dist.on_response = lambda it, resp: seen.append((it, resp.status))
        drive(sim, dist, [HttpRequest(item.path)], client_nic)
        assert seen == [(item, 200)]


class TestL4Router:
    def make(self, catalog=None):
        sim, lan, specs, servers, client_nic = build_cluster(3)
        catalog = catalog or generate_catalog(50, rng=RngStream(5))
        plan = full_replication(catalog, [s.name for s in specs])
        apply_plan(plan, catalog, servers)

        def resolver(url):
            path = url.split("?")[0]
            return catalog.get(path) if path in catalog else None

        router = L4Router(sim, lan, distributor_spec(), servers, resolver)
        return sim, specs, servers, client_nic, catalog, router

    def test_serves_from_any_node(self):
        sim, specs, servers, client_nic, catalog, router = self.make()
        paths = catalog.paths()[:9]
        outcomes = drive(sim, router,
                         [HttpRequest(p) for p in paths], client_nic)
        assert all(o.response.ok for o in outcomes)

    def test_content_blind_spread(self):
        """The router spreads one URL across many nodes -- the content-blind
        behaviour that shrinks per-node cache effectiveness."""
        sim, specs, servers, client_nic, catalog, router = self.make()
        path = catalog.paths()[0]
        outcomes = drive_concurrent(
            sim, router, [HttpRequest(path) for _ in range(12)], client_nic)
        assert len({o.backend for o in outcomes}) >= 2

    def test_unknown_url_404(self):
        sim, specs, servers, client_nic, catalog, router = self.make()
        [outcome] = drive(sim, router, [HttpRequest("/ghost.xyz")],
                          client_nic)
        assert outcome.response.status == 404

    def test_weighted_least_connection_prefers_big_nodes_under_load(self):
        sim, lan, specs, servers, client_nic = build_cluster(0)  # all 9
        catalog = generate_catalog(60, rng=RngStream(6))
        plan = full_replication(catalog, [s.name for s in specs])
        apply_plan(plan, catalog, servers)
        router = L4Router(sim, lan, distributor_spec(), servers,
                          lambda url: catalog.get(url.split("?")[0]))
        paths = catalog.paths()
        outcomes = drive(sim, router,
                         [HttpRequest(paths[i % len(paths)])
                          for i in range(45)], client_nic)
        by_node = {}
        for o in outcomes:
            by_node[o.backend] = by_node.get(o.backend, 0) + 1
        # the 350 MHz nodes carry more than the 150 MHz ones in aggregate
        fast = sum(v for k, v in by_node.items() if k.startswith("s350"))
        slow = sum(v for k, v in by_node.items() if k.startswith("s150"))
        assert fast > slow
