"""Tests for the backend web server service model and the NFS path."""

import pytest

from repro.cluster import (BackendServer, NfsServer, NodeSpec, IDE_DISK_4GB,
                           SCSI_DISK_8GB, ServiceCosts, paper_testbed_specs)
from repro.content import ContentItem, ContentType
from repro.net import HttpRequest, Lan
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def lan(sim):
    return Lan(sim, latency=0.0)


def fast_spec(name="fast"):
    return NodeSpec(name, 350, 128, SCSI_DISK_8GB)


def slow_spec(name="slow"):
    return NodeSpec(name, 150, 64, IDE_DISK_4GB)


def run_one(sim, server, item, url=None):
    """Drive one request through a server, return the response."""
    request = HttpRequest(url or item.path)
    out = []

    def go():
        resp = yield sim.process(server.serve(request, item))
        out.append(resp)

    sim.process(go())
    sim.run()
    return out[0]


class TestStaticService:
    def test_static_hit_served_from_memory(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec())
        item = ContentItem("/a.html", 8192, ContentType.HTML)
        server.place(item)
        first = run_one(sim, server, item)
        assert first.ok and not first.cache_hit
        second = run_one(sim, server, item)
        assert second.cache_hit
        assert second.service_time < first.service_time

    def test_miss_pays_disk_time(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec())
        item = ContentItem("/a.html", 64 * 1024, ContentType.HTML)
        server.place(item)
        resp = run_one(sim, server, item)
        assert resp.service_time >= SCSI_DISK_8GB.avg_access_s

    def test_no_copy_anywhere_is_404(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec())
        item = ContentItem("/a.html", 100, ContentType.HTML)
        resp = run_one(sim, server, item)  # never placed
        assert resp.status == 404
        assert server.failed_requests == 1
        assert server.completed_requests == 0

    def test_none_item_is_404(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec())
        request = HttpRequest("/ghost.html")
        out = []

        def go():
            out.append((yield sim.process(server.serve(request, None))))

        sim.process(go())
        sim.run()
        assert out[0].status == 404

    def test_response_carries_metadata(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec("nodeX"))
        item = ContentItem("/a.html", 5000, ContentType.HTML)
        server.place(item)
        resp = run_one(sim, server, item)
        assert resp.served_by == "nodeX"
        assert resp.content_length == 5000


class TestDynamicService:
    def test_dynamic_pays_cpu_work(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec())
        cgi = ContentItem("/cgi-bin/q.cgi", 4096, ContentType.CGI,
                          cpu_work=0.050)
        server.place(cgi)
        resp = run_one(sim, server, cgi)
        assert resp.service_time >= 0.050

    def test_slow_node_much_slower_on_dynamic(self, sim, lan):
        cgi = ContentItem("/cgi-bin/q.cgi", 4096, ContentType.CGI,
                          cpu_work=0.050)
        fast = BackendServer(sim, lan, fast_spec())
        slow = BackendServer(sim, lan, slow_spec())
        fast.place(cgi)
        slow.place(cgi)
        fast_resp = run_one(sim, fast, cgi)
        slow_resp = run_one(sim, slow, cgi)
        # 350/150 = 2.33x CPU scaling dominates
        assert slow_resp.service_time > 2.0 * fast_resp.service_time

    def test_dynamic_needs_no_local_static_copy(self, sim, lan):
        """Dynamic responses are generated, not read from the store."""
        server = BackendServer(sim, lan, fast_spec())
        cgi = ContentItem("/cgi-bin/q.cgi", 4096, ContentType.CGI,
                          cpu_work=0.010)
        resp = run_one(sim, server, cgi)
        assert resp.ok


class TestInterference:
    def test_long_request_delays_short_one(self, sim, lan):
        """§1.1: CPU-intensive dynamic requests delay static delivery --
        the motivation for segregation (Figure 4)."""
        server = BackendServer(sim, lan, fast_spec())
        cgi = ContentItem("/cgi-bin/slow.cgi", 1024, ContentType.CGI,
                          cpu_work=0.200)
        page = ContentItem("/index.html", 2048, ContentType.HTML)
        server.place(cgi)
        server.place(page)
        # warm the page into cache
        run_one(sim, server, page)

        results = {}

        def issue(name, item, delay):
            yield sim.timeout(delay)
            resp = yield sim.process(server.serve(HttpRequest(item.path),
                                                  item))
            results[name] = resp

        sim.process(issue("cgi", cgi, 0.0))
        sim.process(issue("page", page, 0.001))
        sim.run()
        # the static hit should take ~0.3 ms alone but waits behind 200 ms CGI
        assert results["page"].service_time > 0.1

    def test_worker_slots_bound_concurrency(self, sim, lan):
        spec = NodeSpec("tiny", 350, 128, SCSI_DISK_8GB, max_workers=2)
        server = BackendServer(sim, lan, spec)
        item = ContentItem("/a.html", 1024, ContentType.HTML)
        server.place(item)
        peak = []

        def issue():
            resp = yield sim.process(server.serve(HttpRequest(item.path),
                                                  item))
            peak.append(server.workers.in_use)

        for _ in range(6):
            sim.process(issue())
        sim.run()
        assert server.workers.peak_queue_len >= 1  # some had to wait

    def test_interrupted_serve_leaves_the_worker_queue(self, sim, lan):
        """A serve torn down while it waits for a worker slot withdraws:
        the slot goes to the next serve, not to the dead one."""
        spec = NodeSpec("tiny", 350, 128, SCSI_DISK_8GB, max_workers=1)
        server = BackendServer(sim, lan, spec)
        cgi = ContentItem("/cgi-bin/slow.cgi", 1024, ContentType.CGI,
                          cpu_work=0.050)
        server.place(cgi)
        served = []

        def submit(tag, delay=0.0):
            yield sim.timeout(delay)
            yield from server.serve(HttpRequest(cgi.path), cgi)
            served.append(tag)

        sim.process(submit("first"))
        victim = sim.process(submit("victim"))

        def killer():
            yield sim.timeout(0.001)
            victim.interrupt("torn down")

        sim.process(killer())
        sim.process(submit("after", delay=0.002))
        sim.run()
        assert served == ["first", "after"]
        assert server.workers.users == [] and server.workers.queue == []


class TestNfsPath:
    def make_nfs(self, sim, lan):
        nfs_spec = NodeSpec("nfs", 350, 128, SCSI_DISK_8GB)
        return NfsServer(sim, lan, nfs_spec)

    def test_remote_read_on_miss(self, sim, lan):
        nfs = self.make_nfs(sim, lan)
        item = ContentItem("/a.html", 16384, ContentType.HTML)
        nfs.export([item])
        server = BackendServer(sim, lan, fast_spec(), nfs=nfs)
        resp = run_one(sim, server, item)
        assert resp.ok
        assert nfs.rpcs_served == 1
        assert nfs.bytes_served == 16384

    def test_remote_read_slower_than_local(self, sim, lan):
        item = ContentItem("/a.html", 16384, ContentType.HTML)
        nfs = self.make_nfs(sim, lan)
        nfs.export([item])
        remote = BackendServer(sim, lan, fast_spec("remote"), nfs=nfs)
        local = BackendServer(sim, lan, fast_spec("local"))
        local.place(item)
        r_remote = run_one(sim, remote, item)
        r_local = run_one(sim, local, item)
        assert r_remote.service_time > r_local.service_time

    def test_nfs_cache_serves_repeat_reads_without_disk(self, sim, lan):
        nfs = self.make_nfs(sim, lan)
        item = ContentItem("/a.html", 16384, ContentType.HTML)
        nfs.export([item])
        server_spec = NodeSpec("web", 350, 1024 + 32, SCSI_DISK_8GB)
        # deliberately tiny web-server cache so every request goes remote
        server = BackendServer(sim, lan, fast_spec(), nfs=nfs)
        run_one(sim, server, item)
        server.cache.clear()
        run_one(sim, server, item)
        assert nfs.disk.reads == 1  # second RPC hit the NFS memory cache

    def test_unexported_item_raises(self, sim, lan):
        nfs = self.make_nfs(sim, lan)
        item = ContentItem("/a.html", 100, ContentType.HTML)
        server = BackendServer(sim, lan, fast_spec(), nfs=nfs)
        request = HttpRequest(item.path)

        def go():
            yield sim.process(server.serve(request, item))

        sim.process(go())
        with pytest.raises(KeyError):
            sim.run()


class TestFailureInjection:
    def test_crashed_server_raises(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec())
        server.crash()
        item = ContentItem("/a.html", 100, ContentType.HTML)
        with pytest.raises(RuntimeError):
            # serve() raises synchronously before any yield
            next(iter(server.serve(HttpRequest(item.path), item)))

    def test_recover(self, sim, lan):
        server = BackendServer(sim, lan, fast_spec())
        server.crash()
        server.recover()
        item = ContentItem("/a.html", 100, ContentType.HTML)
        server.place(item)
        assert run_one(sim, server, item).ok


class TestOsPenalty:
    def test_nt_slower_than_linux_same_hardware(self, sim, lan):
        item = ContentItem("/a.html", 4096, ContentType.HTML)
        linux = BackendServer(
            sim, lan, NodeSpec("l", 350, 128, SCSI_DISK_8GB, os="linux"))
        nt = BackendServer(
            sim, lan, NodeSpec("n", 350, 128, SCSI_DISK_8GB, os="nt"))
        linux.place(item)
        nt.place(item)
        run_one(sim, linux, item)   # warm caches
        run_one(sim, nt, item)
        r_linux = run_one(sim, linux, item)
        r_nt = run_one(sim, nt, item)
        assert r_nt.service_time > r_linux.service_time
