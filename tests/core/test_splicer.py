"""End-to-end tests of the packet-level splicing distributor (§2.2).

Real TCP client sockets talk to the VIP; real backend listener sockets sit
behind pre-forked persistent connections; the distributor relays by header
rewriting.  These tests check the mechanism itself: handshake interception,
binding, relaying, FIN handling, connection reuse.
"""

import pytest

import repro.core.splicer
from repro.content import ContentItem, ContentType
from repro.core import (MappingState, SplicingDistributor, UrlTable)
from repro.net import (Address, Host, HttpRequest, HttpResponse, HttpVersion,
                       Network, TcpState)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim)


def start_backend(sim, net, ip, name):
    """A persistent-connection HTTP backend echoing sized responses."""
    host = Host(net, ip)
    served = []

    def app(sock):
        def loop():
            while sock.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
                payload, nbytes = yield sock.recv()
                request: HttpRequest = payload
                served.append((name, request.url))
                response = HttpResponse(request=request,
                                        content_length=1000,
                                        served_by=name)
                sock.send(response, response.wire_bytes)

        sim.process(loop(), name=f"app:{name}")

    host.listen(80, app)
    return host, served


def build(sim, net, backends=("s1",), prefork=2):
    table = UrlTable()
    addrs = {}
    served_logs = {}
    for i, name in enumerate(backends):
        ip = f"10.0.1.{i + 1}"
        _host, served = start_backend(sim, net, ip, name)
        addrs[name] = Address(ip, 80)
        served_logs[name] = served
    dist = SplicingDistributor(sim, net, table, addrs, prefork=prefork)
    done = []
    dist.prefork_all().add_callback(lambda ev: done.append(True))
    sim.run(until=0.01)
    assert done, "prefork did not complete"
    return dist, table, served_logs


def client_fetch(sim, net, url, version=HttpVersion.HTTP_1_1,
                 client_ip="10.0.2.1", close_after=True):
    """One client connection fetching one URL through the VIP."""
    host = Host(net, client_ip)
    result = {}

    def go():
        sock = host.socket()
        yield sock.connect(Address("10.0.0.100", 80))
        request = HttpRequest(url, version=version)
        sock.send(request, request.wire_bytes)
        payload, nbytes = yield sock.recv()
        result["response"] = payload
        result["nbytes"] = nbytes
        if version is HttpVersion.HTTP_1_0:
            # the distributor FINs first; wait for CLOSE_WAIT then close
            while sock.state is not TcpState.CLOSE_WAIT:
                yield sim.timeout(1e-4)
            yield sock.close()
        elif close_after:
            yield sock.close()
        result["sock"] = sock

    proc = sim.process(go())
    return proc, result


class TestBasicSplice:
    def test_request_routed_and_response_relayed(self, sim, net):
        dist, table, served = build(sim, net, backends=("s1",))
        item = ContentItem("/a.html", 1000, ContentType.HTML)
        table.insert(item, {"s1"})
        proc, result = client_fetch(sim, net, "/a.html")
        sim.run()
        assert result["response"].served_by == "s1"
        assert served["s1"] == [("s1", "/a.html")]
        assert dist.relayed_to_server == 1
        assert dist.relayed_to_client == 1

    def test_mapping_entry_reaches_closed_and_is_deleted(self, sim, net):
        dist, table, served = build(sim, net)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        proc, result = client_fetch(sim, net, "/a.html")
        sim.run()
        assert len(dist.mapping) == 0
        assert dist.mapping.created == 1
        assert dist.mapping.deleted == 1

    def test_client_socket_closes_cleanly(self, sim, net):
        dist, table, served = build(sim, net)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        proc, result = client_fetch(sim, net, "/a.html")
        sim.run()
        assert result["sock"].state is TcpState.CLOSED
        assert not result["sock"].reset

    def test_pooled_connection_returned_to_available_list(self, sim, net):
        dist, table, served = build(sim, net, prefork=2)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        proc, result = client_fetch(sim, net, "/a.html")
        sim.run()
        assert dist.idle_legs("s1") == 2

    def test_unknown_url_resets_connection(self, sim, net):
        dist, table, served = build(sim, net)
        host = Host(net, "10.0.2.9")
        state = {}

        def go():
            sock = host.socket()
            state["sock"] = sock
            yield sock.connect(Address("10.0.0.100", 80))
            request = HttpRequest("/ghost.html")
            sock.send(request, request.wire_bytes)

        sim.process(go())
        sim.run(until=1.0)
        # the distributor found no record and reset the connection
        assert state["sock"].reset
        assert state["sock"].state is TcpState.CLOSED
        assert len(dist.mapping) == 0


class TestConnectionReuse:
    def test_sequential_clients_reuse_same_leg(self, sim, net):
        dist, table, served = build(sim, net, prefork=1)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        for i in range(3):
            proc, result = client_fetch(sim, net, "/a.html",
                                        client_ip=f"10.0.2.{i + 1}")
            sim.run()
            assert result["response"].served_by == "s1"
        leg = dist._legs[list(dist._legs)[0]]
        assert leg.uses == 3
        # sequence numbers accumulated across spliced requests
        assert leg.snd_nxt > leg.isn + 1

    def test_concurrent_clients_on_separate_legs(self, sim, net):
        dist, table, served = build(sim, net, prefork=2)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        p1, r1 = client_fetch(sim, net, "/a.html", client_ip="10.0.2.1")
        p2, r2 = client_fetch(sim, net, "/a.html", client_ip="10.0.2.2")
        sim.run()
        assert r1["response"].served_by == "s1"
        assert r2["response"].served_by == "s1"
        assert dist.idle_legs("s1") == 2

    def test_client_waits_when_all_legs_busy(self, sim, net):
        dist, table, served = build(sim, net, prefork=1)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        p1, r1 = client_fetch(sim, net, "/a.html", client_ip="10.0.2.1")
        p2, r2 = client_fetch(sim, net, "/a.html", client_ip="10.0.2.2")
        sim.run()
        # both eventually served through the single pre-forked connection
        assert r1["response"].served_by == "s1"
        assert r2["response"].served_by == "s1"

    def test_segments_arriving_while_waiting_replay_in_order(self, sim, net):
        """A request parked on a busy pool keeps its connection's later
        segments (here a RST) until the leg is handed over: the request
        is still relayed first, then the reset tears the splice down."""
        dist, table, served = build(sim, net, prefork=1)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        holder, held = client_fetch(sim, net, "/a.html",
                                    client_ip="10.0.2.1", close_after=False)
        sim.run(until=0.05)
        assert dist.idle_legs("s1") == 0      # the keep-alive holds the leg
        host = Host(net, "10.0.2.2")

        def impatient():
            sock = host.socket()
            yield sock.connect(Address("10.0.0.100", 80))
            request = HttpRequest("/a.html")
            sock.send(request, request.wire_bytes)
            yield sim.timeout(0.01)
            sock.abort()

        sim.process(impatient())
        sim.run(until=0.1)
        assert served["s1"] == [("s1", "/a.html")]   # still parked
        held["sock"].close()
        sim.run()
        assert served["s1"] == [("s1", "/a.html"), ("s1", "/a.html")]
        assert len(dist.mapping) == 0
        assert dist.idle_legs("s1") == 1

    def test_distributor_runs_no_processes(self, sim, net):
        dist, table, served = build(sim, net)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        started = []
        spawn = sim.process

        def recording_process(generator, name=""):
            started.append(generator.gi_code.co_filename)
            return spawn(generator, name=name)

        sim.process = recording_process
        client_fetch(sim, net, "/a.html")
        sim.run()
        assert dist.relayed_to_client == 1
        assert started                # the test's own client and backend
        assert repro.core.splicer.__file__ not in started


class TestContentAwareRouting:
    def test_requests_follow_content_location(self, sim, net):
        dist, table, served = build(sim, net, backends=("s1", "s2"))
        table.insert(ContentItem("/on1.html", 1000, ContentType.HTML),
                     {"s1"})
        table.insert(ContentItem("/on2.html", 1000, ContentType.HTML),
                     {"s2"})
        p1, r1 = client_fetch(sim, net, "/on1.html", client_ip="10.0.2.1")
        sim.run()
        p2, r2 = client_fetch(sim, net, "/on2.html", client_ip="10.0.2.2")
        sim.run()
        assert r1["response"].served_by == "s1"
        assert r2["response"].served_by == "s2"
        assert served["s1"] == [("s1", "/on1.html")]
        assert served["s2"] == [("s2", "/on2.html")]


class TestHttp10Teardown:
    def test_distributor_sets_fin_on_last_relayed_packet(self, sim, net):
        """§2.2: 'If the client use HTTP 1.0 protocol, the distributor will
        set the FIN flag instead of server when it relay the last packet.'"""
        dist, table, served = build(sim, net)
        table.insert(ContentItem("/a.html", 1000, ContentType.HTML), {"s1"})
        proc, result = client_fetch(sim, net, "/a.html",
                                    version=HttpVersion.HTTP_1_0)
        sim.run()
        assert result["response"].served_by == "s1"
        assert result["sock"].state is TcpState.CLOSED
        assert len(dist.mapping) == 0
        assert dist.idle_legs("s1") == 1 * 2  # leg released
