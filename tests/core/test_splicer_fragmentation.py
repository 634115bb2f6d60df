"""Multi-segment (MSS-fragmented) responses through the splicer.

Large responses cross the wire as several segments; the distributor must
relay each one, and for HTTP/1.0 set the FIN flag on the *last* relayed
packet only (§2.2).
"""

import pytest

from repro.content import ContentItem, ContentType
from repro.core import SplicingDistributor, UrlTable
from repro.net import (Address, Host, HttpRequest, HttpResponse, Network,
                       TcpState)
from repro.net.http import HttpVersion
from repro.net.tcp import TcpSocket
from repro.sim import Simulator

from ..experiments.oracle import forced_fallback

MSS = 1460


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim)


class TestSendData:
    def test_fragment_count(self, sim, net):
        client, server = Host(net, "10.0.0.2"), Host(net, "10.0.0.1")
        got = []
        server.listen(80, lambda sock: got.append(sock))
        sock = client.socket()

        def go():
            yield sock.connect(Address("10.0.0.1", 80))
            n = sock.send_data("msg", 3500, mss=1000)
            assert n == 4  # 1000+1000+1000+500

        sim.process(go())
        sim.run()

    @pytest.mark.parametrize("reference", [False, True])
    def test_burst_on_the_wire(self, reference):
        """A multi-segment message leaves as one aggregated segment
        standing for its fragments; under the reference fixture, as one
        segment per fragment with the payload on the last.  A message
        that fits one segment is sent plainly either way."""
        def wire_log():
            sim = Simulator()
            net = Network(sim)
            wire = []
            deliver = net.send

            def recording_send(seg):
                wire.append((seg.payload_len, seg.frags, seg.payload))
                deliver(seg)

            net.send = recording_send
            client, server = Host(net, "10.0.0.2"), Host(net, "10.0.0.1")
            server.listen(80, lambda sock: None)
            sock = client.socket()

            def go():
                yield sock.connect(Address("10.0.0.1", 80))
                del wire[:]
                assert sock.send_data("small", 800, mss=1000) == 1
                assert sock.send_data("big", 3500, mss=1000) == 4

            sim.process(go())
            sim.run()
            data = [seg for seg in wire if seg[0]]
            return data, net.segments_sent, net.flow_forwards

        if reference:
            with forced_fallback():
                data, _, forwards = wire_log()
            assert data == [(800, 1, "small"), (1000, 1, None),
                            (1000, 1, None), (1000, 1, None),
                            (500, 1, "big")]
            assert forwards == 0
        else:
            data, _, forwards = wire_log()
            assert data == [(800, 1, "small"), (3500, 4, "big")]
            assert forwards == 1

    def test_validation(self, sim, net):
        client, server = Host(net, "10.0.0.2"), Host(net, "10.0.0.1")
        server.listen(80, lambda sock: None)
        sock = client.socket()

        def go():
            yield sock.connect(Address("10.0.0.1", 80))
            with pytest.raises(ValueError):
                sock.send_data("x", 100, mss=0)
            with pytest.raises(ValueError):
                sock.send_data("x", 0)

        sim.process(go())
        sim.run()

    def test_recv_message_reassembles(self, sim, net):
        client, server = Host(net, "10.0.0.2"), Host(net, "10.0.0.1")
        accepted = []
        server.listen(80, accepted.append)
        sock = client.socket()
        out = []

        def client_proc():
            yield sock.connect(Address("10.0.0.1", 80))
            sock.send_data({"body": "big"}, 5000, mss=MSS)

        def server_proc():
            while not accepted:
                yield sim.timeout(1e-4)
            payload = yield from accepted[0].recv_message(5000)
            out.append(payload)

        sim.process(client_proc())
        sim.process(server_proc())
        sim.run()
        assert out == [{"body": "big"}]


def build_splice_world(sim, net, content_length=6000):
    table = UrlTable()
    host = Host(net, "10.0.1.1")

    def app(sock):
        def loop():
            while sock.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
                payload, _ = yield sock.recv()
                response = HttpResponse(request=payload,
                                        content_length=content_length,
                                        served_by="s1")
                sock.send_data(response, response.wire_bytes, mss=MSS)

        sim.process(loop())

    host.listen(80, app)
    dist = SplicingDistributor(sim, net, table,
                               {"s1": Address("10.0.1.1", 80)}, prefork=1)
    done = []
    dist.prefork_all().add_callback(lambda ev: done.append(True))
    sim.run(until=0.01)
    assert done
    item = ContentItem("/big.html", content_length, ContentType.HTML)
    table.insert(item, {"s1"})
    return dist, item


class TestFragmentedSplice:
    def test_multi_segment_response_relayed(self, sim, net):
        dist, item = build_splice_world(sim, net, content_length=6000)
        host = Host(net, "10.0.2.1")
        result = {}

        def go():
            sock = host.socket()
            yield sock.connect(Address("10.0.0.100", 80))
            request = HttpRequest(item.path)
            sock.send(request, request.wire_bytes)
            response = yield from sock.recv_message(
                6000 + 240)  # content + headers
            result["response"] = response
            yield sock.close()

        sim.process(go())
        sim.run()
        assert result["response"].served_by == "s1"
        # ~5 segments for ~6.2 KB at 1460 MSS
        assert dist.relayed_to_client >= 4
        assert len(dist.mapping) == 0
        assert dist.idle_legs("s1") == 1

    def test_http10_fin_on_last_fragment_only(self, sim, net):
        dist, item = build_splice_world(sim, net, content_length=6000)
        host = Host(net, "10.0.2.2")
        result = {}
        fins_seen = []
        original = net.send

        def spy(segment):
            if segment.is_fin and segment.src.ip == "10.0.0.100":
                fins_seen.append(segment)
            original(segment)

        net.send = spy

        def go():
            sock = host.socket()
            yield sock.connect(Address("10.0.0.100", 80))
            request = HttpRequest(item.path, version=HttpVersion.HTTP_1_0)
            sock.send(request, request.wire_bytes)
            response = yield from sock.recv_message(6000 + 240)
            result["response"] = response
            result["state_after"] = sock.state
            while sock.state is not TcpState.CLOSE_WAIT:
                yield sim.timeout(1e-4)
            yield sock.close()
            result["final_state"] = sock.state

        sim.process(go())
        sim.run()
        assert result["response"].served_by == "s1"
        # exactly one FIN toward the client, on the final data packet
        assert len(fins_seen) == 1
        assert fins_seen[0].payload is result["response"]
        assert result["final_state"] is TcpState.CLOSED
        assert len(dist.mapping) == 0
        assert dist.idle_legs("s1") == 1
