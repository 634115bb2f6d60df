"""Same-instant ordering of the packet-level splicer, pinned byte for byte.

The distributor drives each client connection inline, stepping it where
its old per-connection process would have resumed (a 0-delay event at
the tail of the current instant) or, when nothing else is due at that
instant, right away.  Either way every segment is emitted in the same
order as before.  These tests pin that order where it is most fragile:
many clients connecting at the same instant, pool legs too few for
them (waits and hand-overs), refused requests (RST), HTTP/1.0 FIN
relaying and MSS-fragmented responses, both plainly and on the
event-accurate reference (:func:`~tests.experiments.oracle.forced_fallback`,
one segment per MSS fragment).

The golden digests cover the full wire log in emission order, the
client-side outcomes, the splice trace and the pool-leg cursors; they
were recorded with the process-driven distributor.
"""

import contextlib
import hashlib
import itertools
import json

import pytest

import repro.core.splicer
import repro.net.tcp
from repro.content import ContentItem, ContentType
from repro.core import SplicingDistributor, UrlTable
from repro.net import (Address, Host, HttpRequest, HttpResponse, HttpVersion,
                       Network, TcpState)
from repro.obs import Tracer
from repro.sim import Simulator

from ..experiments.oracle import forced_fallback

#: response sizes per document; the large one fragments to 14 segments
SIZES = {"/a.html": 900, "/b.html": 20000, "/c.html": 3000}
#: per client: (url, HTTP version) fetched back to back; /ghost.html is
#: not in the URL table, so the distributor refuses it with a RST
PLANS = [
    [("/a.html", HttpVersion.HTTP_1_1), ("/b.html", HttpVersion.HTTP_1_1)],
    [("/b.html", HttpVersion.HTTP_1_0), ("/a.html", HttpVersion.HTTP_1_1)],
    [("/c.html", HttpVersion.HTTP_1_1), ("/ghost.html", HttpVersion.HTTP_1_1)],
    [("/a.html", HttpVersion.HTTP_1_0), ("/c.html", HttpVersion.HTTP_1_0)],
    [("/ghost.html", HttpVersion.HTTP_1_1), ("/b.html", HttpVersion.HTTP_1_1)],
    [("/c.html", HttpVersion.HTTP_1_1), ("/a.html", HttpVersion.HTTP_1_1)],
]

#: keyed by "fast": False is the reference run under forced_fallback().
#: Under same-instant leg contention aggregated bursts hand legs over in
#: a different order than per-fragment segments do, so the two are
#: pinned separately
GOLDEN = {
    False: "cb841afb913cc7af9327a0934b5f4691de6573644d0008dbce0df3bb15100ee4",
    True: "8dd618ada18a72f684f8222e278510059fe867c6cd725e8c49e5684d6c95bf12",
}


def fresh_isns() -> None:
    """Restart the process-wide ISN counters, so the wire log does not
    depend on how many connections earlier tests opened."""
    repro.net.tcp._isn_counter = itertools.count(1000, 7919)
    repro.core.splicer._isns = itertools.count(5_000_000, 2741)


def run_scenario() -> dict:
    fresh_isns()
    sim = Simulator()
    net = Network(sim)
    wire = []
    deliver = net.send

    def recording_send(seg):
        wire.append([sim.now, str(seg.src), str(seg.dst), seg.seq, seg.ack,
                     int(seg.flags), seg.payload_len, seg.frags])
        deliver(seg)

    net.send = recording_send
    table = UrlTable()
    backends = {}
    for i, name in enumerate(("s1", "s2")):
        ip = f"10.0.1.{i + 1}"
        backends[name] = Address(ip, 80)

        def app(sock, name=name):
            def loop():
                while sock.state in (TcpState.ESTABLISHED,
                                     TcpState.CLOSE_WAIT):
                    request, _ = yield sock.recv()
                    response = HttpResponse(
                        request=request, content_length=SIZES[request.url],
                        served_by=name)
                    sock.send_data(response, response.wire_bytes)

            sim.process(loop())

        Host(net, ip).listen(80, app)
    table.insert(ContentItem("/a.html", 900, ContentType.HTML), {"s1", "s2"})
    table.insert(ContentItem("/b.html", 20000, ContentType.IMAGE), {"s1"})
    table.insert(ContentItem("/c.html", 3000, ContentType.HTML), {"s2"})
    tracer = Tracer(sim, ring=100_000)
    dist = SplicingDistributor(sim, net, table, backends, prefork=1)
    dist.prefork_all()
    sim.run(until=0.01)

    outcomes = []
    for c, plan in enumerate(PLANS):
        host = Host(net, f"10.0.2.{c + 1}")

        def client(host=host, plan=plan, c=c):
            for url, version in plan:
                sock = host.socket()
                yield sock.connect(Address("10.0.0.100", 80))
                request = HttpRequest(url, version=version)
                sock.send(request, request.wire_bytes)
                received, payload = 0, None
                while payload is None and not sock.reset:
                    got = sock.recv()
                    fired = yield sim.any_of([got, sock.closed_event])
                    if got in fired:
                        payload, nbytes = fired[got]
                        received += nbytes
                    else:
                        sock.inbox.cancel_get(got)
                if payload is None:
                    outcomes.append([sim.now, c, url, "RST", received])
                    continue
                outcomes.append([sim.now, c, url, payload.served_by,
                                 received])
                if version is HttpVersion.HTTP_1_0:
                    while sock.state is not TcpState.CLOSE_WAIT:
                        yield sim.timeout(1e-4)
                yield sock.close()

        sim.process(client())
    sim.run(until=5.0)
    return {
        "wire": wire,
        "outcomes": outcomes,
        "trace": [e.to_dict() for e in tracer.events],
        "legs": [[leg.backend, leg.uses, leg.snd_nxt - leg.isn, leg.rcv_nxt]
                 for leg in dist._legs.values()],
        "open": len(dist.mapping),
        "idle": [dist.idle_legs(b) for b in sorted(backends)],
    }


def digest(run: dict) -> str:
    return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()


@pytest.fixture(autouse=True)
def _restore_isns(monkeypatch):
    monkeypatch.setattr(repro.net.tcp, "_isn_counter",
                        repro.net.tcp._isn_counter)
    monkeypatch.setattr(repro.core.splicer, "_isns", repro.core.splicer._isns)


@pytest.mark.parametrize("fast", [False, True])
def test_wire_order_matches_process_driven_splicer(fast):
    with contextlib.nullcontext() if fast else forced_fallback():
        run = run_scenario()
    # the scenario really exercises what it claims to
    assert any(o[3] == "RST" for o in run["outcomes"])
    assert len(run["outcomes"]) == sum(len(p) for p in PLANS)
    assert run["open"] == 0 and run["idle"] == [1, 1]
    assert digest(run) == GOLDEN[fast]

