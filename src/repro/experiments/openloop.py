"""Open-loop request stream through the packet-level splicing distributor.

§2.2's mechanism under Poisson arrivals: every request opens a client
connection to the distributor's virtual IP, is spliced onto a pre-forked
backend leg, and receives an MSS-fragmented response.  The run yields a
digest of every simulated observable, which the ``openloop`` sweep target
and the equivalence tests compare byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..content import ContentItem, ContentType
from ..core import SplicingDistributor, UrlTable
from ..net import Address, Host, HttpRequest, HttpResponse, Network, TcpState
from ..obs import KernelStats
from ..sim import RngStream, Simulator

__all__ = ["run_openloop_splice"]

#: static document mix: mostly small pages with a heavy tail of large,
#: MSS-fragmented transfers (weights sum to 1.0)
_OPENLOOP_DOCS = (
    ("/index.html", 4 * 1024, ContentType.HTML, 0.60),
    ("/img/banner.gif", 30 * 1024, ContentType.IMAGE, 0.25),
    ("/doc/manual.html", 120 * 1024, ContentType.HTML, 0.10),
    ("/pub/release.avi", 1024 * 1024, ContentType.VIDEO, 0.05),
)


def _openloop_schedule(rate: float, duration: float,
                       seed: int) -> list[tuple[float, str]]:
    """Precompute the (arrival time, url) pairs."""
    # the stream name seeds every pinned open-loop digest; keep it
    rng = RngStream(seed, "bench/openloop")
    cumulative = []
    acc = 0.0
    for path, _, _, weight in _OPENLOOP_DOCS:
        acc += weight
        cumulative.append((acc, path))
    schedule = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        draw = rng.random()
        url = next(path for edge, path in cumulative if draw <= edge)
        schedule.append((t, url))
    return schedule


def run_openloop_splice(rate: float = 400.0, duration: float = 2.0,
                        seed: int = 42, prefork: int = 8, mss: int = 1460,
                        kernel_stats: Optional[KernelStats] = None) -> dict:
    """Drive an open-loop client fleet through the splicing distributor.

    Returns a result dict whose ``"digest"`` covers every simulated
    observable (completions, bytes, segment counts, relay counters, and
    the full per-request completion timeline); a run probed with
    ``kernel_stats`` must produce the same digest as a plain one.
    """
    sim = Simulator()
    if kernel_stats is not None:
        kernel_stats.attach(sim)
    net = Network(sim)
    table = UrlTable()
    sizes = {}
    backends = {}
    for i, name in enumerate(("s1", "s2")):
        ip = f"10.0.1.{i + 1}"
        backends[name] = Address(ip, 80)
        host = Host(net, ip)

        def app(sock, _mss=mss):
            def loop():
                while sock.state in (TcpState.ESTABLISHED,
                                     TcpState.CLOSE_WAIT):
                    payload, _ = yield sock.recv()
                    response = HttpResponse(
                        request=payload,
                        content_length=sizes[payload.url],
                        served_by=sock.local.ip)
                    sock.send_data(response, response.wire_bytes, mss=_mss)

            sim.process(loop())

        host.listen(80, app)
    for i, (path, nbytes, ctype, _) in enumerate(_OPENLOOP_DOCS):
        sizes[path] = nbytes
        owner = ("s1", "s2")[i % 2]
        table.insert(ContentItem(path, nbytes, ctype), {owner})

    dist = SplicingDistributor(sim, net, table, backends, prefork=prefork)
    ready = []
    dist.prefork_all().add_callback(lambda ev: ready.append(True))
    sim.run(until=0.05)
    assert ready, "prefork legs did not establish"
    base_events = sim.event_count
    base_segments = net.segments_sent

    client = Host(net, "10.0.9.1")
    vip = Address("10.0.0.100", 80)
    completions: list[tuple[float, int]] = []

    def one_request(url):
        sock = client.socket()
        yield sock.connect(vip)
        request = HttpRequest(url)
        sock.send(request, request.wire_bytes)
        received = 0
        payload = None
        while payload is None:          # last fragment carries the message
            payload, nbytes = yield sock.recv()
            received += nbytes
        completions.append((sim.now, received))
        yield sock.close()

    schedule = _openloop_schedule(rate, duration, seed)

    def driver():
        now = 0.0
        for t, url in schedule:
            if t > now:
                yield sim.timeout(t - now)
                now = t
            sim.process(one_request(url))

    start_time = sim.now
    sim.process(driver())
    sim.run(until=start_time + duration + 1.0)
    if len(completions) != len(schedule):
        raise RuntimeError(f"openloop: {len(schedule)} arrivals but "
                           f"{len(completions)} completions")

    timeline = hashlib.sha256(
        json.dumps(completions).encode()).hexdigest()
    observed = {
        "completed": len(completions),
        "bytes_received": sum(n for _, n in completions),
        "segments_sent": net.segments_sent - base_segments,
        "relayed_to_server": dist.relayed_to_server,
        "relayed_to_client": dist.relayed_to_client,
        "mapping_open": len(dist.mapping),
        "idle_legs": {b: dist.idle_legs(b) for b in sorted(backends)},
        "completion_timeline_sha256": timeline,
    }
    return {
        "digest": json.dumps(observed, sort_keys=True),
        "events": sim.event_count - base_events,
        "requests": len(completions),
        "sim_seconds": duration,
        "flow_forwards": net.flow_forwards,
    }
