"""WebBench-style closed-loop load generation (§5.1).

"We used 24 Pentium 300 MHz machines (with 64 M RAM) to generate a
synthetic workload ... Each machine runs four WebBench client programs that
emit a stream of Web requests, and measure the system response."

WebBench clients are *closed-loop*: each client issues a request, waits for
the full response, then immediately (or after a think time) issues the
next.  Throughput is requests completed per second inside the measurement
window, reported overall and per content class -- exactly the metric
Figures 2-4 plot.

Clients are spread over simulated client machines (default 24) whose NICs
the request/response bytes traverse, so the client side is never an
infinite-bandwidth fiction.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Generator, Optional

from ..content import ContentType
from ..net import Nic
from ..sim import Histogram, RngStream, Simulator, ThroughputMeter
from .sampler import RequestSampler

__all__ = ["ClientStats", "WebBenchClient", "WebBenchRig"]

#: Pause before retrying after a front-end failure (failover experiments).
RETRY_BACKOFF = 0.25


@dataclasses.dataclass
class ClientStats:
    """Client-side measurements (what WebBench reported)."""

    completed: int = 0
    errors: int = 0
    bytes_received: int = 0


class WebBenchClient:
    """One closed-loop client program."""

    def __init__(self, sim: Simulator, client_id: str,
                 submit: Callable, sampler: RequestSampler, nic: Nic,
                 rig: "WebBenchRig",
                 think_time: float = 0.0,
                 rng: Optional[RngStream] = None):
        self.sim = sim
        self.client_id = client_id
        self.submit = submit
        self.sampler = sampler
        self.nic = nic
        self.rig = rig
        self.think_time = think_time
        self.rng = rng or RngStream(0, f"client/{client_id}")
        self.stats = ClientStats()
        self._drain = False
        #: a request is in flight (between its sampling and its answer)
        self._busy = False
        #: stop() arrived mid-request: exit once the request returns
        self._stopped = False
        self.process = sim.process(self._run(), name=f"wb:{client_id}")

    def drain(self) -> None:
        """Finish the in-flight request (if any), then exit the loop.

        Unlike :meth:`stop`, draining records the in-flight request's
        answer, so after the drain completes every request has either been
        answered or cleanly errored -- the chaos harness's first survival
        property.
        """
        self._drain = True

    def _run(self) -> Generator:
        sim = self.sim
        while not self._drain:
            request = self.sampler.request(client_id=self.client_id,
                                           now=sim.now)
            # The request runs inline, scheduled as a spawned and joined
            # submit process was: a 0-delay hop where its start event
            # fired and one where its completion fired, each a pooled
            # timeout only while something else is due this instant.
            self._busy = True
            failure = None
            try:
                submission = self.submit(request, self.nic)
            except Exception as exc:
                failure = exc  # refused before any process could start
            else:
                if not sim.idle_now():
                    yield sim.hot_timeout(0.0)
                try:
                    outcome = yield from submission
                except Exception as exc:
                    failure = exc
                if not sim.idle_now():
                    yield sim.hot_timeout(0.0)
            self._busy = False
            if self._stopped:
                return  # stopped mid-request: the answer goes unrecorded
            if failure is not None:
                # front end down (failover window) or mid-flight crash:
                # a real client sees a connection error and retries
                self.stats.errors += 1
                self.rig.record_error(sim.now)
                if self._drain:
                    return
                yield sim.timeout(RETRY_BACKOFF)
                continue
            if outcome.response is not None and outcome.response.ok:
                self.stats.completed += 1
                self.stats.bytes_received += outcome.response.content_length
                self.rig.record_completion(request, outcome)
            else:
                self.stats.errors += 1
                status = (outcome.response.status
                          if outcome.response is not None else None)
                self.rig.record_error(sim.now, status=status)
                # a shed request carries Retry-After; honouring it is what
                # keeps zero-think-time clients from hammering an already
                # overloaded front end in a zero-delay loop
                retry_after = getattr(outcome, "retry_after", 0.0)
                if retry_after > 0:
                    yield sim.timeout(retry_after)
            if self.think_time > 0:
                delay = self.rng.expovariate(1.0 / self.think_time)
                # a single scheduled event from the recycled-timer pool
                yield sim.hot_timeout(delay)

    def stop(self) -> None:
        """End the client loop.

        Between requests the loop is interrupted at once.  A request in
        flight is not: it finishes at the front end instead, goes
        unrecorded, and the loop exits when it returns.  An interrupt
        would reach it as a client reset in mid-splice -- the front end
        aborts the mapping entry and gives up the request's CPU, NIC,
        disk and pool waits early -- which simulates a different run from
        a client that only stops sending.
        """
        if not self.process.is_alive:
            return
        if self._busy:
            self._stopped = True
        else:
            self.process.interrupt("stopped")


class WebBenchRig:
    """A fleet of client machines running closed-loop clients.

    Client-side accounting is independent of any front-end internals, so
    the same rig measures a plain distributor, the L4 baseline, or an HA
    pair.
    """

    def __init__(self, sim: Simulator, submit: Callable,
                 sampler: RequestSampler,
                 n_machines: int = 24,
                 machine_nic_mbps: float = 100.0,
                 warmup: float = 0.0,
                 think_time: float = 0.0,
                 rng: Optional[RngStream] = None):
        if n_machines < 1:
            raise ValueError("need at least one client machine")
        self.sim = sim
        self.submit = submit
        self.sampler = sampler
        self.warmup = warmup
        self.think_time = think_time
        self.rng = rng or RngStream(0, "rig")
        self.machine_nics = [Nic(sim, machine_nic_mbps, name=f"cm{i}.nic")
                             for i in range(n_machines)]
        self.clients: list[WebBenchClient] = []
        self.meter = ThroughputMeter(warmup=warmup, name="rig")
        self.class_meters: dict[ContentType, ThroughputMeter] = {
            t: ThroughputMeter(warmup=warmup, name=t.value)
            for t in ContentType}
        self.latency = Histogram(low=1e-5, high=100.0, name="latency")
        self.class_latency: dict[ContentType, Histogram] = {
            t: Histogram(low=1e-5, high=100.0, name=f"latency/{t.value}")
            for t in ContentType}
        self.errors = 0
        #: client-observed error statuses (None = transport-level failure);
        #: the overload survival property "every shed is a clean 503" is
        #: checked against this
        self.error_statuses: dict[Optional[int], int] = {}
        self.first_error_at: Optional[float] = None
        self.last_error_at: Optional[float] = None
        #: clients launched by a FlashCrowd burst, drained on revert
        self._burst: list[WebBenchClient] = []

    def start_clients(self, n_clients: int) -> None:
        """Launch ``n_clients`` spread round-robin over the machines."""
        if n_clients < 1:
            raise ValueError("need at least one client")
        base = len(self.clients)
        for i in range(n_clients):
            idx = base + i
            nic = self.machine_nics[idx % len(self.machine_nics)]
            client = WebBenchClient(
                self.sim, client_id=f"c{idx:03d}", submit=self.submit,
                sampler=self.sampler, nic=nic, rig=self,
                think_time=self.think_time,
                rng=self.rng.substream(f"client/{idx}"))
            self.clients.append(client)

    def stop_clients(self) -> None:
        for client in self.clients:
            client.stop()

    def request_stop(self) -> None:
        """Ask every client to drain: finish in flight, then stop."""
        for client in self.clients:
            client.drain()

    # -- flash-crowd bursts (driven by repro.chaos.FlashCrowd) -------------
    @property
    def steady_clients(self) -> int:
        """Clients that are not part of a burst."""
        return len(self.clients) - len(self._burst)

    def start_burst(self, n_clients: int) -> None:
        """Launch extra closed-loop clients for the duration of a burst."""
        before = len(self.clients)
        self.start_clients(n_clients)
        self._burst.extend(self.clients[before:])

    def drain_burst(self) -> None:
        """End the burst: its clients finish in flight, then exit."""
        for client in self._burst:
            client.drain()
        self._burst.clear()

    # -- accounting (called by clients) -----------------------------------
    def record_completion(self, request, outcome) -> None:
        now = self.sim.now
        resp = outcome.response
        self.meter.record(now, nbytes=resp.content_length)
        if now >= self.warmup:
            self.latency.observe(outcome.latency)
        ctype = ContentType.from_path(request.url)
        self.class_meters[ctype].record(now, nbytes=resp.content_length)
        if now >= self.warmup:
            self.class_latency[ctype].observe(outcome.latency)

    def record_error(self, now: float, status: Optional[int] = None) -> None:
        self.errors += 1
        self.error_statuses[status] = self.error_statuses.get(status, 0) + 1
        if self.first_error_at is None:
            self.first_error_at = now
        self.last_error_at = now

    # -- results -----------------------------------------------------------
    def throughput(self, horizon: float) -> float:
        """Requests/second inside [warmup, horizon] -- the WebBench metric."""
        return self.meter.requests_per_second(horizon)

    def class_throughput(self, ctype: ContentType, horizon: float) -> float:
        return self.class_meters[ctype].requests_per_second(horizon)

    def summary(self, horizon: float) -> dict:
        return {
            "clients": len(self.clients),
            "throughput_rps": self.throughput(horizon),
            "bytes_per_s": self.meter.bytes_per_second(horizon),
            "completed": self.meter.completions,
            "errors": self.errors,
            "latency_p50": self.latency.percentile(50),
            "latency_p95": self.latency.percentile(95),
            "by_class": {
                t.value: self.class_throughput(t, horizon)
                for t in ContentType
                if self.class_meters[t].completions},
        }
