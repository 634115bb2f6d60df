"""Open-loop trace workloads: record, persist, and replay request streams.

WebBench (the paper's load generator) is closed-loop: throughput is capped
by client count.  An *open-loop* trace -- requests arriving at timestamps
regardless of completions -- is what server-side access logs look like, and
is the right tool for latency-vs-offered-load studies: the system either
keeps up or queues grow without bound.

A trace is a list of (timestamp, url) entries.  Traces can be generated
synthetically (Poisson arrivals over a workload's request distribution),
saved/loaded as JSON lines (the interchange format for ops tooling), and
replayed against any front end.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Iterable, Optional

from ..net import HttpRequest, Nic
from ..sim import Histogram, Interrupt, RngStream, Simulator, ThroughputMeter
from .sampler import RequestSampler

__all__ = ["TraceEntry", "Trace", "generate_trace", "TraceReplayer"]


@dataclasses.dataclass(frozen=True, slots=True)
class TraceEntry:
    """One logged request: when it arrives and what it asks for."""

    at: float
    url: str

    def to_json(self) -> str:
        return json.dumps({"at": self.at, "url": self.url})

    @classmethod
    def from_json(cls, line: str) -> "TraceEntry":
        data = json.loads(line)
        return cls(at=float(data["at"]), url=str(data["url"]))


class Trace:
    """An ordered request log."""

    def __init__(self, entries: Iterable[TraceEntry] = ()):
        self.entries = sorted(entries, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def duration(self) -> float:
        return self.entries[-1].at if self.entries else 0.0

    def offered_load(self) -> float:
        """Mean arrival rate (requests/second) over the trace."""
        if len(self.entries) < 2 or self.duration == 0:
            return 0.0
        return len(self.entries) / self.duration

    def save(self, path: str | Path) -> None:
        """Write as JSON lines (one entry per line)."""
        with open(path, "w") as f:
            for entry in self.entries:
                f.write(entry.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        with open(path) as f:
            return cls(TraceEntry.from_json(line)
                       for line in f if line.strip())


def generate_trace(sampler: RequestSampler, rate: float, duration: float,
                   rng: Optional[RngStream] = None) -> Trace:
    """Synthesize a Poisson-arrival trace at ``rate`` requests/second."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = rng or RngStream(0, "trace")
    entries = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        entries.append(TraceEntry(at=t, url=sampler.sample_item().path))
    return Trace(entries)


class TraceReplayer:
    """Replays a trace against a front end at its recorded timestamps.

    Requests are issued open-loop: an arrival is dispatched even while
    earlier ones are still in flight.  Completions and latencies are
    collected so the caller can observe queueing onset (the hockey stick).
    """

    def __init__(self, sim: Simulator, submit: Callable, trace: Trace,
                 nic: Optional[Nic] = None, warmup: float = 0.0):
        self.sim = sim
        self.submit = submit
        self.trace = trace
        self.nic = nic or Nic(sim, 1000.0, name="trace-client")
        self.meter = ThroughputMeter(warmup=warmup, name="trace")
        self.latency = Histogram(low=1e-5, high=100.0, name="trace-latency")
        self.warmup = warmup
        self.issued = 0
        self.errors = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self._driver = sim.process(self._run(), name="trace-replayer")

    def _run(self):
        for entry in self.trace:
            delay = entry.at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self.sim.process(self._one(entry))
        return self.issued

    def _one(self, entry: TraceEntry):
        self.issued += 1
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        started = self.sim.now
        try:
            # open-loop arrivals are never interrupted mid-flight, so
            # the spawn/join pair (3 events) collapses to an inline call
            outcome = yield from self.submit(
                HttpRequest(entry.url, client_id="trace"), self.nic)
        except Interrupt:
            self.in_flight -= 1
            return
        except Exception:
            self.errors += 1
            self.in_flight -= 1
            return
        self.in_flight -= 1
        response = outcome.response
        if response is not None and response.ok:
            self.meter.record(self.sim.now, nbytes=response.content_length)
            if self.sim.now >= self.warmup:
                self.latency.observe(self.sim.now - started)
        else:
            self.errors += 1

    def summary(self, horizon: float) -> dict:
        return {
            "issued": self.issued,
            "completed": self.meter.completions,
            "errors": self.errors,
            "offered_rps": self.trace.offered_load(),
            "achieved_rps": self.meter.requests_per_second(horizon),
            "latency_p50": self.latency.percentile(50),
            "latency_p95": self.latency.percentile(95),
            "latency_p99": self.latency.percentile(99),
            "peak_in_flight": self.peak_in_flight,
        }
