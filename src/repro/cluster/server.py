"""The backend web server model.

One :class:`BackendServer` is one machine from §5.1's cluster: a CPU, a
disk, an in-memory content cache, a local content store, a NIC, and a
bounded pool of worker slots (Apache children / IIS threads).  Its service
model captures the cost structure the paper's arguments rest on:

* **static requests** pay a fixed protocol/parse CPU cost plus a per-byte
  copy cost; a cache miss adds a whole-object disk read (or, in the NFS
  configuration, a remote read through the shared file server);
* **dynamic requests** (CGI/ASP) pay the request's ``cpu_work`` scaled by
  the node's CPU speed -- one to two orders of magnitude more than a static
  hit, per the paper's [6] -- so slow nodes are disproportionately bad at
  them;
* **worker slots** bound concurrency, so long-running requests occupy slots
  and CPU, delaying short ones on the same node (the §1.1 interference that
  Figure 4's segregation removes).

Response bytes are transferred by the *front end* (distributor or L4
router), which relays all packets in both directions, matching §2.2.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional

from ..content import ContentItem
from ..net import HttpRequest, HttpResponse, Lan, Nic
from ..sim import Resource, Simulator, ThroughputMeter
from .cache import LruCache
from .cpu import Cpu
from .disk import Disk
from .nfs import NfsServer
from .spec import NodeSpec
from .store import LocalStore

__all__ = ["BackendServer", "ServiceCosts"]


@dataclasses.dataclass(frozen=True)
class ServiceCosts:
    """Tunable service-cost constants (reference-CPU seconds).

    Defaults are calibrated to late-90s server software: a 350 MHz Apache
    saturates around 450-550 small static requests/s from memory, matching
    contemporary SPECweb/WebBench reports.
    """

    static_base_cpu: float = 0.0026   # parse + syscalls + TCP per request
    cpu_per_kb: float = 0.00006       # buffer copy per KB served
    dynamic_base_cpu: float = 0.0030  # fork/interpreter startup baseline
    error_cpu: float = 0.0005         # serving a 404
    os_nt_penalty: float = 1.10       # §5.1 mixes NT+IIS and Linux+Apache
    #: Dynamic content on a low-memory node pages/swaps: the CGI process,
    #: interpreter, and query working set do not fit beside the server.
    #: §5.3: a heavy request on a slow node takes "orders of magnitude more
    #: time than ... the node with powerful processor" -- the 2.3x clock
    #: ratio alone cannot produce that; memory pressure does.
    dynamic_low_mem_penalty: float = 12.0
    dynamic_mem_threshold_mb: int = 96


class BackendServer:
    """One heterogeneous backend node."""

    def __init__(self, sim: Simulator, lan: Lan, spec: NodeSpec,
                 nfs: Optional[NfsServer] = None,
                 costs: ServiceCosts = ServiceCosts(),
                 warmup: float = 0.0):
        self.sim = sim
        self.lan = lan
        self.spec = spec
        self.name = spec.name
        self.nfs = nfs
        self.costs = costs
        self.nic = Nic(sim, spec.nic_mbps, name=f"{spec.name}.nic")
        self.cpu = Cpu(sim, spec.cpu_mhz, name=spec.name)
        self.disk = Disk(sim, spec.disk, name=spec.name)
        self.cache = LruCache(spec.cache_bytes, name=f"{spec.name}.cache")
        self.store = LocalStore(capacity_bytes=spec.disk.capacity_bytes,
                                name=spec.name)
        self.workers = Resource(sim, capacity=spec.max_workers,
                                name=f"{spec.name}.workers")
        self.meter = ThroughputMeter(warmup=warmup, name=spec.name)
        self.active_requests = 0
        self.completed_requests = 0
        self.failed_requests = 0
        #: served-from-memory requests collapsed to an O(1) segmented hold
        #: (mirrors ``Lan.fast_transfers``)
        self.fast_serves = 0
        self.alive = True

    # -- content management hooks (driven by agents/controller) -------------
    def place(self, item: ContentItem) -> None:
        self.store.add(item)

    def evict(self, path: str) -> None:
        self.store.remove(path)
        self.cache.invalidate(path)

    def holds(self, path: str) -> bool:
        return path in self.store

    def telemetry_gauges(self) -> dict:
        """Read-only instantaneous signals for the telemetry sampler.

        Strictly observational: every value is computed from existing
        counters, so sampling cannot perturb the event timeline.
        """
        return {
            "cache_hit_rate": self.cache.hit_rate,
            "cpu_utilization": self.cpu.utilization(),
            "disk_utilization": self.disk.utilization(),
        }

    def _cpu_cost_factor(self) -> float:
        return self.costs.os_nt_penalty if self.spec.os == "nt" else 1.0

    # -- service ----------------------------------------------------------
    def serve(self, request: HttpRequest,
              item: Optional[ContentItem]) -> Generator:
        """Process one request to completion; returns an HttpResponse.

        The caller (front end) is responsible for moving the request and
        response bytes over the LAN; this generator models only the
        server-local work.
        """
        if not self.alive:
            raise RuntimeError(f"{self.name} is down")
        started = self.sim.now
        self.active_requests += 1
        ks = self.sim.kernel_stats
        if (item is not None and not item.ctype.is_dynamic
                and item.path in self.cache):
            factor = self._cpu_cost_factor()
            # the eager cache access below is only equivalent if the event
            # path's access (at the parse-burst boundary) also happens
            # before any run-deadline freeze
            fastable = (self.active_requests == 1 and self.holds(item.path)
                        and self.workers.can_acquire
                        and self.cpu._core.can_acquire
                        and self.sim.fits_horizon(self.cpu.scaled(
                            self.costs.static_base_cpu * factor)))
            if ks is not None:
                ks.on_fast_path("cache_hit", fastable)
            if fastable:
                # Served-from-memory cache hit with the node otherwise
                # idle: collapse parse + copy into one segmented CPU hold
                # (O(1) scheduled events).  With no other serve in flight,
                # no cache operation can occur before the parse burst
                # would have ended, so the eager access below is
                # observably identical to the event path's access at the
                # burst boundary; contention during the hold splits it
                # back onto the event-accurate path.
                self.fast_serves += 1
                hit = self.cache.access(item.path)
                copy_cost = (self.costs.cpu_per_kb
                             * (item.size_bytes / 1024.0))
                slot = self.workers.try_acquire()
                try:
                    yield from self.cpu.run_pair(
                        self.costs.static_base_cpu * factor,
                        copy_cost * factor)
                    return self._finish(request, started,
                                        content_length=item.size_bytes,
                                        cache_hit=hit)
                finally:
                    self.workers.release(slot)
                    self.active_requests -= 1
        slot = self.workers.try_acquire()
        if slot is None:
            slot = yield from self.workers.lease()
        try:
            factor = self._cpu_cost_factor()
            if item is None:
                yield from self.cpu.run(self.costs.error_cpu * factor)
                return self._finish(request, started, status=404,
                                    content_length=0, cache_hit=False)
            if item.ctype.is_dynamic:
                work = (self.costs.dynamic_base_cpu + item.cpu_work) * factor
                if self.spec.mem_mb < self.costs.dynamic_mem_threshold_mb:
                    work *= self.costs.dynamic_low_mem_penalty
                yield from self.cpu.run(work)
                return self._finish(request, started,
                                    content_length=item.size_bytes,
                                    cache_hit=False)
            # static path: protocol cost, then locate the bytes
            yield from self.cpu.run(self.costs.static_base_cpu * factor)
            if not self.holds(item.path):
                if self.nfs is not None:
                    # NFS serve-through: close-to-open consistency forces a
                    # round trip per access, so remote content is not held
                    # in the local memory cache -- §5.3: "the majority of
                    # the requested content could not be found locally"
                    yield from self.nfs.read(item, self.nic)
                    copy = self.costs.cpu_per_kb * (item.size_bytes / 1024.0)
                    yield from self.cpu.run(copy * factor)
                    return self._finish(request, started,
                                        content_length=item.size_bytes,
                                        cache_hit=False)
                yield from self.cpu.run(self.costs.error_cpu * factor)
                return self._finish(request, started, status=404,
                                    content_length=0, cache_hit=False)
            hit = self.cache.access(item.path)
            if not hit:
                yield from self.disk.read(item.size_bytes)
                self.cache.admit(item.path, item.size_bytes)
            copy_cost = self.costs.cpu_per_kb * (item.size_bytes / 1024.0)
            yield from self.cpu.run(copy_cost * factor)
            return self._finish(request, started,
                                content_length=item.size_bytes,
                                cache_hit=hit)
        finally:
            self.workers.release(slot)
            self.active_requests -= 1

    def _finish(self, request: HttpRequest, started: float, *,
                content_length: int, cache_hit: bool,
                status: int = 200) -> HttpResponse:
        service_time = self.sim.now - started
        if status == 200:
            self.completed_requests += 1
        else:
            self.failed_requests += 1
        self.meter.record(self.sim.now, nbytes=content_length)
        return HttpResponse(request=request, status=status,
                            content_length=content_length,
                            served_by=self.name, cache_hit=cache_hit,
                            service_time=service_time,
                            completed_at=self.sim.now)

    # -- failure injection ----------------------------------------------------
    def crash(self) -> None:
        """Mark the node as failed; new requests raise."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True
