"""The content-aware distributor (request-level front end).

§2.2's mechanism, at request granularity: terminate the client connection
(mapping-table entry), *parse the HTTP request*, consult the URL table for
the document's locations, pick the best replica, bind the client connection
to an idle pre-forked backend connection, relay bytes both ways, and on
teardown release the pooled connection back to the available list.

The packet-level version of the same mechanism (explicit SYN/FIN handling
and header rewriting) is :class:`repro.core.splicer.SplicingDistributor`.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..cluster import BackendServer, NodeSpec
from ..net import HttpRequest, Lan
from ..sim import Simulator
from .conn_pool import PoolManager
from .frontend import Frontend, FrontendCosts
from .overload import OverloadConfig
from .policies import LeastLoadedReplica, Policy
from .url_table import UrlTable, UrlTableError

__all__ = ["ContentAwareDistributor"]


class ContentAwareDistributor(Frontend):
    """Routes each request to a node that holds the requested content."""

    def __init__(self, sim: Simulator, lan: Lan, spec: NodeSpec,
                 servers: dict[str, BackendServer],
                 url_table: UrlTable,
                 policy: Optional[Policy] = None,
                 costs: FrontendCosts = FrontendCosts(),
                 prefork: int = 8,
                 max_pool_size: Optional[int] = None,
                 warmup: float = 0.0,
                 client_latency: float = 0.0,
                 overload: Optional[OverloadConfig] = None,
                 name: Optional[str] = None):
        super().__init__(sim, lan, spec, servers,
                         policy=policy or LeastLoadedReplica(),
                         costs=costs, warmup=warmup,
                         client_latency=client_latency, overload=overload,
                         name=name)
        self.url_table = url_table
        # Sorted replica lists, memoized per URL and stamped with the table
        # version: route() needs them on every request, while the location
        # sets only change on (rare) management-plane mutations -- each of
        # which bumps ``url_table.version`` and lazily invalidates us.
        self._sorted_locs: dict[str, tuple[int, list[str]]] = {}
        self.pools = PoolManager(sim, prefork=prefork,
                                 max_size=max_pool_size)
        # prefork eagerly to every backend, as the paper's distributor does
        for backend in servers:
            self.pools.pool(backend)

    def _replicas(self, url: str, record) -> list[str]:
        """The document's replica set, sorted (memoized, see __init__)."""
        version = self.url_table.version
        entry = self._sorted_locs.get(url)
        if entry is not None and entry[0] == version:
            return entry[1]
        locs = sorted(record.locations)
        self._sorted_locs[url] = (version, locs)
        return locs

    # -- Frontend hooks --------------------------------------------------
    def route(self, request: HttpRequest) -> Generator:
        """HTTP parse + URL-table lookup + replica selection."""
        tracer = self.tracer
        tid = request.trace_id or None
        if (tracer is None and self.cpu._core.can_acquire
                and self.sim.fits_horizon(
                    self.cpu.scaled(self.costs.http_parse_cpu))):
            # Collapse parse + lookup into one segmented CPU hold.  The
            # eager table probe is safe: only route() touches the URL
            # table, and no competing route can complete its parse burst
            # (the step that precedes its probe) while we hold the core;
            # the horizon gate guarantees the event path's probe (at the
            # parse boundary) would also precede any run-deadline freeze.
            before_hits = self.url_table.cache_hits
            try:
                record = self.url_table.lookup(request.url)
            except UrlTableError:
                # unknown URL: single burst, nothing to merge
                self.metrics.counter("route/unknown-url").increment()
                yield from self.cpu.run(self.costs.http_parse_cpu)
                return None, None
            if self.url_table.cache_hits > before_hits:
                lookup_cpu = self.costs.lookup_cache_hit_cpu
            else:
                levels = self.url_table.lookup_cost_levels(request.url)
                lookup_cpu = self.costs.lookup_per_level_cpu * levels
            yield from self.cpu.run_pair(self.costs.http_parse_cpu,
                                         lookup_cpu)
            backend = self.policy.select(
                self._replicas(request.url, record), self.view)
            if backend is None:
                self.metrics.counter("route/no-replica-alive").increment()
                return None, None
            return backend, record.item
        yield from self.cpu.run(self.costs.http_parse_cpu)
        before_hits = self.url_table.cache_hits
        try:
            record = self.url_table.lookup(request.url)
        except UrlTableError:
            self.metrics.counter("route/unknown-url").increment()
            if tracer is not None:
                tracer.point("lookup", "unknown-url", trace_id=tid,
                             node=self.name, reason="unknown-url")
            return None, None
        if self.url_table.cache_hits > before_hits:
            if tracer is not None:
                tracer.point("lookup", "cache-hit", trace_id=tid,
                             node=self.name)
            yield from self.cpu.run(self.costs.lookup_cache_hit_cpu)
        else:
            levels = self.url_table.lookup_cost_levels(request.url)
            if tracer is not None:
                tracer.point("lookup", "cache-miss", trace_id=tid,
                             node=self.name, levels=levels)
            yield from self.cpu.run(self.costs.lookup_per_level_cpu * levels)
        backend = self.policy.select(self._replicas(request.url, record),
                                     self.view)
        if backend is None:
            self.metrics.counter("route/no-replica-alive").increment()
            if tracer is not None:
                tracer.point("lookup", "no-replica-alive", trace_id=tid,
                             node=self.name, reason="no-replica-alive")
            return None, None
        return backend, record.item

    def acquire_backend(self, backend: str) -> Generator:
        pool = self.pools.pool(backend)
        conn = pool.try_acquire()
        if conn is None:
            conn = yield from pool.lease()
        return conn

    def release_backend(self, backend: str, token) -> None:
        self.pools.pool(backend).release(token)
