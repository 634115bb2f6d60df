"""Pre-forked persistent backend connections.

§2.2: "The distributor pre-forks a number of persistent connections
(supported by HTTP 1.1) to the backend nodes. ... Once the distributor
selects a target server, it also chooses an idle pre-forked connection from
the available connection list."  Releasing a connection returns it to that
list (after the client connection reaches CLOSED).

Pooling is the paper's answer to HTTP redirection's cost: no per-request
TCP handshake to the backend, ever.  The pool can optionally grow beyond its
pre-forked size up to a hard cap, modelling an administrator-tuned limit.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Generator, Optional

from ..sim import Interrupt, SimEvent, Simulator, Store

__all__ = ["PooledConnection", "ConnectionPool", "PoolManager"]

_conn_ids = itertools.count(1)


@dataclasses.dataclass(slots=True)
class PooledConnection:
    """One persistent distributor->backend connection."""

    backend: str
    conn_id: int = dataclasses.field(default_factory=lambda: next(_conn_ids))
    created_at: float = 0.0
    uses: int = 0
    in_use: bool = False


class ConnectionPool:
    """The available-connection list for one backend."""

    def __init__(self, sim: Simulator, backend: str, prefork: int = 8,
                 max_size: Optional[int] = None):
        if prefork < 1:
            raise ValueError("prefork must be >= 1")
        if max_size is not None and max_size < prefork:
            raise ValueError("max_size must be >= prefork")
        self.sim = sim
        self.backend = backend
        #: the simulator's repro.obs tracer; acquire/release become "pool"
        #: point events
        self.tracer = sim.tracer
        self.prefork = prefork
        self.max_size = max_size if max_size is not None else prefork
        self._idle: Store = Store(sim, name=f"pool:{backend}")
        #: connections currently delivered to a holder and not yet released
        #: (a conn popped from the idle list but still in flight to its
        #: acquirer is in neither set -- the invariant verifier relies on
        #: lease accounting happening at delivery time)
        self._leased: dict[int, PooledConnection] = {}
        self.total = 0
        self.acquired = 0
        self.released = 0
        self.grown = 0
        self.waits = 0
        #: acquirers currently blocked on an empty list, and the high-water
        #: mark -- the observable that explodes when the front end has no
        #: admission control and keeps binding under overload
        self.waiting = 0
        self.peak_waiting = 0
        for _ in range(prefork):
            self._idle.put(self._new_conn())

    def _new_conn(self) -> PooledConnection:
        self.total += 1
        return PooledConnection(backend=self.backend,
                                created_at=self.sim.now)

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    @property
    def busy_count(self) -> int:
        return self.total - self.idle_count

    @property
    def leased_count(self) -> int:
        """Connections delivered to a holder and not yet released."""
        return len(self._leased)

    def acquire(self) -> SimEvent:
        """Take an idle connection; yield the returned event.

        If the list is empty the pool grows (up to ``max_size``); beyond
        that, callers queue until a connection is released -- the natural
        backpressure of a finite connection table.
        """
        self.acquired += 1
        grew = False
        if len(self._idle) == 0 and self.total < self.max_size:
            self._idle.put(self._new_conn())
            self.grown += 1
            grew = True
        waited = len(self._idle) == 0
        if waited:
            self.waits += 1
            self.waiting += 1
            self.peak_waiting = max(self.peak_waiting, self.waiting)
        if self.tracer is not None:
            self.tracer.point("pool", "acquire", node=self.backend,
                              idle=len(self._idle), waited=waited,
                              grown=grew)
        ev = self._idle.get()
        if waited:
            ev.add_callback(self._waiter_served)
        ev.add_callback(self._mark_busy)
        return ev

    def lease(self) -> Generator[SimEvent, Any, PooledConnection]:
        """Wait for a connection and return it; use ``yield from``.

        The process-code form of ``yield pool.acquire()``: an interrupt
        thrown while the caller waits withdraws the acquire (see
        :meth:`withdraw`) before it propagates, so no connection is ever
        leased to a caller that is gone.
        """
        event = self.acquire()
        try:
            return (yield event)
        except Interrupt:
            self.withdraw(event)
            raise

    def try_acquire(self) -> Optional[PooledConnection]:
        """Synchronously take an idle connection, or ``None`` if the caller
        would have to wait for a release.

        The synchronous twin of :meth:`acquire`: growth, counters, and
        trace points are byte-identical to :meth:`acquire`'s for the
        no-wait case; lease accounting just happens immediately instead of
        at event-delivery time (the delivery event fires at the same
        timestamp, so nothing observable moves).
        """
        if len(self._idle) == 0 and self.total >= self.max_size:
            return None
        self.acquired += 1
        grew = False
        if len(self._idle) == 0:
            self._idle.put(self._new_conn())
            self.grown += 1
            grew = True
        if self.tracer is not None:
            self.tracer.point("pool", "acquire", node=self.backend,
                              idle=len(self._idle), waited=False,
                              grown=grew)
        conn = self._idle.try_get()
        conn.in_use = True
        conn.uses += 1
        self._leased[conn.conn_id] = conn
        return conn

    def withdraw(self, event: SimEvent) -> None:
        """Give up an :meth:`acquire` whose caller stopped waiting for it
        (an interrupt thrown at its ``yield``; :meth:`lease` calls this).

        A queued acquirer leaves the queue.  A connection already handed
        over goes back to the available list, or to the next waiter: at
        once if the hand-over has fired, else as soon as it fires.
        """
        if not event.triggered:
            self._idle.cancel_get(event)
            self.waiting -= 1
        elif event.callbacks is None:
            self.release(event.value)
        else:
            event.add_callback(self._release_handed_over)

    def _release_handed_over(self, event: SimEvent) -> None:
        self.release(event.value)

    def _waiter_served(self, event: SimEvent) -> None:
        self.waiting -= 1

    def _mark_busy(self, event: SimEvent) -> None:
        conn: PooledConnection = event.value
        conn.in_use = True
        conn.uses += 1
        self._leased[conn.conn_id] = conn

    def release(self, conn: PooledConnection) -> None:
        """Return a connection to the available list."""
        if conn.backend != self.backend:
            raise ValueError(
                f"connection for {conn.backend!r} released to pool "
                f"{self.backend!r}")
        if not conn.in_use:
            raise ValueError(f"connection {conn.conn_id} is not in use")
        conn.in_use = False
        self._leased.pop(conn.conn_id, None)
        self.released += 1
        if self.tracer is not None:
            self.tracer.point("pool", "release", node=self.backend,
                              idle=len(self._idle) + 1)
        self._idle.put(conn)


class PoolManager:
    """All per-backend pools, created lazily with shared defaults."""

    def __init__(self, sim: Simulator, prefork: int = 8,
                 max_size: Optional[int] = None):
        self.sim = sim
        self.prefork = prefork
        self.max_size = max_size
        self._pools: dict[str, ConnectionPool] = {}

    def pool(self, backend: str) -> ConnectionPool:
        if backend not in self._pools:
            self._pools[backend] = ConnectionPool(
                self.sim, backend, prefork=self.prefork,
                max_size=self.max_size)
        return self._pools[backend]

    def pools(self) -> dict[str, ConnectionPool]:
        return dict(self._pools)

    def total_connections(self) -> int:
        return sum(p.total for p in self._pools.values())

    def peak_waiting(self) -> int:
        """Worst per-pool acquire-queue depth seen so far."""
        return max((p.peak_waiting for p in self._pools.values()), default=0)
