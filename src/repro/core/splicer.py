"""The packet-level content-aware distributor (§2.2's actual mechanism).

This is the faithful version of Figure 1: the distributor completes the TCP
handshake with the client itself, reads the HTTP request from the first
data segment, consults the URL table, binds the connection to an idle
pre-forked persistent connection, and from then on *relays packets by
rewriting headers* -- IP addresses, ports, and sequence/ACK numbers -- so
client and backend each believe they are talking to a single peer.

Teardown follows §2.2 exactly:

* client FIN -> entry FIN_RECEIVED;
* distributor ACKs the FIN -> HALF_CLOSED;
* final client ACK (covering everything the distributor relayed plus its
  own FIN) -> CLOSED: entry deleted, pre-forked connection returned to the
  available list;
* for HTTP/1.0 the distributor itself sets the FIN flag on the last relayed
  response packet ("the distributor will set the FIN flag instead of server
  when it relay the last packet").

The pre-forked connections are real protocol flows against the backend's
TCP socket: sequence numbers accumulate across successive spliced requests,
which is what makes connection reuse visible in the tests.

No process runs per connection: the distributor's network handlers drive
each connection's state machine as plain method calls, in the order a
per-connection process would have (DESIGN.md §16, process-free packet
path).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Optional

from ..net.http import HttpRequest, HttpVersion
from ..net.packet import (ACK_FLAG, FIN_FLAG, PSH_FLAG, RST_FLAG, SYN_FLAG,
                          Address, Segment)
from ..net.tcp import Network
from ..sim import SimEvent, Simulator
from .mapping_table import MappingEntry, MappingState, MappingTable
from .policies import Policy, RoutingView, WeightedLeastConnection
from .url_table import UrlTable, UrlTableError

__all__ = ["SplicingDistributor", "PoolLeg"]

_isns = itertools.count(5_000_000, 2741)

#: Precomputed plain-int flag words for every segment the splicer emits
#: (``IntFlag.__or__`` is a Python-level call; see ``repro.net.packet``).
_SYN = SYN_FLAG
_ACK = ACK_FLAG
_RST = RST_FLAG
_SYN_ACK = SYN_FLAG | ACK_FLAG
_ACK_PSH = ACK_FLAG | PSH_FLAG
_FIN_ACK = FIN_FLAG | ACK_FLAG

#: Lifecycle of a pre-forked backend leg.  Legs are opened once at prefork
#: time and then stay ESTABLISHED for the life of the distributor (the
#: whole point of §2.2's persistent connections); the repro.analysis
#: state-machine checker verifies every ``leg.state`` assignment against
#: this table.
_LEG_TRANSITIONS: dict[str, frozenset[str]] = {
    "CLOSED": frozenset({"SYN_SENT"}),
    "SYN_SENT": frozenset({"ESTABLISHED"}),
    "ESTABLISHED": frozenset(),
}


def _leg_transition(leg: "PoolLeg", new: str, tracer=None) -> None:
    """Move a leg through its lifecycle, enforcing the declared table."""
    if new not in _LEG_TRANSITIONS[leg.state]:
        raise RuntimeError(f"pool leg {leg.local}: illegal transition "
                           f"{leg.state} -> {new}")
    old, leg.state = leg.state, new
    if tracer is not None:
        tracer.point("leg", f"{old}->{new}", node=leg.backend,
                     port=leg.local.port)


class PoolLeg:
    """One pre-forked persistent connection: distributor -> backend."""

    __slots__ = ("backend", "local", "remote", "state", "isn", "snd_nxt",
                 "rcv_nxt", "established", "bound_entry", "uses")

    def __init__(self, backend: str, local: Address, remote: Address):
        self.backend = backend
        self.local = local
        self.remote = remote
        self.state = "CLOSED"            # CLOSED -> SYN_SENT -> ESTABLISHED
        self.isn = next(_isns)
        self.snd_nxt = self.isn
        self.rcv_nxt = 0
        self.established: Optional[SimEvent] = None
        self.bound_entry: Optional[MappingEntry] = None
        self.uses = 0


class _ClientConn:
    """The distributor's side of one client connection: segments not
    yet handled and the leg checkout in progress."""

    __slots__ = ("entry", "backlog", "idle", "leg", "request")

    def __init__(self, entry: MappingEntry):
        self.entry = entry
        #: delivered segments not yet handled, oldest first
        self.backlog: deque[Segment] = deque()
        #: True while no step is running or scheduled for the connection
        self.idle = True
        #: the leg checked out for the first request, and that request
        self.leg: Optional[PoolLeg] = None
        self.request: Optional[Segment] = None


class SplicingDistributor:
    """Packet-level front end owning a VIP and a pool of backend legs."""

    def __init__(self, sim: Simulator, net: Network,
                 url_table: UrlTable,
                 backends: dict[str, Address],
                 vip: str = "10.0.0.100",
                 dist_ip: str = "10.0.0.1",
                 prefork: int = 2,
                 policy: Optional[Policy] = None,
                 weights: Optional[dict[str, float]] = None):
        if not backends:
            raise ValueError("need at least one backend")
        self.sim = sim
        self.net = net
        self.url_table = url_table
        #: the simulator's repro.obs tracer; None keeps the legacy
        #: behavior byte-for-byte
        self.tracer = sim.tracer
        self.backends = dict(backends)
        self.vip = Address(vip, 80)
        self.dist_ip = dist_ip
        self.prefork = prefork
        self.policy = policy or WeightedLeastConnection()
        self.view = RoutingView(weights or {b: 1.0 for b in backends})
        self.mapping = MappingTable()
        self._ports = itertools.count(20000)
        self._legs: dict[int, PoolLeg] = {}
        #: idle pre-forked legs per backend, handed out oldest first
        self._idle: dict[str, deque[PoolLeg]] = {b: deque() for b in backends}
        #: connections whose request waits for a leg, per backend, FIFO
        self._waiting: dict[str, deque[_ClientConn]] = {
            b: deque() for b in backends}
        #: live client connections by client address
        self._conns: dict[Address, _ClientConn] = {}
        self.relayed_to_server = 0
        self.relayed_to_client = 0
        if self.tracer is not None:
            self.mapping.on_transition = self._trace_splice
        net.register(vip, self._on_vip_segment)
        net.register(dist_ip, self._on_dist_segment)

    def _trace_splice(self, entry: MappingEntry, old: MappingState,
                      new: MappingState) -> None:
        self.tracer.point("splice", f"{old.value}->{new.value}",
                          trace_id=entry.trace_id or None,
                          node=entry.backend or "distributor")

    # -- pool management ------------------------------------------------------
    def prefork_all(self) -> SimEvent:
        """Open ``prefork`` persistent connections to every backend.

        Returns an event that fires when every leg is ESTABLISHED.
        """
        events = []
        for backend, remote in self.backends.items():
            for _ in range(self.prefork):
                events.append(self._open_leg(backend, remote))
        return self.sim.all_of(events)

    def _open_leg(self, backend: str, remote: Address) -> SimEvent:
        local = Address(self.dist_ip, next(self._ports))
        leg = PoolLeg(backend, local, remote)
        leg.established = self.sim.event()
        self._legs[local.port] = leg
        _leg_transition(leg, "SYN_SENT", self.tracer)
        self.net.send(Segment(src=local, dst=remote, seq=leg.snd_nxt,
                              ack=0, flags=_SYN))
        leg.snd_nxt += 1
        return leg.established

    def idle_legs(self, backend: str) -> int:
        return len(self._idle[backend])

    # -- VIP leg: the client side ------------------------------------------
    def _on_vip_segment(self, seg: Segment) -> None:
        client = seg.src
        conn = self._conns.get(client)
        if conn is None:
            if seg.is_syn:
                self._accept(client, seg)
            return
        conn.backlog.append(seg)
        if conn.idle:
            conn.idle = False
            self._hop(self._advance, conn)

    def _hop(self, step: Callable[["_ClientConn"], None],
             conn: "_ClientConn") -> None:
        """Take one step of a connection's state machine.

        A step's place in the schedule is a 0-delay event at the tail of
        the current instant, where a per-connection process would resume;
        that fixes the emission order of connections active at the same
        instant (pinned by ``tests/core/test_splicer_order.py``).  When
        nothing else is due now that event would fire next, so the step
        runs inline instead: the same order, one event fewer.
        """
        if self.sim.idle_now():
            step(conn)
        else:
            self.sim.call_later(0.0, step, conn)

    def _accept(self, client: Address, syn: Segment) -> None:
        """The client's SYN: create the mapping entry, answer SYN-ACK."""
        entry = self.mapping.create(client, self.sim.now,
                                    client_isn=syn.seq, vip_isn=next(_isns))
        if self.tracer is not None:
            entry.trace_id = self.tracer.new_trace()
        entry.client_seq = syn.seq + 1          # rcv_nxt on the client leg
        self._conns[client] = _ClientConn(entry)
        self.net.send(Segment(src=self.vip, dst=client,
                              seq=entry.vip_isn, ack=entry.client_seq,
                              flags=_SYN_ACK))

    def _vip_send(self, entry: MappingEntry, flags: int,
                  payload_len: int = 0, payload=None,
                  frags: int = 1) -> None:
        self.net.send(Segment(src=self.vip, dst=entry.client,
                              seq=entry.client_ack, ack=entry.client_seq,
                              flags=flags, payload_len=payload_len,
                              payload=payload, frags=frags))

    def _advance(self, conn: "_ClientConn") -> None:
        """Handle the connection's unhandled segments, oldest first, one
        step each (a loop, not recursion: ACK trains can be long)."""
        backlog = conn.backlog
        while self._client_segment(conn, backlog.popleft()):
            if not backlog:
                conn.idle = True
                return
            if not self.sim.idle_now():
                self.sim.call_later(0.0, self._advance, conn)
                return

    def _client_segment(self, conn: "_ClientConn", seg: Segment) -> bool:
        """One client segment through the per-connection state machine.

        ``entry.client_seq`` tracks the next expected client sequence
        number; ``entry.client_ack`` is the distributor's own send cursor
        on the client leg (it starts one past the VIP ISN once the
        handshake completes).  Returns False when the connection stops
        taking segments: closed, or its request waits for a pool leg.
        """
        entry = conn.entry
        if seg.is_rst:
            self._teardown(entry, aborted=True)
            return False
        if entry.state is MappingState.SYN_RECEIVED and seg.is_ack:
            self.mapping.transition(entry, MappingState.ESTABLISHED)
            entry.client_ack = entry.vip_isn + 1  # our send cursor
            if not seg.payload_len:
                return True
        if seg.payload_len and isinstance(seg.payload, HttpRequest):
            entry.client_seq = seg.seq + seg.payload_len
            if entry.state is MappingState.ESTABLISHED:
                return self._checkout(conn, seg)
            self._relay_request(entry, seg)
            return True
        if seg.is_fin:
            entry.client_seq = seg.seq + 1
            if entry.state in (MappingState.ESTABLISHED,
                               MappingState.BOUND):
                self.mapping.transition(entry, MappingState.FIN_RECEIVED)
            self._vip_send(entry, _ACK)
            if entry.state is MappingState.FIN_RECEIVED:
                self.mapping.transition(entry, MappingState.HALF_CLOSED)
            if entry.vip_fin_sent:
                # our FIN already went out (HTTP/1.0 relay path) and the
                # client's FIN acknowledges everything: fully closed.
                self._teardown(entry)
                return False
            self._vip_send(entry, _FIN_ACK)
            entry.client_ack += 1
            entry.vip_fin_sent = True
            return True
        if seg.is_ack and entry.state is MappingState.HALF_CLOSED \
                and seg.ack >= entry.client_ack:
            self._teardown(entry)
            return False
        return True

    def _checkout(self, conn: "_ClientConn", seg: Segment) -> bool:
        """Route the first request and check out a leg for it.

        The leg leaves the available list now; the bind and relay follow
        one step later (:meth:`_bound`), or, when every leg of the chosen
        backend is busy, once one is released to this connection.
        """
        entry = conn.entry
        try:
            record = self.url_table.lookup(seg.payload.url)
        except UrlTableError:
            backend = None
        else:
            backend = self.policy.select(
                sorted(b for b in record.locations if b in self.backends),
                self.view)
        if backend is None:
            # unknown document / no backend: refuse the conn
            self._vip_send(entry, _RST)
            self._teardown(entry, aborted=True)
            return False
        conn.request = seg
        idle = self._idle[backend]
        if idle:
            conn.leg = idle.popleft()
            self._hop(self._bound, conn)
        else:
            self._waiting[backend].append(conn)
        return False

    def _bound(self, conn: "_ClientConn") -> None:
        """Bind the connection to its checked-out leg, relay the request."""
        entry, leg, seg = conn.entry, conn.leg, conn.request
        conn.request = None
        leg.bound_entry = entry
        leg.uses += 1
        self.mapping.bind(entry, leg, leg.backend,
                          seq_delta=leg.snd_nxt - entry.client_seq,
                          ack_delta=entry.vip_isn - leg.rcv_nxt)
        self.view.connection_started(leg.backend)
        self._relay_request(entry, seg)
        if conn.backlog:
            self._hop(self._advance, conn)
        else:
            conn.idle = True

    def _relay_request(self, entry: MappingEntry, seg: Segment) -> None:
        """§2.2 header rewriting: client request -> backend leg."""
        leg: PoolLeg = entry.pooled_conn  # type: ignore[assignment]
        self.net.send(Segment(
            src=leg.local, dst=leg.remote,
            seq=leg.snd_nxt, ack=leg.rcv_nxt,
            flags=_ACK_PSH,
            payload_len=seg.payload_len, payload=seg.payload,
            frags=seg.frags))
        leg.snd_nxt += seg.payload_len
        entry.requests_relayed += 1
        entry.bytes_to_server += seg.payload_len
        self.relayed_to_server += seg.frags
        self._vip_send(entry, _ACK, frags=seg.frags)
        if seg.payload.version is HttpVersion.HTTP_1_0:
            entry.http10 = True

    def _release(self, leg: PoolLeg) -> None:
        """Return a leg to its backend's available list; the longest
        waiting connection takes it directly, binding one step later."""
        waiting = self._waiting[leg.backend]
        if waiting:
            conn = waiting.popleft()
            conn.leg = leg
            self.sim.call_later(0.0, self._bound, conn)
        else:
            self._idle[leg.backend].append(leg)

    def _teardown(self, entry: MappingEntry, aborted: bool = False) -> None:
        """CLOSED: delete the entry, return the leg to the available list."""
        leg: Optional[PoolLeg] = entry.pooled_conn  # type: ignore[assignment]
        if leg is not None:
            leg.bound_entry = None
            self._release(leg)
            self.view.connection_finished(leg.backend)
        if aborted:
            self.mapping.abort(entry.client)
        else:
            self.mapping.transition(entry, MappingState.CLOSED)
            self.mapping.delete(entry.client)
        del self._conns[entry.client]

    # -- distributor IP: the backend side -----------------------------------
    def _on_dist_segment(self, seg: Segment) -> None:
        leg = self._legs.get(seg.dst.port)
        if leg is None:
            return
        if leg.state == "SYN_SENT" and seg.is_syn and seg.is_ack:
            leg.rcv_nxt = seg.seq + 1
            _leg_transition(leg, "ESTABLISHED", self.tracer)
            self.net.send(Segment(src=leg.local, dst=leg.remote,
                                  seq=leg.snd_nxt, ack=leg.rcv_nxt,
                                  flags=_ACK))
            self._release(leg)
            assert leg.established is not None
            leg.established.succeed(leg)
            return
        if seg.payload_len:
            leg.rcv_nxt = seg.seq + seg.payload_len
            # ACK the backend on the pool leg (one per relayed fragment)...
            self.net.send(Segment(src=leg.local, dst=leg.remote,
                                  seq=leg.snd_nxt, ack=leg.rcv_nxt,
                                  flags=_ACK, frags=seg.frags))
            # ...and relay the response to the client, rewritten.
            entry = leg.bound_entry
            if entry is None:
                return  # response after abort: drop
            flags = _ACK_PSH
            # §2.2: for HTTP/1.0 "the distributor will set the FIN flag
            # instead of server when it relay the last packet".  The last
            # packet of a response is the one carrying the parsed message
            # (fragments before it carry raw bytes only).
            last_packet = seg.payload is not None
            add_fin = entry.http10 and last_packet and not entry.vip_fin_sent
            if add_fin:
                flags |= FIN_FLAG
                entry.vip_fin_sent = True
            self.net.send(Segment(src=self.vip, dst=entry.client,
                                  seq=entry.client_ack,
                                  ack=entry.client_seq, flags=flags,
                                  payload_len=seg.payload_len,
                                  payload=seg.payload, frags=seg.frags))
            entry.client_ack += seg.payload_len + (1 if add_fin else 0)
            entry.bytes_to_client += seg.payload_len
            self.relayed_to_client += seg.frags
        # pure ACKs from the backend are absorbed
