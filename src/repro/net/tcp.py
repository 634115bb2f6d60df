"""A simplified TCP implementation over the simulated network.

This exists so the content-aware distributor's *packet-level* mechanism --
handshake interception, connection binding, header rewriting, and the
FIN_RECEIVED/HALF_CLOSED teardown from §2.2 of the paper -- can be exercised
against real protocol state rather than hand-waved.

Simplifications (documented, deliberate):

* The network is reliable and delivers in order, so there is no
  retransmission, no congestion control, and no window management.
  Unexpected sequence numbers therefore indicate *bugs* and raise
  :class:`ProtocolError` instead of being silently dropped.
* TIME_WAIT collapses to CLOSED immediately (no 2*MSL timer).
* Data segments are not fragmented to an MSS here; higher layers decide
  segment sizes.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional

from ..sim import SimEvent, Simulator, Store
from .packet import (ACK_FLAG, FIN_FLAG, PSH_FLAG, RST_FLAG, SYN_FLAG,
                     Address, Segment, TcpFlags)

__all__ = ["ProtocolError", "TcpState", "Network", "Host", "TcpSocket"]

#: Emit-site flag combinations, precomputed to plain ints at import time:
#: ``TcpFlags.ACK | TcpFlags.PSH`` at every send was a pair of Python-level
#: ``IntFlag`` calls on the hot path.  Segments built from these are
#: bit-identical to the enum-built ones (IntFlag is an int).
_SYN = SYN_FLAG
_ACK = ACK_FLAG
_RST = RST_FLAG
_SYN_ACK = SYN_FLAG | ACK_FLAG
_ACK_PSH = ACK_FLAG | PSH_FLAG
_FIN_ACK = FIN_FLAG | ACK_FLAG


class ProtocolError(Exception):
    """A TCP endpoint received a segment its state cannot explain."""


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"

    # Identity hash (members are singletons): the per-segment dispatch
    # table below otherwise pays the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__


_isn_counter = itertools.count(1000, 7919)  # deterministic, distinct ISNs


class Network:
    """Delivers segments between registered IP handlers with fixed latency."""

    def __init__(self, sim: Simulator, latency: float = 50e-6):
        self.sim = sim
        self.latency = latency
        self._handlers: dict[str, Callable[[Segment], None]] = {}
        self.segments_sent = 0
        #: multi-segment bursts collapsed to one aggregated segment by
        #: :meth:`TcpSocket.send_data` (DESIGN.md §11)
        self.flow_forwards = 0

    def register(self, ip: str, handler: Callable[[Segment], None]) -> None:
        if ip in self._handlers:
            raise ValueError(f"IP {ip} already registered")
        self._handlers[ip] = handler

    def unregister(self, ip: str) -> None:
        self._handlers.pop(ip, None)

    def send(self, segment: Segment) -> None:
        """Schedule delivery of ``segment`` to its destination IP.

        An aggregated segment (``frags > 1``) counts as the whole burst
        it stands for, so ``segments_sent`` counts wire segments.

        Delivery is one :meth:`Simulator.call_later` event per segment:
        the handler and the segment ride in the event itself, so no
        closure is built per packet.
        """
        self.segments_sent += segment.frags
        handler = self._handlers.get(segment.dst.ip)
        if handler is None:
            return  # destination dark: packet silently dropped
        self.sim.call_later(self.latency, handler, segment)


class Host:
    """An endpoint machine: one IP, many sockets, a demultiplexer."""

    def __init__(self, net: Network, ip: str):
        self.net = net
        self.ip = ip
        self.sim = net.sim
        self._ephemeral = itertools.count(32768)
        self._listeners: dict[int, TcpSocket] = {}
        self._conns: dict[tuple[int, Address], TcpSocket] = {}
        net.register(ip, self._deliver)

    def socket(self, port: Optional[int] = None) -> "TcpSocket":
        """Create an unbound socket (ephemeral port unless given)."""
        if port is None:
            port = next(self._ephemeral)
        return TcpSocket(self, Address(self.ip, port))

    def listen(self, port: int,
               on_accept: Callable[["TcpSocket"], None]) -> "TcpSocket":
        """Open a listening socket; ``on_accept`` is called per connection."""
        sock = TcpSocket(self, Address(self.ip, port))
        sock.state = TcpState.LISTEN
        sock._on_accept = on_accept
        self._listeners[port] = sock
        return sock

    def _register_conn(self, sock: "TcpSocket") -> None:
        key = (sock.local.port, sock.remote)
        if key in self._conns:
            raise ProtocolError(f"duplicate connection {key}")
        self._conns[key] = sock

    def _unregister_conn(self, sock: "TcpSocket") -> None:
        self._conns.pop((sock.local.port, sock.remote), None)

    def _deliver(self, segment: Segment) -> None:
        sock = self._conns.get((segment.dst.port, segment.src))
        if sock is not None:
            sock._handle(segment)
            return
        listener = self._listeners.get(segment.dst.port)
        if listener is not None:
            listener._handle_listen(segment)
            return
        if not segment.is_rst:
            self.net.send(Segment(src=segment.dst, dst=segment.src,
                                  seq=segment.ack, ack=0,
                                  flags=_RST))


class TcpSocket:
    """One endpoint of a (simplified) TCP connection."""

    def __init__(self, host: Host, local: Address):
        self.host = host
        self.sim = host.sim
        self.net = host.net
        self.local = local
        self.remote: Optional[Address] = None
        self.state = TcpState.CLOSED
        self.isn = next(_isn_counter)
        self.snd_nxt = self.isn
        self.rcv_nxt = 0
        self.inbox: Store = Store(self.sim, name=f"inbox:{local}")
        self.closed_event: SimEvent = self.sim.event()
        self.closed_event.defuse()
        self.reset = False
        self._connect_event: Optional[SimEvent] = None
        self._on_accept: Optional[Callable[["TcpSocket"], None]] = None

    # -- user API -----------------------------------------------------------
    def connect(self, remote: Address) -> SimEvent:
        """Start the three-way handshake; yield the returned event."""
        if self.state is not TcpState.CLOSED:
            raise ProtocolError(f"connect() in state {self.state}")
        self.remote = remote
        self.host._register_conn(self)
        self.state = TcpState.SYN_SENT
        self._connect_event = self.sim.event()
        self._emit(_SYN)
        self.snd_nxt += 1
        return self._connect_event

    def send(self, payload, nbytes: int) -> None:
        """Send one data segment carrying ``payload`` of ``nbytes`` bytes."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise ProtocolError(f"send() in state {self.state}")
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self._emit(_ACK_PSH, payload_len=nbytes, payload=payload)
        self.snd_nxt += nbytes

    def send_data(self, payload, nbytes: int, mss: int = 1460) -> int:
        """Send ``nbytes`` fragmented to the MSS; returns segment count.

        Only the final segment carries ``payload`` (the parsed message
        object) -- the marker receivers and middleboxes use to recognize
        the last packet of an application message.

        A multi-segment burst collapses to one aggregated segment
        carrying ``frags=nsegs`` (DESIGN.md §11): the flow-level splice
        fast-forward.  Sequence arithmetic, counters, and delivery time
        are those of ``nsegs`` separate segments (all fragments are
        emitted at the same instant and the network delivers with fixed
        latency); only the number of scheduled events changes.
        """
        if mss <= 0:
            raise ValueError("mss must be positive")
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        full, rest = divmod(nbytes, mss)
        nsegs = full + (1 if rest else 0)
        if nsegs == 1:
            self.send(payload, nbytes)
            return 1
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise ProtocolError(f"send() in state {self.state}")
        self.net.flow_forwards += 1
        self._emit(_ACK_PSH, payload_len=nbytes,
                   payload=payload, frags=nsegs)
        self.snd_nxt += nbytes
        return nsegs

    def recv_message(self, total_bytes: int) -> "SimEvent | None":
        """Convenience generator: collect fragments until ``total_bytes``
        have arrived; returns the final fragment's payload.  Use with
        ``yield from``."""
        received = 0
        payload = None
        while received < total_bytes:
            fragment, nbytes = yield self.recv()
            received += nbytes
            if fragment is not None:
                payload = fragment
        return payload

    def recv(self) -> SimEvent:
        """Yield the next (payload, nbytes) tuple delivered in order."""
        return self.inbox.get()

    def close(self) -> SimEvent:
        """Begin an orderly close; the returned event fires at CLOSED."""
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
            self._emit(_FIN_ACK)
            self.snd_nxt += 1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
            self._emit(_FIN_ACK)
            self.snd_nxt += 1
        elif self.state is TcpState.CLOSED:
            if not self.closed_event.triggered:
                self.closed_event.succeed(self)
        else:
            raise ProtocolError(f"close() in state {self.state}")
        return self.closed_event

    def abort(self) -> None:
        """Send RST and drop straight to CLOSED."""
        if self.remote is not None and self.state not in (
                TcpState.CLOSED, TcpState.LISTEN):
            self._emit(_RST)
        self._become_closed()

    # -- internals ------------------------------------------------------------
    def _emit(self, flags: TcpFlags, payload_len: int = 0,
              payload=None, frags: int = 1) -> None:
        assert self.remote is not None
        self.net.send(Segment(src=self.local, dst=self.remote,
                              seq=self.snd_nxt, ack=self.rcv_nxt,
                              flags=flags, payload_len=payload_len,
                              payload=payload, frags=frags))

    def _become_closed(self) -> None:
        self.state = TcpState.CLOSED
        self.host._unregister_conn(self)
        if not self.closed_event.triggered:
            self.closed_event.succeed(self)

    def _handle_listen(self, segment: Segment) -> None:
        """Handle a segment arriving at a LISTEN socket: spawn a child."""
        if not segment.is_syn:
            return  # stray segment to a listener: ignore
        child = TcpSocket(self.host, self.local)
        child.remote = segment.src
        child.state = TcpState.SYN_RECEIVED
        child.rcv_nxt = segment.seq + 1
        self.host._register_conn(child)
        child._emit(_SYN_ACK)
        child.snd_nxt += 1
        child._on_accept = self._on_accept

    def _handle(self, segment: Segment) -> None:
        if segment.is_rst:
            self.reset = True
            self._become_closed()
            return
        handler = _HANDLERS.get(self.state)
        if handler is None:
            raise ProtocolError(
                f"{self.local}: segment in unexpected state {self.state}")
        handler(self, segment)

    def _accept_data(self, segment: Segment) -> None:
        """Common in-order data/FIN acceptance used by synchronized states."""
        if segment.payload_len == 0 and not segment.is_fin:
            return  # pure ACK
        if segment.seq != self.rcv_nxt:
            raise ProtocolError(
                f"{self.local}: expected seq {self.rcv_nxt}, "
                f"got {segment.seq} (reliable network => bug)")
        self.rcv_nxt += segment.seq_space()
        if segment.payload_len:
            self.inbox.put((segment.payload, segment.payload_len))
        # ACKing an aggregated segment stands for one ACK per fragment
        self._emit(_ACK, frags=segment.frags)

    def _in_syn_sent(self, segment: Segment) -> None:
        if not (segment.is_syn and segment.is_ack):
            raise ProtocolError(f"{self.local}: expected SYN-ACK")
        self.rcv_nxt = segment.seq + 1
        self.state = TcpState.ESTABLISHED
        self._emit(_ACK)
        assert self._connect_event is not None
        self._connect_event.succeed(self)

    def _in_syn_received(self, segment: Segment) -> None:
        if segment.is_ack:
            self.state = TcpState.ESTABLISHED
            if self._on_accept is not None:
                self._on_accept(self)
            # The handshake ACK may already carry data (common for HTTP).
            if segment.payload_len or segment.is_fin:
                self._accept_data(segment)

    def _in_established(self, segment: Segment) -> None:
        fin = segment.is_fin
        self._accept_data(segment)
        if fin:
            self.state = TcpState.CLOSE_WAIT

    def _in_fin_wait_1(self, segment: Segment) -> None:
        if segment.is_fin:
            # Simultaneous close or FIN+ACK combined.
            self._accept_data(segment)
            self._become_closed()  # TIME_WAIT collapsed
        elif segment.is_ack and segment.ack >= self.snd_nxt:
            self.state = TcpState.FIN_WAIT_2
        else:
            self._accept_data(segment)

    def _in_fin_wait_2(self, segment: Segment) -> None:
        fin = segment.is_fin
        self._accept_data(segment)
        if fin:
            self._become_closed()  # TIME_WAIT collapsed

    def _in_close_wait(self, segment: Segment) -> None:
        self._accept_data(segment)

    def _in_last_ack(self, segment: Segment) -> None:
        if segment.is_ack and segment.ack >= self.snd_nxt:
            self._become_closed()


#: Per-state segment dispatch, built once at import.  ``_handle`` used to
#: rebuild a seven-entry dict of bound methods for every delivered segment;
#: the unbound functions here are called as ``handler(sock, segment)``.
_HANDLERS: dict[TcpState, Any] = {
    TcpState.SYN_SENT: TcpSocket._in_syn_sent,
    TcpState.SYN_RECEIVED: TcpSocket._in_syn_received,
    TcpState.ESTABLISHED: TcpSocket._in_established,
    TcpState.FIN_WAIT_1: TcpSocket._in_fin_wait_1,
    TcpState.FIN_WAIT_2: TcpSocket._in_fin_wait_2,
    TcpState.CLOSE_WAIT: TcpSocket._in_close_wait,
    TcpState.LAST_ACK: TcpSocket._in_last_ack,
}
