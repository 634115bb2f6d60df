"""Packet model: IP/TCP headers and segments.

The content-aware distributor of the paper operates *below* the backend's
TCP stack: it records TCP state from observed packets in its mapping table
and relays packets between the client connection and a pre-forked backend
connection by rewriting IP addresses, ports, and sequence numbers.  To test
that mechanism faithfully we need an explicit packet representation.

Only the fields the mechanism reads or rewrites are modelled: addresses,
ports, sequence/acknowledgement numbers, flags, and payload length.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Optional

__all__ = ["TcpFlags", "Address", "Segment", "rewrite",
           "SYN_FLAG", "ACK_FLAG", "FIN_FLAG", "RST_FLAG", "PSH_FLAG"]


class TcpFlags(enum.IntFlag):
    """The TCP control flags the splicing state machine cares about."""

    NONE = 0
    SYN = 0x02
    ACK = 0x10
    FIN = 0x01
    RST = 0x04
    PSH = 0x08


#: Plain-int values of the flag bits.  ``IntFlag.__and__``/``__or__`` are
#: Python-level calls that dominated the packet hot path (~70k profiled
#: stdlib frames per bench run); every flag test and every emit-site
#: combination below uses these C-speed masks instead.  :class:`TcpFlags`
#: stays the public, serialized representation -- it *is* an int, so the
#: two are interchangeable in comparisons and constructors.
SYN_FLAG = int(TcpFlags.SYN)
ACK_FLAG = int(TcpFlags.ACK)
FIN_FLAG = int(TcpFlags.FIN)
RST_FLAG = int(TcpFlags.RST)
PSH_FLAG = int(TcpFlags.PSH)


@dataclasses.dataclass(frozen=True, slots=True)
class Address:
    """An (IP, port) endpoint identifier."""

    ip: str
    port: int
    #: memoised ``str(self)`` -- rebuilt f-strings dominated the trace and
    #: mapping-table hot paths; excluded from eq/hash/repr
    _str: Optional[str] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)
    #: memoised hash -- connection tables key on addresses, so each one is
    #: hashed about twenty times over a spliced request's life
    _hash: Optional[int] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ip, self.port))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = f"{self.ip}:{self.port}"
            object.__setattr__(self, "_str", s)
        return s


@dataclasses.dataclass(slots=True)
class Segment:
    """One TCP segment.

    ``payload`` carries a parsed object (an HTTP request/response or a chunk
    marker) rather than raw bytes; ``payload_len`` is the simulated wire
    size in bytes and is what sequence-number arithmetic uses.
    """

    src: Address
    dst: Address
    seq: int
    ack: int
    #: int bitmask; hot emit sites pass precomputed plain-int combinations
    #: (C-speed flag tests), while :class:`TcpFlags` values are accepted
    #: unchanged (IntFlag is an int)
    flags: int
    payload_len: int = 0
    payload: Any = None
    #: number of wire segments this object stands for.  The kernel fast
    #: path (DESIGN.md §11) coalesces an MSS-fragmented burst into one
    #: aggregated segment carrying the burst's total ``payload_len`` and
    #: ``frags``; ACKs and relays of an aggregated segment propagate the
    #: same count so ``Network.segments_sent`` stays byte-identical to
    #: the segment-at-a-time path
    frags: int = 1
    #: memoised flow key; segments are treated as immutable after creation
    #: (rewrite() returns copies), so caching the pair is safe
    _flow: Optional[tuple] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN_FLAG)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & ACK_FLAG)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN_FLAG)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST_FLAG)

    def seq_space(self) -> int:
        """Sequence-number space consumed (SYN and FIN count as one each)."""
        space = self.payload_len
        if self.flags & SYN_FLAG:
            space += 1
        if self.flags & FIN_FLAG:
            space += 1
        return space

    def flow_id(self) -> tuple[Address, Address]:
        """The (src, dst) pair identifying this direction of the flow."""
        f = self._flow
        if f is None:
            f = (self.src, self.dst)
            self._flow = f
        return f

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [f.name for f in TcpFlags if f and self.flags & f]
        return (f"Segment({self.src}->{self.dst} seq={self.seq} "
                f"ack={self.ack} [{'|'.join(names) or '-'}] "
                f"len={self.payload_len})")


def rewrite(segment: Segment, *,
            src: Optional[Address] = None,
            dst: Optional[Address] = None,
            seq_delta: int = 0,
            ack_delta: int = 0) -> Segment:
    """Return a copy of ``segment`` with rewritten headers.

    This is the distributor's relaying primitive: change addresses to splice
    the client flow onto the pre-forked backend flow and shift sequence
    numbers by the offset between the two connections' initial sequence
    numbers.  Payload is shared, not copied -- rewriting is header surgery.
    """
    return Segment(
        src=src if src is not None else segment.src,
        dst=dst if dst is not None else segment.dst,
        seq=segment.seq + seq_delta,
        ack=segment.ack + ack_delta,
        flags=segment.flags,
        payload_len=segment.payload_len,
        payload=segment.payload,
        frags=segment.frags,
    )
