"""The switched fast-ethernet LAN model.

The paper's testbed connects every node with 100 Mbps fast ethernet,
"in order to allow enough throughput to show the clustered server's
capabilities".  The experiments depend on two properties of that network:

* per-node NIC bandwidth is finite, so a node pushing many large responses
  serializes them (this is what melts the NFS server in Figure 2);
* the switch itself is not the bottleneck (switched, not shared, ethernet).

We model each NIC as a full-duplex pair of transmit/receive channels with a
byte rate; a transfer holds the sender's TX channel and the receiver's RX
channel for ``bytes / min(rates)`` plus propagation latency.  Acquiring TX
before RX is deadlock-free because RX holders never wait on anything.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from ..sim import Resource, RngStream, SimEvent, Simulator

__all__ = ["Nic", "Lan"]

#: Protocol framing overhead (ethernet + IP + TCP headers per MSS).
WIRE_OVERHEAD = 1.055


class Nic:
    """A full-duplex network interface with a fixed line rate."""

    def __init__(self, sim: Simulator, mbps: float = 100.0, name: str = ""):
        if mbps <= 0:
            raise ValueError("line rate must be positive")
        self.sim = sim
        self.name = name
        self.mbps = mbps
        self.bytes_per_second = mbps * 1e6 / 8.0
        self.tx = Resource(sim, capacity=1, name=f"{name}.tx")
        self.rx = Resource(sim, capacity=1, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0

    def serialization_time(self, nbytes: int) -> float:
        """Wire time to clock ``nbytes`` (plus framing) through this NIC."""
        return nbytes * WIRE_OVERHEAD / self.bytes_per_second

    def utilization_out(self) -> float:
        return self.tx.utilization()

    def utilization_in(self) -> float:
        return self.rx.utilization()


class Lan:
    """A switched LAN: transfers contend only on the endpoints' NICs."""

    def __init__(self, sim: Simulator, latency: float = 0.2e-3):
        self.sim = sim
        self.latency = latency
        self.total_transfers = 0
        self.total_bytes = 0
        # -- fault-injection state (driven by repro.chaos) ------------------
        #: additional one-way latency per transfer (congestion / bad cable)
        self.extra_latency = 0.0
        #: probability that a transfer needs TCP retransmissions first
        self.loss_rate = 0.0
        #: delay one retransmission round costs (a short RTO)
        self.retransmit_delay = 0.05
        self._loss_rng: Optional[RngStream] = None
        #: node prefixes currently cut off from the rest of the switch
        self._partitioned: frozenset[str] = frozenset()
        self._heal_event: Optional[SimEvent] = None
        self.retransmissions = 0
        self.transfers_blocked = 0
        #: transfers completed via the single-event fast path (observability
        #: only -- never part of the golden/metrics equivalence surface)
        self.fast_transfers = 0

    # -- fault injection hooks (repro.chaos) --------------------------------
    def set_loss(self, rate: float, rng: RngStream,
                 retransmit_delay: float = 0.05) -> None:
        """Make transfers lossy: with probability ``rate`` a transfer pays
        one retransmission round (repeatedly, geometrically) before its
        bytes go through -- TCP semantics, so nothing is silently dropped.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        if retransmit_delay <= 0:
            raise ValueError("retransmit_delay must be positive")
        self.loss_rate = rate
        self._loss_rng = rng
        self.retransmit_delay = retransmit_delay

    def clear_loss(self) -> None:
        self.loss_rate = 0.0
        self._loss_rng = None

    def add_delay(self, extra: float) -> None:
        """Add ``extra`` seconds of one-way latency (additive, revertable)."""
        if extra < 0:
            raise ValueError("extra latency must be non-negative")
        self.extra_latency += extra

    def remove_delay(self, extra: float) -> None:
        self.extra_latency = max(0.0, self.extra_latency - extra)

    def set_partition(self, nodes: Iterable[str]) -> None:
        """Cut the named endpoints (NIC-name prefixes before the first
        ``.``) off from everyone else.  Cross-partition transfers block --
        TCP keeps retrying -- until :meth:`heal_partition`."""
        self._partitioned = frozenset(nodes)

    def heal_partition(self) -> None:
        """End the partition; every blocked transfer resumes."""
        self._partitioned = frozenset()
        event, self._heal_event = self._heal_event, None
        if event is not None:
            event.succeed()

    @property
    def partitioned_nodes(self) -> frozenset[str]:
        return self._partitioned

    @staticmethod
    def _endpoint(nic: Nic) -> str:
        return nic.name.split(".", 1)[0]

    def _crosses_partition(self, src: Nic, dst: Nic) -> bool:
        if not self._partitioned:
            return False
        return ((self._endpoint(src) in self._partitioned) !=
                (self._endpoint(dst) in self._partitioned))

    def _heal_wait(self) -> SimEvent:
        if self._heal_event is None:
            self._heal_event = SimEvent(self.sim)
        return self._heal_event

    def transfer_time(self, src: Nic, dst: Nic, nbytes: int) -> float:
        """Uncontended duration of a transfer (excluding queueing)."""
        a = src.bytes_per_second
        b = dst.bytes_per_second
        return nbytes * WIRE_OVERHEAD / (a if a <= b else b) + self.latency

    def transfer(self, src: Nic, dst: Nic,
                 nbytes: int) -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst``; use ``yield from``.

        Blocks while either endpoint NIC is busy, then holds both channels
        for the serialization time.  Returns the completion time.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        ks = self.sim.kernel_stats
        if (self._loss_rng is None and not self._partitioned
                and self.extra_latency == 0.0):
            # No active fault: acquire each endpoint channel synchronously
            # when it is idle (bookkeeping-identical to the event-based
            # grant, see Resource.try_acquire) and queue event-accurately
            # on a busy one; the hold itself is one pooled timeout.  When
            # both channels are idle this is the classic single-event
            # fast transfer.  Any chaos fault (loss/delay/partition)
            # falls through to the segment-accurate path below.
            duration = self.transfer_time(src, dst, nbytes)
            tx_sync = True
            tx_req = src.tx.try_acquire()
            if tx_req is None:
                tx_sync = False
                if ks is not None:
                    ks.on_fast_path("lan", False)
                tx_req = yield from src.tx.lease()
            try:
                rx_req = dst.rx.try_acquire()
                if rx_req is not None:
                    try:
                        # hit = both channels idle at entry; a queued TX
                        # already counted as a fallback above
                        if tx_sync:
                            self.fast_transfers += 1
                            if ks is not None:
                                ks.on_fast_path("lan", True)
                        yield self.sim.hot_timeout(duration)
                    finally:
                        dst.rx.release(rx_req)
                else:
                    if tx_sync and ks is not None:
                        ks.on_fast_path("lan", False)
                    # Busy receiver: grant-and-hold -- the RX grant event
                    # fires once, when the hold expires (Resource.request)
                    rx_req = yield from dst.rx.lease(hold=duration)
                    dst.rx.release(rx_req)
            finally:
                src.tx.release(tx_req)
            self.total_transfers += 1
            self.total_bytes += nbytes
            src.bytes_sent += nbytes
            dst.bytes_received += nbytes
            return self.sim.now
        if ks is not None:
            ks.on_fast_path("lan", False)
        # Faults are paid *before* acquiring either channel: a transfer
        # stuck behind a partition must not hold the sender's TX and
        # head-of-line-block unrelated traffic.
        while self._crosses_partition(src, dst):
            self.transfers_blocked += 1
            yield self._heal_wait()
        # re-checked each round: the fault may revert mid-retransmission
        while (self._loss_rng is not None and
               self._loss_rng.random() < self.loss_rate):
            self.retransmissions += 1
            yield self.sim.timeout(self.retransmit_delay)
        tx_req = yield from src.tx.lease()
        try:
            # the RX wait is interruptible: TX must not leak if this
            # transfer is torn down while queued for the receiver
            rx_req = yield from dst.rx.lease()
            try:
                yield self.sim.timeout(self.transfer_time(src, dst, nbytes)
                                       + self.extra_latency)
            finally:
                dst.rx.release(rx_req)
        finally:
            src.tx.release(tx_req)
        self.total_transfers += 1
        self.total_bytes += nbytes
        src.bytes_sent += nbytes
        dst.bytes_received += nbytes
        return self.sim.now
