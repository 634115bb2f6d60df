"""Typed fault classes: what can break, and how it breaks.

Each fault is a small frozen value object naming a *kind* of failure the
paper's system is supposed to survive -- backend crash (§3.1's broker
status loop + §3.3 re-replication), primary distributor failure (§2.3
primary/backup takeover), LAN degradation (loss / delay / partition),
disk slowdown, and management-agent loss in flight.  A fault knows how to
``apply`` itself to a live deployment and (when transient) how to
``revert``; the scheduling -- *when* -- lives in
:mod:`repro.chaos.schedule`, which drives these through
:meth:`repro.sim.Simulator.add_injection`.

Every mutation goes through hooks the target components expose for fault
injection (``Lan.set_loss``/``set_partition``, ``Disk.set_slowdown``,
``Broker.drop_filter``, ``BackendServer.crash``), never by monkeypatching.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Optional

from ..cluster import BackendServer
from ..core.failover import HaDistributorPair
from ..mgmt import Broker, Controller
from ..mgmt.durability import recover
from ..net import Lan
from ..sim import RngStream, Simulator

__all__ = ["ChaosTargets", "Fault", "BackendCrash", "PrimaryCrash",
           "PacketLoss", "LanDelay", "Partition", "DiskSlowdown",
           "AgentLoss", "FlashCrowd", "MgmtCrash", "FAULT_KINDS"]


@dataclasses.dataclass
class ChaosTargets:
    """The live deployment surface a fault schedule acts on."""

    sim: Simulator
    lan: Lan
    servers: dict[str, BackendServer]
    pair: Optional[HaDistributorPair] = None
    brokers: dict[str, Broker] = dataclasses.field(default_factory=dict)
    #: stream deciding which transfers pay retransmissions (PacketLoss)
    loss_rng: Optional[RngStream] = None
    #: stream deciding which dispatches are lost in flight (AgentLoss)
    agent_rng: Optional[RngStream] = None
    #: the closed-loop client rig (FlashCrowd bursts extra clients on it);
    #: typed loosely to keep the chaos layer import-free of the workload
    rig: Optional[object] = None
    #: the management controller (MgmtCrash kills and restarts it)
    controller: Optional[Controller] = None


@dataclasses.dataclass(frozen=True, kw_only=True)
class Fault:
    """One scheduled failure; subclasses define the mechanics."""

    kind: ClassVar[str] = "fault"
    #: simulated time the fault strikes
    at: float
    #: how long it lasts; 0 means permanent (no revert scheduled)
    duration: float = 0.0

    @property
    def ends_at(self) -> float:
        return self.at + self.duration

    def apply(self, targets: ChaosTargets) -> None:
        raise NotImplementedError

    def revert(self, targets: ChaosTargets) -> None:
        """Undo a transient fault; permanent faults never call this."""

    def describe(self) -> str:
        def fmt(v: object) -> str:
            return f"{v:.4g}" if isinstance(v, float) else repr(v)

        params = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(self)
                  if f.name not in ("at", "duration")}
        inner = ", ".join(f"{k}={fmt(v)}" for k, v in sorted(params.items()))
        span = (f"t={self.at:.2f}s" if self.duration == 0 else
                f"t={self.at:.2f}s+{self.duration:.2f}s")
        return f"{self.kind}({inner}) @ {span}" if inner else \
            f"{self.kind} @ {span}"


@dataclasses.dataclass(frozen=True, kw_only=True)
class BackendCrash(Fault):
    """A backend machine dies (and its broker daemon with it)."""

    kind: ClassVar[str] = "backend-crash"
    node: str

    def apply(self, targets: ChaosTargets) -> None:
        targets.servers[self.node].crash()

    def revert(self, targets: ChaosTargets) -> None:
        targets.servers[self.node].recover()


@dataclasses.dataclass(frozen=True, kw_only=True)
class PrimaryCrash(Fault):
    """The primary distributor dies; §2.3's backup must take over.

    Permanent by design: recovery is the backup's promotion, not the
    primary coming back.
    """

    kind: ClassVar[str] = "primary-crash"

    def apply(self, targets: ChaosTargets) -> None:
        if targets.pair is None:
            raise ValueError("PrimaryCrash needs an HaDistributorPair")
        targets.pair.primary.crash()


@dataclasses.dataclass(frozen=True, kw_only=True)
class PacketLoss(Fault):
    """LAN-wide loss: transfers pay TCP retransmission rounds."""

    kind: ClassVar[str] = "packet-loss"
    rate: float
    retransmit_delay: float = 0.05

    def apply(self, targets: ChaosTargets) -> None:
        if targets.loss_rng is None:
            raise ValueError("PacketLoss needs targets.loss_rng")
        targets.lan.set_loss(self.rate, targets.loss_rng,
                             retransmit_delay=self.retransmit_delay)

    def revert(self, targets: ChaosTargets) -> None:
        targets.lan.clear_loss()


@dataclasses.dataclass(frozen=True, kw_only=True)
class LanDelay(Fault):
    """Extra one-way latency on every transfer (congested switch)."""

    kind: ClassVar[str] = "lan-delay"
    extra: float

    def apply(self, targets: ChaosTargets) -> None:
        targets.lan.add_delay(self.extra)

    def revert(self, targets: ChaosTargets) -> None:
        targets.lan.remove_delay(self.extra)


@dataclasses.dataclass(frozen=True, kw_only=True)
class Partition(Fault):
    """The named nodes are cut off from the rest of the LAN."""

    kind: ClassVar[str] = "partition"
    nodes: tuple[str, ...]

    def apply(self, targets: ChaosTargets) -> None:
        targets.lan.set_partition(self.nodes)

    def revert(self, targets: ChaosTargets) -> None:
        targets.lan.heal_partition()


@dataclasses.dataclass(frozen=True, kw_only=True)
class DiskSlowdown(Fault):
    """One node's disk degrades (failing drive, background scrub)."""

    kind: ClassVar[str] = "disk-slowdown"
    node: str
    factor: float = 8.0

    def apply(self, targets: ChaosTargets) -> None:
        targets.servers[self.node].disk.set_slowdown(self.factor)

    def revert(self, targets: ChaosTargets) -> None:
        targets.servers[self.node].disk.clear_slowdown()


@dataclasses.dataclass(frozen=True, kw_only=True)
class AgentLoss(Fault):
    """Management dispatches are lost in flight with some probability.

    §3.1's mobile agents ride the same unreliable network as everything
    else; the controller's dispatch timeout is what's under test here.
    """

    kind: ClassVar[str] = "agent-loss"
    rate: float

    def apply(self, targets: ChaosTargets) -> None:
        if targets.agent_rng is None:
            raise ValueError("AgentLoss needs targets.agent_rng")
        rng, rate = targets.agent_rng, self.rate
        for name in sorted(targets.brokers):
            targets.brokers[name].drop_filter = \
                lambda dispatch: rng.random() < rate

    def revert(self, targets: ChaosTargets) -> None:
        for name in sorted(targets.brokers):
            targets.brokers[name].drop_filter = None


@dataclasses.dataclass(frozen=True, kw_only=True)
class FlashCrowd(Fault):
    """A sudden burst of demand: the closed-loop client population jumps
    by ``multiplier`` x for the fault's duration.

    This is the overload-control scenario: without admission control the
    front end accepts everything and queues grow without limit; with it,
    excess requests are shed with a clean 503 + Retry-After.
    """

    kind: ClassVar[str] = "flash-crowd"
    multiplier: float = 3.0

    def apply(self, targets: ChaosTargets) -> None:
        if targets.rig is None:
            raise ValueError("FlashCrowd needs targets.rig")
        steady = targets.rig.steady_clients
        extra = max(1, round(steady * (self.multiplier - 1.0)))
        targets.rig.start_burst(extra)

    def revert(self, targets: ChaosTargets) -> None:
        targets.rig.drain_burst()


@dataclasses.dataclass(frozen=True, kw_only=True)
class MgmtCrash(Fault):
    """The management controller process dies and later restarts.

    A transient fault by construction: ``duration`` is the outage
    window, after which the controller restarts and -- when durability
    is enabled -- replays its WAL and resolves interrupted intents via
    :func:`repro.mgmt.durability.recover`.  In-flight operations observe
    :class:`~repro.mgmt.durability.ControllerCrashed` and unwind; the
    cluster monitor skips its sweeps while the brain is down.
    """

    kind: ClassVar[str] = "mgmt-crash"
    #: dispatch timeout for recovery's verify/re-drive probes
    recovery_timeout: float = 1.0

    def apply(self, targets: ChaosTargets) -> None:
        if targets.controller is None:
            raise ValueError("MgmtCrash needs targets.controller")
        if self.duration <= 0:
            raise ValueError("MgmtCrash must be transient (duration > 0)")
        targets.controller.crash()

    def revert(self, targets: ChaosTargets) -> None:
        controller = targets.controller
        if controller is None:
            raise ValueError("MgmtCrash needs targets.controller")
        controller.restart()
        if controller.durability is not None:
            targets.sim.process(
                recover(controller, timeout=self.recovery_timeout),
                name="mgmt-recovery")


#: Every injectable fault class, in a fixed order (episode rotation uses
#: this to guarantee coverage of all kinds across a run).  MgmtCrash is
#: deliberately *not* in the rotation: appending it would shift the
#: ``forced`` kind of every existing golden chaos episode.  Schedules
#: opt in explicitly (``forced=MgmtCrash`` / ``extra_faults``).
FAULT_KINDS: tuple[type[Fault], ...] = (
    BackendCrash, PrimaryCrash, PacketLoss, LanDelay, Partition,
    DiskSlowdown, AgentLoss, FlashCrowd)
