"""Fault schedules: *when* the typed faults strike.

A :class:`FaultSchedule` is an ordered set of faults installed onto a live
deployment through :meth:`repro.sim.Simulator.add_injection`, the engine's
fault-injection hook.  Schedules are either declared explicitly (tests
pinning an exact scenario) or generated from a seeded
:class:`~repro.sim.RngStream` (the chaos runner's episodes), so every run
is reproducible from its seed alone.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..sim import Injection, RngStream
from .faults import (AgentLoss, BackendCrash, ChaosTargets, DiskSlowdown,
                     Fault, FAULT_KINDS, FlashCrowd, LanDelay, MgmtCrash,
                     PacketLoss, Partition, PrimaryCrash)

__all__ = ["FaultSchedule", "generate_schedule"]


class FaultSchedule:
    """An immutable, time-ordered collection of faults."""

    def __init__(self, faults: Iterable[Fault]):
        self.faults: tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: (f.at, f.kind)))
        partitions = sum(1 for f in self.faults if f.kind == Partition.kind)
        if partitions > 1:
            # the Lan models a single binary partition at a time
            raise ValueError("at most one partition fault per schedule")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted({f.kind for f in self.faults}))

    def describe(self) -> str:
        return "; ".join(f.describe() for f in self.faults)

    def install(self, targets: ChaosTargets) -> list[Injection]:
        """Register every fault on the target simulator; returns records.
        Applies and reverts become "chaos" points on ``sim.tracer``."""
        sim = targets.sim
        tracer = sim.tracer
        injections = []

        def traced(fault: Fault, action: str, op) -> None:
            if tracer is not None:
                tracer.point("chaos", f"{fault.kind}/{action}",
                             label=fault.describe())
            op(targets)

        for fault in self.faults:
            delay = fault.at - sim.now
            if delay < 0:
                raise ValueError(f"fault {fault.describe()} is in the past "
                                 f"(now={sim.now:.3f})")
            revert = (None if fault.duration == 0 else
                      (lambda f=fault: traced(f, "revert", f.revert)))
            injections.append(sim.add_injection(
                delay,
                (lambda f=fault: traced(f, "apply", f.apply)),
                revert=revert,
                duration=fault.duration,
                label=fault.describe()))
        return injections


def _build_fault(cls: type[Fault], rng: RngStream,
                 nodes: Sequence[str], duration: float) -> Fault:
    """One randomized fault of class ``cls``, bounded so it strikes in the
    first half of the episode and reverts well before the drain."""
    at = duration * rng.uniform(0.15, 0.45)
    span = duration * rng.uniform(0.12, 0.25)
    if cls is BackendCrash:
        return BackendCrash(node=rng.choice(sorted(nodes)), at=at,
                            duration=span)
    if cls is PrimaryCrash:
        return PrimaryCrash(at=at)  # permanent: the backup takes over
    if cls is PacketLoss:
        return PacketLoss(rate=rng.uniform(0.05, 0.25),
                          retransmit_delay=0.02, at=at, duration=span)
    if cls is LanDelay:
        return LanDelay(extra=rng.uniform(0.002, 0.010), at=at,
                        duration=span)
    if cls is Partition:
        k = rng.randint(1, max(1, len(nodes) // 3))
        cut = tuple(sorted(rng.sample(sorted(nodes), k)))
        return Partition(nodes=cut, at=at, duration=span)
    if cls is DiskSlowdown:
        return DiskSlowdown(node=rng.choice(sorted(nodes)),
                            factor=rng.uniform(4.0, 12.0), at=at,
                            duration=span)
    if cls is AgentLoss:
        return AgentLoss(rate=rng.uniform(0.2, 0.5), at=at, duration=span)
    if cls is FlashCrowd:
        return FlashCrowd(multiplier=rng.uniform(2.0, 4.0), at=at,
                          duration=span)
    if cls is MgmtCrash:
        # the outage window is the seeded "delayed restart"
        return MgmtCrash(at=at, duration=max(span, 0.3))
    raise ValueError(f"unknown fault class {cls!r}")


def generate_schedule(rng: RngStream, nodes: Sequence[str],
                      duration: float,
                      forced: Optional[type[Fault]] = None,
                      extra_faults: int = 2) -> FaultSchedule:
    """Random schedule: one ``forced`` fault plus ``extra_faults`` others.

    At most one fault per kind, so a schedule exercises ``1 +
    extra_faults`` *distinct* fault classes; the runner forces a different
    class each episode, which is how a 20-episode run is guaranteed to
    cover all of :data:`~repro.chaos.faults.FAULT_KINDS`.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not nodes:
        raise ValueError("need at least one backend node")
    faults: list[Fault] = []
    used: list[type[Fault]] = []
    if forced is not None:
        faults.append(_build_fault(forced, rng, nodes, duration))
        used.append(forced)
    candidates = [cls for cls in FAULT_KINDS if cls not in used]
    for cls in rng.sample(candidates, min(extra_faults, len(candidates))):
        faults.append(_build_fault(cls, rng, nodes, duration))
    return FaultSchedule(faults)
