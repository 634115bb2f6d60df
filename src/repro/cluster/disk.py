"""Disk model: one arm, FIFO service, seek + streaming transfer.

Disk activity is what the paper's load metric weights highest for static
content (load_Disk = 9 of 10), and the cache-miss path through this model is
what separates the three placement schemes in Figure 2.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Resource, Simulator
from .spec import DiskSpec

__all__ = ["Disk"]


class Disk:
    """A single-spindle disk serving whole-object reads FIFO."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._arm = Resource(sim, capacity=1, name=f"{name}.disk")
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_seconds = 0.0
        #: service-time multiplier, >= 1.0 (fault injection: degraded disk)
        self.slowdown = 1.0

    def set_slowdown(self, factor: float) -> None:
        """Degrade the disk: every read/write takes ``factor``x longer."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor}")
        self.slowdown = factor

    def clear_slowdown(self) -> None:
        self.slowdown = 1.0

    def _service(self, duration: float) -> Generator:
        """Hold the arm for ``duration``.

        A healthy (``slowdown == 1.0``), idle, unqueued disk takes the
        single-event fast path; a degraded disk always pays the
        event-accurate path so the disk-slowdown chaos fault keeps its
        exact event interleaving.
        """
        arm = self._arm
        ks = self.sim.kernel_stats
        if self.slowdown == 1.0:
            req = arm.try_acquire()
            if req is not None:
                try:
                    if ks is not None:
                        ks.on_fast_path("disk", True)
                    yield self.sim.hot_timeout(duration)
                finally:
                    arm.release(req)
            else:
                if ks is not None:
                    ks.on_fast_path("disk", False)
                # Grant-and-hold: one event for grant *and* service (see
                # Resource.request).
                req = yield from arm.lease(hold=duration)
                arm.release(req)
        else:
            if ks is not None:
                ks.on_fast_path("disk", False)
            # Degraded disk: keep the exact two-event interleaving so
            # the disk-slowdown chaos fault stays event-accurate (the
            # hold timer is still pooled).
            req = yield from arm.lease()
            try:
                yield self.sim.hot_timeout(duration)
            finally:
                arm.release(req)

    def read(self, nbytes: int) -> Generator:
        """Read an object; use ``yield from disk.read(nbytes)``."""
        duration = self.spec.read_time(nbytes) * self.slowdown
        yield from self._service(duration)
        self.reads += 1
        self.bytes_read += nbytes
        self.busy_seconds += duration

    def write(self, nbytes: int) -> Generator:
        """Write an object (content copy landing); same service model."""
        duration = self.spec.read_time(nbytes) * self.slowdown
        yield from self._service(duration)
        self.writes += 1
        self.bytes_written += nbytes
        self.busy_seconds += duration

    def utilization(self) -> float:
        return self._arm.utilization()

    @property
    def queue_len(self) -> int:
        return self._arm.queue_len
