"""Discrete-event simulation substrate.

Everything above this package (network, cluster, distributor, management)
is written as generator processes scheduled by :class:`~repro.sim.Simulator`.
"""

from .engine import (AllOf, AnyOf, Injection, Interrupt, Process, SimEvent,
                     Simulator, StopSimulation, Timeout)
from .metrics import (Counter, Histogram, MetricSet, SummaryStats,
                      ThroughputMeter, TimeWeighted)
from .resources import Request, Resource, Store
from .rng import (HybridSizeSampler, LognormalSampler, ParetoSampler,
                  RngStream, ZipfSampler)

__all__ = [
    "Simulator", "SimEvent", "Timeout", "Process", "Interrupt",
    "AllOf", "AnyOf", "StopSimulation", "Injection",
    "Resource", "Request", "Store",
    "RngStream", "ZipfSampler", "ParetoSampler", "LognormalSampler",
    "HybridSizeSampler",
    "Counter", "SummaryStats", "Histogram", "TimeWeighted",
    "ThroughputMeter", "MetricSet",
]
