"""The tracer: deterministic structured spans and point events.

Every record is keyed by *simulation time* and a monotonically assigned
trace / span / sequence id -- never the wall clock, never ``id()`` -- so a
trace is a pure function of the seed: same seed, byte-identical JSONL,
regardless of ``PYTHONHASHSEED``.  The tracer is strictly passive: it
appends Python objects to lists and never creates simulation events, so
enabling it cannot perturb the event sequence it observes.

Two record shapes:

* a :class:`Span` covers an interval (one request end to end, one agent
  dispatch round trip, one pipeline stage inside a request) and carries a
  terminal ``status``;
* a :class:`TraceEvent` marks a point (a shed decision, a breaker
  transition, a splice-state change) and, when it is a decision, carries a
  machine-readable ``reason`` in its attrs.

A tracer attaches itself to its simulator as ``sim.tracer``, beside
``sim.kernel_stats`` and ``sim.telemetry``.  Each component copies
``sim.tracer`` once, when it is built, and guards every record with
``if tracer is not None`` -- the same zero-overhead-when-off contract as
``overload=None`` on the front end.  So a tracer must exist before the
components it should observe.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional

from .recorder import FlightRecorder

__all__ = ["TraceEvent", "Span", "Tracer"]


@dataclasses.dataclass(slots=True)
class TraceEvent:
    """One point on the timeline.

    ``phase`` is ``""`` for a point event, ``"B"``/``"E"`` for the begin/
    end marks a :class:`Span` leaves on the timeline (so the flight
    recorder shows span boundaries in event order).
    """

    seq: int
    t: float
    kind: str
    name: str
    trace_id: Optional[int] = None
    node: Optional[str] = None
    phase: str = ""
    attrs: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "name": self.name,
                     "seq": self.seq, "t": round(self.t, 9)}
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        if self.node is not None:
            out["node"] = self.node
        if self.phase:
            out["phase"] = self.phase
        if self.attrs:
            out["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return out


@dataclasses.dataclass(slots=True)
class Span:
    """One interval on the timeline with a terminal status."""

    span_id: int
    kind: str
    name: str
    start: float
    trace_id: Optional[int] = None
    node: Optional[str] = None
    end: Optional[float] = None
    status: str = ""
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "name": self.name,
                     "span": self.span_id, "start": round(self.start, 9)}
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        if self.node is not None:
            out["node"] = self.node
        if self.end is not None:
            out["end"] = round(self.end, 9)
        out["status"] = self.status
        if self.attrs:
            out["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return out


class Tracer:
    """Records spans and events against a simulator's clock.

    One tracer serves a whole deployment; every instrumented component
    (front ends, pools, breakers, controller, monitor, HA pair, chaos
    schedule) built on ``sim`` after it shares it, so the timeline
    interleaves both planes.  All id counters are *instance* state --
    two tracers never share a sequence, and a fresh deployment always
    numbers from 1.
    """

    def __init__(self, sim, ring: int = 512):
        self.sim = sim
        sim.tracer = self
        self.events: list[TraceEvent] = []
        self.spans: list[Span] = []
        self.recorder = FlightRecorder(capacity=ring)
        self._seq = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- ids ----------------------------------------------------------------
    def new_trace(self) -> int:
        """Allocate the next request-scoped trace id."""
        return next(self._trace_ids)

    # -- recording ----------------------------------------------------------
    def point(self, kind: str, name: str, trace_id: Optional[int] = None,
              node: Optional[str] = None, **attrs) -> TraceEvent:
        """Record one point event at the current simulation time."""
        event = TraceEvent(seq=next(self._seq), t=self.sim.now, kind=kind,
                           name=name, trace_id=trace_id, node=node,
                           attrs=attrs)
        self.events.append(event)
        self.recorder.record(event)
        return event

    def begin(self, kind: str, name: str, trace_id: Optional[int] = None,
              node: Optional[str] = None, **attrs) -> Span:
        """Open a span; pair with :meth:`end`."""
        span = Span(span_id=next(self._span_ids), kind=kind, name=name,
                    start=self.sim.now, trace_id=trace_id, node=node,
                    attrs=attrs)
        self.spans.append(span)
        event = TraceEvent(seq=next(self._seq), t=span.start, kind=kind,
                           name=name, trace_id=trace_id, node=node,
                           phase="B", attrs={"span": span.span_id})
        self.events.append(event)
        self.recorder.record(event)
        return span

    def end(self, span: Span, status: str = "ok", **attrs) -> None:
        """Close a span with its terminal status (idempotence unchecked:
        closing twice is a caller bug and raises)."""
        if span.end is not None:
            raise ValueError(f"span {span.span_id} already ended")
        span.end = self.sim.now
        span.status = status
        span.attrs.update(attrs)
        mark = dict(attrs)
        mark["span"] = span.span_id
        mark["status"] = status
        event = TraceEvent(seq=next(self._seq), t=span.end, kind=span.kind,
                           name=span.name, trace_id=span.trace_id,
                           node=span.node, phase="E", attrs=mark)
        self.events.append(event)
        self.recorder.record(event)

    # -- queries --------------------------------------------------------------
    def find_events(self, kind: Optional[str] = None,
                    name: Optional[str] = None,
                    trace_id: Optional[int] = None,
                    node: Optional[str] = None,
                    points_only: bool = False) -> list[TraceEvent]:
        """Filter the event log (None = wildcard)."""
        return [e for e in self.events
                if (kind is None or e.kind == kind)
                and (name is None or e.name == name)
                and (trace_id is None or e.trace_id == trace_id)
                and (node is None or e.node == node)
                and (not points_only or not e.phase)]

    def find_spans(self, kind: Optional[str] = None,
                   name: Optional[str] = None,
                   trace_id: Optional[int] = None,
                   status: Optional[str] = None) -> list[Span]:
        """Filter the span log (None = wildcard)."""
        return [s for s in self.spans
                if (kind is None or s.kind == kind)
                and (name is None or s.name == name)
                and (trace_id is None or s.trace_id == trace_id)
                and (status is None or s.status == status)]

    def trace_ids(self) -> list[int]:
        """Every allocated trace id that recorded at least one event."""
        seen: dict[int, None] = {}
        for event in self.events:
            if event.trace_id is not None:
                seen[event.trace_id] = None
        return sorted(seen)
