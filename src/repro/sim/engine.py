"""Discrete-event simulation kernel.

The kernel implements a classic event-list simulator with generator-based
processes, in the style popularized by SimPy but self-contained and small
enough to reason about exactly.  All higher layers (network, cluster,
distributor, management system) are built as processes on top of this module.

Concepts
--------
``Simulator``
    Owns the virtual clock and the event queue.  ``run()`` pops events in
    timestamp order and fires their callbacks.
``SimEvent``
    A one-shot occurrence.  Processes *yield* events to suspend until the
    event is triggered; the event's value (or exception) is delivered to the
    generator when it resumes.
``Process``
    Wraps a generator.  A process is itself an event that triggers when the
    generator returns, so processes can wait for each other ("join").
``Timeout``
    An event that triggers after a fixed delay of virtual time.
``AllOf`` / ``AnyOf``
    Composite conditions over several events.

The kernel is deterministic: events scheduled for the same timestamp fire in
insertion order (a monotone sequence number breaks ties).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "StopSimulation",
    "Injection",
]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupting party may attach an arbitrary ``cause`` explaining why
    the interrupt happened (e.g. a failure injection or a cancelled request).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "no value yet" from "value is None".
_PENDING = object()


class SimEvent:
    """A one-shot event that processes can wait on.

    An event moves through three stages: *pending* (just created),
    *triggered* (``succeed``/``fail`` called and the event is queued),
    and *processed* (callbacks have run).  Triggering twice is an error --
    events are strictly one-shot.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["SimEvent"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._defused = False

    # -- state ----------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    # -- triggering -----------------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self.sim._enqueue(0.0, self)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with an exception.

        The exception propagates into every waiting process.  If nothing ever
        waits on a failed event, the simulator re-raises it at fire time so
        errors cannot pass silently (call :meth:`defuse` to opt out).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._exception = exception
        self._value = None
        self.sim._enqueue(0.0, self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if no process observes it."""
        self._defused = True

    # -- wiring ---------------------------------------------------------------
    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        self.callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        observed = False
        for cb in callbacks:  # type: ignore[union-attr]
            observed = True
            cb(self)
        if self._exception is not None and not observed and not self._defused:
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(SimEvent):
    """An event that fires after ``delay`` units of virtual time."""

    __slots__ = ("delay", "_pooled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._pooled = False
        self._value = value
        sim._enqueue(delay, self)


class _Initialize(SimEvent):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._value = None
        self.add_callback(process._resume_cb)
        sim._enqueue(0.0, self)


class _Call(SimEvent):
    """A scheduled ``fn(arg)`` (see :meth:`Simulator.call_later`).

    The closure-free form of :meth:`Simulator.schedule`: the target and
    its one argument ride in slots and every instance shares one
    immutable callback tuple, so scheduling allocates exactly one object.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator", fn: Callable[[Any], Any], arg: Any):
        self.sim = sim
        self.callbacks = _CALL_CALLBACKS  # type: ignore[assignment]
        self._value = None
        self._exception = None
        self._defused = False
        self.fn = fn
        self.arg = arg


def _run_call(event: _Call) -> None:
    event.fn(event.arg)


_CALL_CALLBACKS = (_run_call,)


class Process(SimEvent):
    """A running generator.  Also an event that triggers on completion."""

    __slots__ = ("name", "_generator", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[SimEvent] = None
        # Interned bound method: every suspension point registers the same
        # callback object, so waits stop paying a method-binding allocation.
        self._resume_cb = self._resume
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self.triggered:
            raise RuntimeError(f"{self.name} has already terminated")
        interrupt_event = SimEvent(self.sim)
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._value = None
        interrupt_event.defuse()
        # Detach from the event currently waited on, if any.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            else:
                ks = self.sim.kernel_stats
                if ks is not None:
                    ks.on_cancelled(target)
        self._target = None
        interrupt_event.add_callback(self._resume_cb)
        self.sim._enqueue(0.0, interrupt_event)

    def hand_over(self, generator: Generator) -> "Process":
        """Continue ``generator`` as a process of its own.

        ``generator`` must be one this process drives by hand
        (``send``/``throw``), suspended on the event this process waits
        for.  The new process takes this process's callback slot on that
        event, at the same list position, so the generator resumes
        exactly when it would have; no start event is scheduled.  This
        process is left waiting on nothing: interrupt it next, or it
        never resumes.
        """
        proc = Process.__new__(Process)
        SimEvent.__init__(proc, self.sim)
        proc.name = getattr(generator, "__name__", "process")
        proc._generator = generator
        proc._resume_cb = proc._resume
        target = self._target
        if target is not None:
            cbs = target.callbacks
            cbs[cbs.index(self._resume_cb)] = proc._resume_cb
        proc._target = target
        self._target = None
        return proc

    def _resume(self, event: SimEvent) -> None:
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if event._exception is not None:
                next_event = self._generator.throw(event._exception)
            else:
                next_event = self._generator.send(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self._value = stop.value
            sim._enqueue(0.0, self)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process "successfully"
            # with the interrupt cause -- the interruptor asked it to stop.
            sim._active_process = None
            self._value = exc.cause
            sim._enqueue(0.0, self)
            return
        except BaseException as exc:
            sim._active_process = None
            self._exception = exc
            self._value = None
            sim._enqueue(0.0, self)
            return
        sim._active_process = None
        if not isinstance(next_event, SimEvent):
            raise TypeError(
                f"process {self.name!r} yielded {next_event!r}; "
                "processes must yield SimEvent instances")
        if next_event.sim is not sim:
            raise RuntimeError("cannot wait on an event from another simulator")
        cbs = next_event.callbacks
        if cbs is None:  # processed: resume immediately
            # Already fired: resume immediately (at the current time).
            immediate = SimEvent(sim)
            immediate._value = next_event._value
            immediate._exception = next_event._exception
            immediate.defuse()
            immediate.add_callback(self._resume_cb)
            sim._enqueue(0.0, immediate)
            # the re-delivery holds the callback now: an interrupt must
            # detach it, or the process would resume twice
            self._target = immediate
        else:
            cbs.append(self._resume_cb)
            if next_event._exception is not None:
                next_event.defuse()
            self._target = next_event


class _Condition(SimEvent):
    """Base for AllOf/AnyOf composites."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise RuntimeError("condition mixes events from different simulators")
        self._done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.add_callback(self._check)

    def _collect(self) -> dict:
        # Only events whose callbacks have run count as "happened" for the
        # purposes of a condition result: a Timeout is *triggered* from
        # birth (it is already queued) but has not occurred yet.
        return {ev: ev._value for ev in self.events
                if ev.processed and ev._exception is None}

    def _check(self, event: SimEvent) -> None:
        raise NotImplementedError

    def _detach_losers(self) -> None:
        """Stop listening on events that did not decide the condition.

        Once the condition has triggered, ``_check`` on a late event is a
        no-op -- but the callback reference kept the condition (and its
        collected result graph) alive until every component fired.  In long
        overload episodes the abandoned backend-serve processes of timed-out
        requests accumulated exactly this garbage; dropping the callback on
        trigger lets the losers be collected as soon as they are processed.
        """
        check = self._check
        ks = self.sim.kernel_stats
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is None:
                continue
            try:
                cbs.remove(check)
            except ValueError:
                continue
            # _check used to observe (and thereby defuse) a loser's late
            # failure; keep that contract now that it no longer listens
            ev._defused = True
            if ks is not None:
                ks.on_cancelled(ev)


class AllOf(_Condition):
    """Triggers when every component event has triggered."""

    __slots__ = ()

    def _check(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            self._detach_losers()
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as one component event triggers."""

    __slots__ = ()

    def _check(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(self._collect())
        self._detach_losers()


class Injection:
    """Bookkeeping record for one scheduled fault injection.

    Created by :meth:`Simulator.add_injection`; the chaos layer
    (:mod:`repro.chaos`) reads these records to report which faults were
    applied (and reverted) during a run.
    """

    __slots__ = ("label", "at", "duration", "applied_at", "reverted_at")

    def __init__(self, label: str, at: float, duration: float):
        self.label = label
        self.at = at
        self.duration = duration
        self.applied_at: Optional[float] = None
        self.reverted_at: Optional[float] = None

    @property
    def applied(self) -> bool:
        return self.applied_at is not None

    @property
    def active(self) -> bool:
        """True between apply and revert (or forever, for one-shot faults
        registered without a revert)."""
        return self.applied and self.reverted_at is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("reverted" if self.reverted_at is not None else
                 "active" if self.applied else "pending")
        return f"<Injection {self.label!r} at={self.at} {state}>"


class Simulator:
    """The event loop: virtual clock plus a time-ordered event queue.

    The engine accepts invariant checks (see :meth:`add_invariant`):
    zero-argument callables run periodically between events, raising
    when a cross-structure coherence property (URL table vs stores, pool
    lease balance, ...) does not hold.  The hook costs nothing when no
    checks are registered.

    Fault injection uses the sibling hook :meth:`add_injection`: an
    apply/revert callable pair scheduled at virtual times, recorded on the
    engine so a chaos harness can introspect what was injected without
    monkeypatching any component.
    """

    def __init__(self):
        self._now = 0.0
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: calendar level 0: FIFO of events due at the *current* timestamp.
        #: Zero-delay enqueues land here in O(1) and drain in one batch.
        self._cur: deque[SimEvent] = deque()
        #: calendar level 1: exact-timestamp buckets (dict append is O(1))
        #: plus a heap of *distinct* pending timestamps.  Within a bucket,
        #: append order is sequence order, so events fire in (time, seq)
        #: order by construction (DESIGN §16).
        self._buckets: dict[float, list[SimEvent]] = {}
        self._times: list[float] = []
        self._pending = 0
        self._batch_n = 0
        #: the active :meth:`run` deadline; segmented holds must finish
        #: inside it (see :meth:`fits_horizon`) or stay event-accurate,
        #: else a truncated run would freeze them with boundary effects
        #: (cache access, first-burst bookkeeping) in a different state
        #: than the event path's.
        self._horizon = float("inf")
        #: recycled one-shot timeouts for :meth:`hot_timeout`
        self._timeout_pool: list[Timeout] = []
        #: registered checks as mutable [check, every, countdown] triples
        self._invariants: list[list] = []
        #: fault injections registered via :meth:`add_injection`
        self.injections: list[Injection] = []
        #: opt-in structured tracing (see :class:`repro.obs.Tracer`).
        #: Components read it once, when they are built, and guard every
        #: record on their own copy; the kernel itself never calls it.
        self.tracer: Optional[Any] = None
        #: opt-in scheduler introspection (duck-typed; see
        #: :class:`repro.obs.KernelStats`).  ``None`` disables every hook.
        #: Like the tracer, the observer is strictly passive: it never
        #: creates events, so the timeline is byte-identical off and on.
        self.kernel_stats: Optional[Any] = None
        #: opt-in windowed sampler (see :class:`repro.obs.TelemetrySampler`).
        #: Driven from :meth:`step` rather than by scheduled events, so
        #: enabling it cannot perturb ``event_count`` or the timeline.
        self.telemetry: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def fits_horizon(self, delay: float) -> bool:
        """True when an operation of ``delay`` completes within the
        active :meth:`run` deadline (events *at* the deadline fire)."""
        return self._now + delay <= self._horizon

    # -- event creation ---------------------------------------------------
    def event(self) -> SimEvent:
        """Create a pending event to be triggered manually."""
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def hot_timeout(self, delay: float) -> Timeout:
        """A pooled :class:`Timeout` for single-yield hot paths.

        The returned event is recycled by :meth:`step` immediately after it
        fires, so callers must *not* keep a reference past their ``yield``
        (no conditions, no post-hoc ``triggered`` checks).  Only the kernel
        fast paths use this; everything else goes through :meth:`timeout`.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        pool = self._timeout_pool
        ks = self.kernel_stats
        if pool:
            t = pool.pop()
            t.callbacks = []
            t._value = None
            t._exception = None
            t._defused = False
            t.delay = delay
            self._enqueue(delay, t)
            if ks is not None:
                ks.on_pool_recycle(True)
            return t
        t = Timeout(self, delay)
        t._pooled = True
        if ks is not None:
            ks.on_pool_recycle(False)
        return t

    def hot_timeout_at(self, when: float) -> Timeout:
        """A pooled :class:`Timeout` that fires at the absolute time
        ``when`` (must not be in the past).

        Segmented holds need bitwise-exact fire times -- ``(t0 + d1) + d2``
        exactly as the event-by-event path computes them; deriving a delay
        and re-adding ``now`` inside :meth:`_enqueue` would round
        differently.  Same recycling contract as :meth:`hot_timeout`.
        """
        if when < self._now:
            raise ValueError(f"fire time {when!r} is in the past")
        pool = self._timeout_pool
        ks = self.kernel_stats
        hit = bool(pool)
        if hit:
            t = pool.pop()
            t.callbacks = []
            t._value = None
            t._exception = None
            t._defused = False
        else:
            t = Timeout.__new__(Timeout)
            SimEvent.__init__(t, self)
            t._value = None
            t._pooled = True
        t.delay = when - self._now
        self._enqueue_abs(when, t)
        if ks is not None:
            ks.on_pool_recycle(hit)
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _enqueue(self, delay: float, event: SimEvent) -> None:
        self._eid += 1
        when = self._now + delay
        if when <= self._now:
            # Due at the current timestamp (zero delay, or a delay so
            # small it rounds away): straight onto the level-0 FIFO.
            self._cur.append(event)
        else:
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [event]
                heapq.heappush(self._times, when)
            else:
                bucket.append(event)
        self._pending += 1
        ks = self.kernel_stats
        if ks is not None:
            ks.on_scheduled(event, self._pending)

    def _enqueue_abs(self, when: float, event: SimEvent) -> None:
        """Schedule ``event`` at the absolute timestamp ``when``.

        :meth:`hot_timeout_at`'s back end; duplicated from
        :meth:`_enqueue` rather than delegated because the delay form is
        the kernel's hottest function.
        """
        self._eid += 1
        if when <= self._now:
            self._cur.append(event)
        else:
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [event]
                heapq.heappush(self._times, when)
            else:
                bucket.append(event)
        self._pending += 1
        ks = self.kernel_stats
        if ks is not None:
            ks.on_scheduled(event, self._pending)

    def _cancel_scheduled(self, event: SimEvent, when: float) -> bool:
        """Remove a not-yet-fired event from the calendar by handle.

        Unlike lazy tombstoning, the entry is gone immediately: it will not
        fire, not count as a batch member, and not occupy queue space.
        Returns False when the event is not found at ``when``.
        """
        if when <= self._now:
            container: Any = self._cur
        else:
            container = self._buckets.get(when)
            if container is None:
                return False
        try:
            container.remove(event)
        except ValueError:
            return False
        self._pending -= 1
        ks = self.kernel_stats
        if ks is not None:
            ks.on_cancelled(event)
        return True

    def schedule(self, delay: float, callback: Callable[[], Any]) -> SimEvent:
        """Run ``callback()`` after ``delay`` time units (fire-and-forget)."""
        ev = SimEvent(self)
        ev._value = None
        ev.add_callback(lambda _ev: callback())
        self._enqueue(delay, ev)
        return ev

    def call_later(self, delay: float, fn: Callable[[Any], Any],
                   arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay`` time units.

        Same queue position as :meth:`schedule` but no closure and no
        handle: the packet network delivers every segment this way.
        """
        self._enqueue(delay, _Call(self, fn, arg))

    # -- running -------------------------------------------------------------
    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` if the queue is empty."""
        if self._cur:
            return self._now
        times, buckets = self._times, self._buckets
        while times:
            when = times[0]
            if buckets.get(when):
                return when
            # Bucket fully cancelled: drop the stale timestamp key.
            heapq.heappop(times)
            buckets.pop(when, None)
        return float("inf")

    def idle_now(self) -> bool:
        """True when no other event is due at the current instant.

        A 0-delay event scheduled now would then fire next, so a caller
        may run its work inline instead, in the same order.
        """
        return not self._cur

    # -- debug invariants -----------------------------------------------------
    def add_invariant(self, check: Callable[[], None],
                      every: int = 1) -> None:
        """Run ``check()`` after every ``every``-th event.

        The check should raise (e.g. :class:`AssertionError`) when its
        invariant is violated, which propagates out of :meth:`run` at the
        offending event.
        """
        if every < 1:
            raise ValueError("every must be >= 1")
        self._invariants.append([check, every, every])

    # -- fault injection ------------------------------------------------------
    def add_injection(self, delay: float,
                      apply: Callable[[], None],
                      revert: Optional[Callable[[], None]] = None,
                      duration: float = 0.0,
                      label: str = "") -> Injection:
        """Schedule a fault: run ``apply()`` after ``delay`` time units and,
        when ``revert`` is given, ``revert()`` after ``delay + duration``.

        Mirrors :meth:`add_invariant`: the engine owns the registry
        (:attr:`injections`), so a chaos harness injects typed faults
        through a first-class hook instead of monkeypatching components.
        The record's ``applied_at``/``reverted_at`` stamps make the actual
        injection timeline reportable after the run.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        record = Injection(label or getattr(apply, "__name__", "fault"),
                           self._now + delay, duration)

        def _apply() -> None:
            record.applied_at = self._now
            apply()

        self.schedule(delay, _apply)
        if revert is not None:
            def _revert() -> None:
                record.reverted_at = self._now
                revert()

            self.schedule(delay + duration, _revert)
        self.injections.append(record)
        return record

    def _run_invariants(self) -> None:
        for entry in self._invariants:
            entry[2] -= 1
            if entry[2] <= 0:
                entry[2] = entry[1]
                entry[0]()

    @property
    def event_count(self) -> int:
        """Total events scheduled so far (the monotone tie-break counter)."""
        return self._eid

    @property
    def heap_depth(self) -> int:
        """Number of events currently pending in the queue."""
        return self._pending

    def _advance(self) -> bool:
        """Move the earliest non-empty bucket onto the level-0 FIFO.

        Advancing the clock closes the previous same-timestamp batch, which
        is when its size is reported to :class:`KernelStats`.
        """
        times, buckets = self._times, self._buckets
        while times:
            when = heapq.heappop(times)
            bucket = buckets.pop(when, None)
            if bucket:
                ks = self.kernel_stats
                if ks is not None and self._batch_n:
                    ks.on_batch(self._batch_n)
                self._batch_n = 0
                self._now = when
                self._cur.extend(bucket)
                return True
        return False

    def step(self) -> None:
        """Pop and fire exactly one event."""
        cur = self._cur
        if not cur:
            if not self._advance():
                raise IndexError("step() on an empty event queue")
        event = cur.popleft()
        self._pending -= 1
        self._batch_n += 1
        event._fire()
        # Recycle pooled timeouts: every waiter resumed synchronously
        # inside _fire(), so nothing can reference the event afterwards.
        if type(event) is Timeout and event._pooled:
            self._timeout_pool.append(event)
        ks = self.kernel_stats
        if ks is not None:
            ks.on_fired(event)
        tel = self.telemetry
        if tel is not None:
            tel.on_event(self._now)
        if self._invariants:
            self._run_invariants()

    def _run_calendar(self, until: Optional[float]) -> None:
        """Batched dispatch loop over the calendar queue.

        The whole bucket for a timestamp is transferred onto the level-0
        FIFO in one operation and drained — together with any zero-delay
        events its callbacks append — without re-entering the timestamp
        index between events.
        """
        cur = self._cur
        pool = self._timeout_pool
        times, buckets = self._times, self._buckets
        popleft = cur.popleft
        while True:
            # Per-batch hook snapshot: observers attach before run().
            ks = self.kernel_stats
            tel = self.telemetry
            inv = bool(self._invariants)
            if ks is None and tel is None and not inv:
                # Unobserved batch: the timed-run inner loop.  _fire() is
                # inlined (callbacks detach first, exactly as the method
                # does) and the per-event observer conditionals drop out.
                while cur:
                    event = popleft()
                    self._pending -= 1
                    cbs = event.callbacks
                    event.callbacks = None
                    if cbs:
                        for cb in cbs:
                            cb(event)
                    elif event._exception is not None and not event._defused:
                        raise event._exception
                    if type(event) is Timeout and event._pooled:
                        pool.append(event)
            else:
                while cur:
                    event = popleft()
                    self._pending -= 1
                    self._batch_n += 1
                    event._fire()
                    if type(event) is Timeout and event._pooled:
                        pool.append(event)
                    if ks is not None:
                        ks.on_fired(event)
                    if tel is not None:
                        tel.on_event(self._now)
                    if inv:
                        self._run_invariants()
            when = None
            while times:
                head = times[0]
                if buckets.get(head):
                    when = head
                    break
                heapq.heappop(times)
                buckets.pop(head, None)
            if when is None or (until is not None and when > until):
                return
            heapq.heappop(times)
            bucket = buckets.pop(when)
            if ks is not None and self._batch_n:
                ks.on_batch(self._batch_n)
            self._batch_n = 0
            self._now = when
            cur.extend(bucket)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        If ``until`` is given, the clock is advanced exactly to ``until``
        even when no event lands on that timestamp.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        self._horizon = float("inf") if until is None else until
        try:
            self._run_calendar(until)
        except StopSimulation:
            pass
        # Close the batch in flight: on_batch otherwise fires only when
        # the clock advances, which the last batch of a run never sees.
        ks = self.kernel_stats
        if ks is not None and self._batch_n:
            ks.on_batch(self._batch_n)
        self._batch_n = 0
        if until is not None:
            self._now = max(self._now, until)

    def stop(self) -> None:
        """Halt :meth:`run` from inside a callback or process."""
        raise StopSimulation()
