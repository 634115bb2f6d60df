"""The request-timeout race, run inside the submitting process.

``Frontend._backend_serve`` drives the backend serve by hand and arms one
pooled timer.  Whichever ends first decides the race:

* the serve: the timer is withdrawn from the calendar by handle, so no
  dead timer fires later;
* the timer: the serve continues as a defused background process in the
  submitter's callback slot, and the submitter raises ``RequestTimeout``
  at exactly t0 + timeout -- unless the serve finished later in that
  same instant, whose value it then returns.
"""

import pytest

from repro.cluster import BackendServer, distributor_spec, paper_testbed_specs
from repro.core import ContentAwareDistributor, OverloadConfig, UrlTable
from repro.net import HttpRequest, Lan
from repro.obs import KernelStats
from repro.sim import Simulator

TIMEOUT = 0.8
#: the race starts off the zero instant, so t0 + timeout is a real sum
T0 = 0.25


class FakeServer:
    """A backend whose serve is a scripted generator."""

    name = "fake"

    def __init__(self, script):
        self.script = script
        self.finished = []

    def serve(self, request, item):
        value = yield from self.script()
        self.finished.append(value)
        return value


def build():
    stats = KernelStats()
    sim = Simulator()
    stats.attach(sim)
    lan = Lan(sim)
    spec = paper_testbed_specs()[0]
    servers = {spec.name: BackendServer(sim, lan, spec)}
    dist = ContentAwareDistributor(
        sim, lan, distributor_spec(), servers, UrlTable(),
        overload=OverloadConfig(request_timeout=TIMEOUT))
    return sim, stats, dist


def race(sim, dist, server, log):
    """Start one race at T0 in its own process; log how it ended."""

    def submitter():
        yield sim.timeout(T0)
        try:
            value = yield from dist._backend_serve(
                server, HttpRequest("/x.html"), None)
        except Exception as exc:
            log.append((sim.now, type(exc).__name__))
        else:
            log.append((sim.now, value))

    sim.process(submitter())


class TestServeWins:
    def test_timer_is_withdrawn_and_nothing_fires_later(self):
        sim, stats, dist = build()
        sim.run()
        baseline = sim.heap_depth

        def script():
            yield sim.timeout(0.1)
            return "response"

        log = []
        race(sim, dist, FakeServer(script), log)
        sim.run()
        assert log == [(T0 + 0.1, "response")]
        # the clock stopped at the answer: no timer was left to fire
        assert sim.now == T0 + 0.1
        assert sim.heap_depth == baseline
        assert stats.cancelled == {"Timeout": 1}
        assert dist.metrics.counter("overload/timeout").count == 0

    def test_failing_serve_raises_its_own_error(self):
        sim, stats, dist = build()

        def script():
            yield sim.timeout(0.1)
            raise ValueError("backend crashed")

        log = []
        race(sim, dist, FakeServer(script), log)
        sim.run()
        assert log == [(T0 + 0.1, "ValueError")]
        assert sim.now == T0 + 0.1
        assert stats.cancelled == {"Timeout": 1}


    def test_serve_ending_in_the_deadline_instant_waits_for_the_timer(self):
        """The serve's wake-up shares the deadline's instant but fires
        before the timer.  The still-due timer then fires first of the
        two completions and decides where the submitter resumes: at the
        tail of the instant as the timer fires, ahead of anything a later
        same-instant event schedules."""
        sim, _stats, dist = build()
        early = sim.timeout(T0 + TIMEOUT)  # queued ahead of the race timer
        log = []

        def script():
            yield early
            return "just in time"

        def bystander():
            # lands behind the race timer in the deadline's instant
            yield sim.timeout(T0)
            sim.schedule(TIMEOUT, lambda: (
                log.append("bystander"),
                sim.schedule(0.0, lambda: log.append("later"))))

        race(sim, dist, FakeServer(script), log)
        sim.process(bystander())
        sim.run()
        assert log == ["bystander", (T0 + TIMEOUT, "just in time"), "later"]
        assert dist.metrics.counter("overload/timeout").count == 0


class TestTimerWins:
    def test_timeout_at_exact_deadline_and_serve_drains(self):
        sim, stats, dist = build()

        def script():
            yield sim.timeout(2.0)
            return "late"

        server = FakeServer(script)
        log = []
        race(sim, dist, server, log)
        sim.run()
        assert log == [(T0 + TIMEOUT, "RequestTimeout")]
        # the abandoned serve completed in the background
        assert server.finished == ["late"]
        assert sim.now == T0 + 2.0
        assert dist.metrics.counter("overload/timeout").count == 1
        assert not stats.cancelled

    def test_late_failure_in_abandoned_serve_does_not_raise(self):
        sim, _stats, dist = build()

        def script():
            yield sim.timeout(2.0)
            raise ValueError("failed after the deadline")

        log = []
        race(sim, dist, FakeServer(script), log)
        sim.run()  # the background serve is defused
        assert log == [(T0 + TIMEOUT, "RequestTimeout")]
        assert sim.now == T0 + 2.0

    def test_serve_ending_just_after_the_timer_returns_its_value(self):
        """The serve's wake-up shares the timer's instant but was
        scheduled after it: the timer fires first, the serve finishes in
        the same instant, and its value wins over the timeout."""
        sim, _stats, dist = build()

        def script():
            yield sim.timeout(TIMEOUT)  # lands behind the race timer
            return "photo finish"

        log = []
        race(sim, dist, FakeServer(script), log)
        sim.run()
        assert log == [(T0 + TIMEOUT, "photo finish")]
        assert dist.metrics.counter("overload/timeout").count == 0


def test_race_needs_a_process():
    """The timer interrupts the submitter, so there must be one."""
    _sim, _stats, dist = build()
    serve = dist._backend_serve(FakeServer(lambda: iter(())),
                                HttpRequest("/x.html"), None)
    with pytest.raises(RuntimeError, match="needs a process"):
        next(serve)
