"""Same-instant ordering of the request path, pinned byte for byte.

Closed-loop clients submit inline, and a request-timeout race drives its
backend serve inside the submitting process.  Each 0-delay hop that a
spawned process or a condition used to cost (a spawn's ``_Initialize``,
a process's completion event, an ``AnyOf`` trigger) is taken only when
something else is due at the same instant, so every simulated output
must be exactly what the process-driven path produced.  These tests
pin that where the request path is most fragile:

* seeded overload episodes: admission queueing, request timeouts racing
  slow disks, replica retries, HA heartbeats and flash-crowd clients
  drained mid-run;
* a closed-loop cell stopped while requests are in flight and then
  left to settle, where the stopped requests still finish at the
  backend but reach no client record.

The golden digests cover the outcome table, the client-side completion
and error timelines and the trace JSONL; they were recorded with the
process-driven request path.
"""

import hashlib
import itertools
import json

import pytest

from repro.core import conn_pool, frontend
from repro.experiments import ExperimentConfig, build_deployment
from repro.experiments.chaos import run_overload_episode
from repro.mgmt import messages
from repro.net import http
from repro.obs import to_jsonl
from repro.workload import WORKLOAD_A, WebBenchRig

#: short enough for tier-1, long enough for some requests to time out
EPISODE = dict(duration=2.5, clients=6, n_objects=150, settle=1.5)
#: the pinned episodes whose race timer beats a slow serve
TIMEOUT_SEEDS = {1, 2, 4}

GOLDEN_EPISODES = {
    0: "f1f3d6bf22414ddfe9168718608beaba64db8c953028d241c52b4ef3902a48f4",
    1: "63bd021f4d31e9de17ec722b78b3633a865c71ecb05d0b1bd89a96a559dcdc5b",
    2: "40f6ec0cb6a32da3bea64523377cbe29bc65fa14f326fcd41c1dcad109ac7724",
    3: "757cf5b20959b1707d334300e96ad32b3231011c5d122aaf6142ed2ef980efe1",
    4: "6bcca61e8e424c96bcc8da77bf8e3ad1edd75bb3200c37d3ba4c09430f28e6fe",
}

#: stop the load at 1.0 s, with requests in flight, then settle to 1.5 s
CELL = dict(scheme="partition-ca", workload=WORKLOAD_A, seed=7,
            duration=1.0, warmup=0.25, n_objects=150, n_client_machines=4,
            trace=True)
CELL_CLIENTS = 12
CELL_SETTLE = 0.5

GOLDEN_STOPPED_CELL = (
    "8540070e48531a17d09668cf44fdd8952eb089245ed4f9679c6cdaad512047d6")


def _reset_process_counters() -> None:
    """Rewind the id counters, so the trace JSONL does not depend on
    what ran earlier in the same interpreter."""
    http._request_ids = itertools.count(1)
    messages._dispatch_ids = itertools.count(1)
    conn_pool._conn_ids = itertools.count(1)
    frontend._client_ports = itertools.count(40000)


#: module-level id counters that label trace attributes
COUNTERS = [(http, "_request_ids"), (messages, "_dispatch_ids"),
            (conn_pool, "_conn_ids"), (frontend, "_client_ports")]


@pytest.fixture(autouse=True)
def _restore_counters(monkeypatch):
    for module, name in COUNTERS:
        monkeypatch.setattr(module, name, getattr(module, name))


@pytest.fixture
def timelines(monkeypatch):
    """Record every client-side completion and error, in order."""
    completions, errors = [], []
    record_completion = WebBenchRig.record_completion
    record_error = WebBenchRig.record_error

    def completion(rig, request, outcome):
        record_completion(rig, request, outcome)
        resp = outcome.response
        completions.append([rig.sim.now, request.url, outcome.latency,
                            resp.content_length, resp.served_by])

    def error(rig, now, status=None):
        record_error(rig, now, status=status)
        errors.append([now, status])

    monkeypatch.setattr(WebBenchRig, "record_completion", completion)
    monkeypatch.setattr(WebBenchRig, "record_error", error)
    return completions, errors


def digest(run: dict) -> str:
    return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()


def run_episode(seed: int, timelines) -> dict:
    _reset_process_counters()
    result = run_overload_episode(seed=seed, trace=True, **EPISODE)
    completions, errors = timelines
    return {
        "report": result.report(),
        "completions": completions,
        "errors": errors,
        "trace": to_jsonl(result.tracer),
        "timeouts": result.timeouts,
    }


def run_stopped_cell(timelines) -> dict:
    _reset_process_counters()
    dep = build_deployment(ExperimentConfig(**CELL))
    summary = dep.run(CELL_CLIENTS)
    fe = dep.frontend
    in_flight = fe.inflight
    served = fe.meter.completions
    dep.sim.run(until=CELL["duration"] + CELL_SETTLE)
    completions, errors = timelines
    return {
        "summary": summary,
        "in_flight_at_stop": in_flight,
        "served_after_stop": fe.meter.completions - served,
        "completions": completions,
        "errors": errors,
        "metrics": fe.metrics.snapshot(dep.sim.now),
        "open_entries": len(fe.mapping),
        "leased": sum(pool.leased_count
                      for pool in fe.pools.pools().values()),
        "trace": to_jsonl(dep.sim.tracer),
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN_EPISODES))
def test_overload_episode_matches_process_driven_path(seed, timelines):
    run = run_episode(seed, timelines)
    assert run["completions"]
    assert (run["timeouts"] > 0) == (seed in TIMEOUT_SEEDS)
    assert digest(run) == GOLDEN_EPISODES[seed]


def test_stopped_cell_matches_process_driven_path(timelines):
    run = run_stopped_cell(timelines)
    # requests were in flight at the stop, finished at the front end
    # afterwards, and none of them reached a client record
    assert run["in_flight_at_stop"] > 0
    assert run["served_after_stop"] > 0
    assert all(c[0] <= CELL["duration"] for c in run["completions"])
    assert run["open_entries"] == 0 and run["leased"] == 0
    assert digest(run) == GOLDEN_STOPPED_CELL
