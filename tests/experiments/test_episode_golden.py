"""The HA episodes' outputs, pinned byte for byte.

The chaos episodes, the overload episode and the promotion episode all
run on the §2.3 primary/backup distributor beside the §3.1 management
plane.  These digests pin what each of them reports, so the way that
testbed is wired can change without moving a simulated byte:

* three traced chaos episodes with telemetry: the runner's report,
  each episode's SLO verdicts and telemetry summary, and each episode's
  trace (the backup serving after a primary crash, the monitor's
  verdicts, the fault points and the management plane's dispatches);
* the overload episode with overload control off, for two seeds: the
  report and the kernel event count.  At this scale both end with
  clients still in flight after the 2.5 s settle window (they drain by
  5 s); the pin covers that slow drain too;
* the promotion episode with no crash, and with the primary and the
  controller killed halfway through the placement's dispatch; the
  crashed run is traced, and its trace (the takeover and the recovery
  that follows it) is pinned too.

The chaos and overload runs also pin each controller's final URL table,
document tree and operation log (the ``table_digests`` fixture), so the
management plane's routing mutations cannot drift unseen.

A trace digest is the sha256 of the tracer's JSONL export.
"""

import hashlib
import json

import pytest

from repro.experiments import ChaosRunner, run_promotion_episode
from repro.experiments.chaos import run_overload_episode
from repro.experiments.sweep.targets import reset_process_counters

pytestmark = pytest.mark.usefixtures("fresh_counters")

CHAOS = dict(seed=1, episodes=3, duration=3.0, clients=6, n_objects=150,
             settle=1.5, trace=True, telemetry=0.5)

GOLDEN_CHAOS = (
    "323774715c01a541af256953644dec6f3f9c24b1c5e92a8bafeb9448f2668c83")

GOLDEN_CHAOS_TRACES = [
    "33d74515e800216334b1db76c10cf258ba6ce4939564c09279505e29a5652c61",
    "b2c850512cd80f98ddffff09dfd86b0ee4fb67602016093aa2b2e203ee120df3",
    "c7622b087cb4c8f5de5215f3f841762ceac0e5a6e58e32f43192803ac10da398",
]

GOLDEN_CHAOS_TABLES = [
    "2f2ba57e379cc432f385fa53337899131a4375f960f8e7c081c1f3471207e426",
    "4d71310caf2adbb3dc5e4c57734498b909378eac4914c36cad32f31b10dc2ca1",
    "77bf62209a67836a54f1bfcea974e0fb44ad88dc24ae13cf97d0663983b9ead6",
]

GOLDEN_OVERLOAD = {
    1: "fc61b8f7aaa54d6c7de46cd22625c424e9fdc245da50ed1b5a6a6370a381d0aa",
    11: "67e45e5e22a78fb789e3ebce252109971b2bcc1fbfde542531acbdecf9098dac",
}

GOLDEN_OVERLOAD_TABLES = {
    1: "e7e4a0c6bca913240aca946fe48c6283e737346d7cf2f760b8eb1ee8264b7af4",
    11: "c289df59930da473bd1eb74290be5b06ab9555a59df95a527a341db2e0a5bec6",
}

GOLDEN_PROMOTION = {
    "baseline":
        "1c4b776cdd5ce21892db81d7b91ca22b84986de2fbd041ee04aa6bf4de3b4e12",
    "mid-dispatch":
        "0b2df64608f84cd9479a3434e89635af54fa3b1f15a0d4ab0d62915b8281979c",
    "mid-dispatch trace":
        "520f56ddcb5a6d6b1fdfed5a23d252875bb55e3a1a09c417f2a38cb9236f3800",
}


def digest(run) -> str:
    return hashlib.sha256(json.dumps(run, sort_keys=True,
                                     default=repr).encode()).hexdigest()


def test_chaos_episodes_are_pinned(trace_digests, table_digests):
    runner = ChaosRunner(**CHAOS)
    results = runner.run()
    assert runner.all_survived, runner.report()
    assert all(r.telemetry_summary and r.slo_results for r in results)
    run = {
        "report": runner.report(),
        "episodes": [{"slo_results": r.slo_results,
                      "telemetry_summary": r.telemetry_summary}
                     for r in results],
    }
    assert digest(run) == GOLDEN_CHAOS
    assert trace_digests() == GOLDEN_CHAOS_TRACES
    assert table_digests() == GOLDEN_CHAOS_TABLES


@pytest.mark.parametrize("seed", sorted(GOLDEN_OVERLOAD))
def test_unprotected_overload_episode_is_pinned(seed, table_digests):
    result = run_overload_episode(seed=seed, duration=3.0, enabled=False)
    assert result.completed > 0
    assert result.stuck_clients  # slow drain at this scale
    run = {"report": result.report(), "events": result.events}
    assert digest(run) == GOLDEN_OVERLOAD[seed]
    assert table_digests() == [GOLDEN_OVERLOAD_TABLES[seed]]


def test_promotion_episodes_are_pinned(trace_digests):
    baseline = run_promotion_episode(None)
    assert baseline["placed"] and not baseline["promoted"]
    assert trace_digests() == []
    reset_process_counters()
    crash_at = (baseline["dispatched_at"] + baseline["acked_at"]) / 2
    crashed = run_promotion_episode(crash_at, trace=True)
    assert crashed["promoted"] and crashed["atomic"]
    assert digest(baseline) == GOLDEN_PROMOTION["baseline"]
    assert digest(crashed) == GOLDEN_PROMOTION["mid-dispatch"]
    assert trace_digests() == [GOLDEN_PROMOTION["mid-dispatch trace"]]
