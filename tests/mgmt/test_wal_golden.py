"""The management plane's durable state, pinned byte for byte.

The recovery episode runs a scripted management workload on a
WAL-backed controller; the promotion episode kills the primary
distributor and the controller halfway through a placement.  These
digests pin, for every run of each family, what the durable layer and
the routing tables end up holding:

* every WAL record (``to_dict()``) and the last checkpoint;
* the URL table (``snapshot_records``) and its ``version``;
* the document tree, rendered in full;
* the episode's outcome dict.

The families are the recovery episode for seeds 1 and 2 (the baseline,
then a crash at each of its boundaries) and the promotion episode at
11 crash instants spread evenly over the placement's dispatch-to-ack
window.  The durability object is captured by wrapping
:meth:`ControllerDurability.attach`.
"""

import hashlib
import json

import pytest

from repro.experiments import run_promotion_episode, run_recovery_episode
from repro.experiments.sweep.targets import reset_process_counters
from repro.mgmt import ControllerDurability, CrashPlan
from repro.mgmt.durability import snapshot_records

pytestmark = [pytest.mark.recovery,
              pytest.mark.usefixtures("fresh_counters")]

GOLDEN_RECOVERY = {
    1: "1e2c97765f34beb752133c46401968481f9e56ed31ce10977a98e27e8433aed1",
    2: "59b2004506417e8ef3c8bb3241db9a8a405683dde6e6e7d1a097b5e496d7d465",
}

GOLDEN_PROMOTION = (
    "2450b59d239efc8a11aec6b2caea48f9d2d437b32ade1a1c68b943247d697e2f")


@pytest.fixture
def attached(monkeypatch):
    """Every :class:`ControllerDurability` attached during the test."""
    built = []
    attach = ControllerDurability.attach

    def capture(self, controller):
        built.append(self)
        return attach(self, controller)

    monkeypatch.setattr(ControllerDurability, "attach", capture)
    return built


def run_state(durability, outcome) -> dict:
    controller = durability.controller
    return {
        "wal": [record.to_dict() for record in durability.wal.records],
        "checkpoint": durability.wal.checkpoint,
        "records": snapshot_records(controller.url_table),
        "tree": controller.doctree.render("/", max_entries=10**6),
        "version": controller.url_table.version,
        "outcome": outcome,
    }


def digest(runs) -> str:
    return hashlib.sha256(json.dumps(runs, sort_keys=True,
                                     default=repr).encode()).hexdigest()


def run(attached, episode, *args, **kwargs) -> dict:
    reset_process_counters()
    outcome = episode(*args, **kwargs)
    return run_state(attached[-1], outcome)


@pytest.mark.parametrize("seed", sorted(GOLDEN_RECOVERY))
def test_recovery_runs_are_pinned(attached, seed):
    baseline = run(attached, run_recovery_episode, seed)
    assert baseline["outcome"]["converged"]
    runs = [baseline]
    boundaries = baseline["outcome"]["boundaries"]
    assert boundaries == 61
    for boundary in range(1, boundaries + 1):
        runs.append(run(attached, run_recovery_episode, seed,
                        crash_plan=CrashPlan(at_boundary=boundary)))
    assert len(attached) == boundaries + 1
    assert digest(runs) == GOLDEN_RECOVERY[seed]


def test_promotion_runs_are_pinned(attached):
    baseline = run(attached, run_promotion_episode, None)
    lo = baseline["outcome"]["dispatched_at"]
    hi = baseline["outcome"]["acked_at"]
    runs = [run(attached, run_promotion_episode, lo + (hi - lo) * k / 10)
            for k in range(11)]
    assert all(state["outcome"]["atomic"] for state in runs)
    assert digest(runs) == GOLDEN_PROMOTION
