"""Traced runs that no other fixture pins, pinned byte for byte.

The overload episode's trace, the partition-ca cell and the splicer
trace are pinned elsewhere, and the chaos and promotion traces are
pinned beside those episodes' reports.  These digests cover the rest of
the traced surface, so the way components find their tracer can change
without moving a recorded event:

* a recovery episode crashed at WAL boundary 13: the controller's
  crash, restart and replay points;
* one traced cell each on the L4 router (Workload B), the NFS scheme
  and the LARD router.

Each digest is the sha256 of one tracer's JSONL export.
"""

import pytest

from repro.experiments import (ExperimentConfig, build_deployment,
                               run_recovery_episode)
from repro.mgmt.durability import CrashPlan
from repro.workload import WORKLOAD_A, WORKLOAD_B

pytestmark = pytest.mark.usefixtures("fresh_counters")

#: the traced cells: scheme -> workload
CELLS = {"replication-l4": WORKLOAD_B, "nfs-l4": WORKLOAD_A,
         "replication-lard": WORKLOAD_A}
CELL = dict(seed=7, n_objects=150, warmup=0.5, duration=1.5,
            n_client_machines=4, trace=True)
CELL_CLIENTS = 6

GOLDEN = {
    "recovery": [
        "afe208e7a0669737896a98954dde6c5f090a242e0135c68ba383c54964790c69",
    ],
    "replication-l4": [
        "759229065d4256e0333c041575d82d92b37bb07f4ed76b478c00602e4a9f3ca1",
    ],
    "nfs-l4": [
        "608352af6f355943e0393efec56069f8d7c4c844cc0c869e80aeef79f233202d",
    ],
    "replication-lard": [
        "862a78db90d7edba3794ada73de8be17edea73fdd98498a49901aecc8856ee36",
    ],
}


def test_recovery_episode_trace_is_pinned(trace_digests):
    outcome = run_recovery_episode(1, crash_plan=CrashPlan(at_boundary=13),
                                   trace=True)
    assert outcome["crashed"] and outcome["converged"]
    assert trace_digests() == GOLDEN["recovery"]


@pytest.mark.parametrize("scheme", sorted(CELLS))
def test_cell_trace_is_pinned(scheme, trace_digests):
    deployment = build_deployment(ExperimentConfig(
        scheme=scheme, workload=CELLS[scheme], **CELL))
    summary = deployment.run(CELL_CLIENTS)
    assert summary["completed"] > 0
    assert trace_digests() == GOLDEN[scheme]
