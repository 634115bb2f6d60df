"""§3.3 ablation: the auto-replication facility under a hot-spot workload.

"The dispersing content approach could lead to load imbalance derived from
the access skew among the documents. ... we implement an auto-replication
facility to further ensure an even load distribution."

A strongly Zipf-skewed static workload concentrates load on the few nodes
holding the hottest documents.  With the auto-replicator running, popular
content is copied to underutilized nodes (and the URL table updated), so
the distributor can spread replica load; the per-node load imbalance must
drop and throughput must not regress.
"""

import statistics

from conftest import emit
from repro.content import ContentType
from repro.core import AutoReplicator, LoadAccountant
from repro.experiments import ExperimentConfig, build_deployment
from repro.workload import WORKLOAD_A, WorkloadSpec

HOTSPOT = WorkloadSpec(
    name="hotspot",
    catalog_mix=WORKLOAD_A.catalog_mix,
    request_mix=WORKLOAD_A.request_mix,
    zipf_alpha=1.30,          # much hotter than A's 0.45: a few documents
    n_objects=3000,           # dominate, pinning their home nodes
)


def run_cell(auto_replicate: bool, duration=16.0, warmup=4.0, clients=60):
    config = ExperimentConfig(scheme="partition-ca", workload=HOTSPOT,
                              duration=duration, warmup=warmup, seed=42)
    deployment = build_deployment(config)
    frontend = deployment.frontend
    accountant = LoadAccountant(
        {name: srv.spec.weight for name, srv in deployment.servers.items()})
    frontend.on_response = accountant.record
    replicator = None
    if auto_replicate:
        controller, _ = deployment.management_plane()
        replicator = AutoReplicator(
            deployment.sim, accountant, deployment.url_table, controller,
            interval=1.5, threshold=0.30, max_actions_per_interval=3)
        replicator.start()
    summary = deployment.run(clients)
    served = [srv.meter.completions
              for srv in deployment.servers.values()]
    mean = statistics.mean(served)
    imbalance = (statistics.pstdev(served) / mean) if mean else 0.0
    return {
        "throughput": summary["throughput_rps"],
        "imbalance_cv": imbalance,
        "max_over_mean": max(served) / mean if mean else 0.0,
        "actions": len(replicator.history) if replicator else 0,
        "served": served,
    }


class TestAutoReplication:
    def test_autoreplication_evens_load(self, benchmark):
        results = benchmark.pedantic(
            lambda: {"off": run_cell(False), "on": run_cell(True)},
            rounds=1, iterations=1)
        off, on = results["off"], results["on"]
        emit("Ablation: §3.3 auto-replication under a hot-spot workload\n"
             f"  off: {off['throughput']:7.1f} req/s  "
             f"imbalance CV={off['imbalance_cv']:.2f}  "
             f"max/mean={off['max_over_mean']:.2f}\n"
             f"  on:  {on['throughput']:7.1f} req/s  "
             f"imbalance CV={on['imbalance_cv']:.2f}  "
             f"max/mean={on['max_over_mean']:.2f}  "
             f"(actions={on['actions']})")
        assert on["actions"] >= 2, "replicator must have acted"
        assert on["imbalance_cv"] < off["imbalance_cv"], \
            "auto-replication must reduce load imbalance"
        assert on["throughput"] > 0.9 * off["throughput"], \
            "auto-replication must not cost meaningful throughput"
