"""Ablations promised in DESIGN.md §5: auto-replication threshold
sensitivity, and the §3.3 load-metric constants vs naive balancing.

1. **Threshold sensitivity** -- §3.3 declares a node overloaded when L_j
   exceeds the cluster average "by a threshold" but never says by how
   much.  Sweeping the threshold shows the trade-off: a tight threshold
   reacts to noise (many actions), a loose one never reacts at all.
2. **Load metric as a routing signal** -- the paper computes l_i with
   heuristic constants (static 1/9, dynamic 10/5) and says "a somewhat
   heuristic constant that makes intuitive sense works well".  We compare
   replica selection driven by the accumulated L_j metric against plain
   weighted connection counting on a replicated hot set with mixed
   dynamic/static traffic.
"""

import statistics

from conftest import emit
from repro.core import (AutoReplicator, LoadAccountant, LoadAwareReplica,
                        WeightedLeastConnection)
from repro.experiments import ExperimentConfig, build_deployment
from repro.workload import WORKLOAD_A, WORKLOAD_B, WorkloadSpec

HOTSPOT = WorkloadSpec(
    name="hotspot-threshold",
    catalog_mix=WORKLOAD_A.catalog_mix,
    request_mix=WORKLOAD_A.request_mix,
    zipf_alpha=1.30,
    n_objects=3000,
)


def run_threshold(threshold: float, duration=14.0, warmup=3.0, clients=50):
    config = ExperimentConfig(scheme="partition-ca", workload=HOTSPOT,
                              duration=duration, warmup=warmup, seed=42)
    deployment = build_deployment(config)
    accountant = LoadAccountant(
        {n: s.spec.weight for n, s in deployment.servers.items()})
    deployment.frontend.on_response = accountant.record
    controller, _ = deployment.management_plane()
    replicator = AutoReplicator(deployment.sim, accountant,
                                deployment.url_table, controller,
                                interval=1.5, threshold=threshold,
                                max_actions_per_interval=3)
    replicator.start()
    summary = deployment.run(clients)
    served = [s.meter.completions for s in deployment.servers.values()]
    mean = statistics.mean(served)
    return {
        "throughput": summary["throughput_rps"],
        "imbalance": statistics.pstdev(served) / mean if mean else 0.0,
        "actions": len(replicator.history),
    }


def run_replica_metric(policy_name: str, duration=12.0, warmup=3.0,
                       clients=60):
    config = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_B,
                              duration=duration, warmup=warmup, seed=42,
                              n_objects=3000)
    deployment = build_deployment(config)
    # replicate the hottest static documents cluster-wide so replica
    # *selection* is exercised against background dynamic traffic
    hot = sorted(deployment.catalog.static_items(),
                 key=lambda i: i.size_bytes)[:40]
    for item in hot:
        for node, server in deployment.servers.items():
            if not server.holds(item.path):
                server.place(item)
                server.cache.admit(item.path, item.size_bytes)
            if node not in deployment.url_table.locations(item.path):
                deployment.url_table.add_location(item.path, node)
    accountant = LoadAccountant(
        {n: s.spec.weight for n, s in deployment.servers.items()})
    deployment.frontend.on_response = accountant.record
    if policy_name == "load-metric":
        deployment.frontend.policy = LoadAwareReplica(accountant)
    else:
        deployment.frontend.policy = WeightedLeastConnection()
    return deployment.run(clients)["throughput_rps"]


class TestThresholdSensitivity:
    def test_threshold_sweep(self, benchmark):
        thresholds = (0.15, 0.30, 0.60, 1.50)
        results = benchmark.pedantic(
            lambda: {t: run_threshold(t) for t in thresholds},
            rounds=1, iterations=1)
        lines = ["Ablation: §3.3 overload-threshold sensitivity "
                 "(hot-spot workload)"]
        for t, r in results.items():
            lines.append(f"  threshold {t:4.2f}: {r['throughput']:7.1f} "
                         f"req/s, imbalance CV={r['imbalance']:.2f}, "
                         f"actions={r['actions']}")
        emit("\n".join(lines))
        # tighter thresholds act more
        actions = [results[t]["actions"] for t in thresholds]
        assert all(a >= b for a, b in zip(actions, actions[1:])), actions
        # a very loose threshold effectively disables rebalancing, and the
        # hot spot costs real throughput
        assert results[1.50]["actions"] < results[0.15]["actions"]
        assert results[0.30]["throughput"] > 1.2 * results[1.50]["throughput"]


class TestLoadMetricRouting:
    def test_load_metric_vs_connection_counting(self, benchmark):
        results = benchmark.pedantic(
            lambda: {
                "load-metric": run_replica_metric("load-metric"),
                "connections": run_replica_metric("connections"),
            }, rounds=1, iterations=1)
        emit("Ablation: §3.3 load metric as the replica-selection signal\n"
             f"  L_j (1/9, 10/5 weights): {results['load-metric']:7.1f} "
             f"req/s\n"
             f"  weighted conn counting:  {results['connections']:7.1f} "
             f"req/s")
        # the paper's claim is modest ("works well"): the metric must be
        # competitive with connection counting, not necessarily better
        assert results["load-metric"] > 0.85 * results["connections"]
