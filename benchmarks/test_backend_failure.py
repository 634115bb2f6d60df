"""Ablation: backend failure under live load, end to end.

A backend dies mid-run.  The broker stops answering status probes, the
cluster monitor (§3.1's monitoring loop) marks the node down in the
distributor's routing view, and re-replicates documents that still have a
surviving copy.  Replicated (critical) content stays available; documents
whose only copy lived on the dead node return errors until it recovers --
exactly the §1.2 trade-off between partitioning and replication.
"""

from conftest import emit
from repro.core import AutoReplicator, LoadAccountant
from repro.experiments import ExperimentConfig, build_deployment
from repro.mgmt import ClusterMonitor
from repro.workload import WORKLOAD_A

CRASH_AT = 5.0
RECOVER_AT = 11.0
DURATION = 16.0


def run_failure_drill(clients=50):
    config = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                              duration=DURATION, warmup=2.0, seed=42,
                              n_objects=2500)
    deployment = build_deployment(config)
    sim = deployment.sim
    controller, _ = deployment.management_plane()
    monitor = ClusterMonitor(sim, controller, deployment.frontend.view,
                             interval=0.5, misses_to_fail=2)
    monitor.start()
    victim = "s350-1"
    sim.schedule(CRASH_AT, deployment.servers[victim].crash)
    sim.schedule(RECOVER_AT, deployment.servers[victim].recover)
    summary = deployment.run(clients)
    monitor.stop()
    kinds = [e.kind for e in monitor.events]
    return {
        "summary": summary,
        "monitor": monitor,
        "victim": victim,
        "kinds": kinds,
        "down_at": next(e.at for e in monitor.events if e.kind == "down"),
        "re_replications": kinds.count("re-replicated"),
        "lost": kinds.count("lost"),
        "errors": summary["errors"],
        "throughput": summary["throughput_rps"],
    }


class TestBackendFailure:
    def test_monitor_contains_the_failure(self, benchmark):
        result = benchmark.pedantic(run_failure_drill, rounds=1,
                                    iterations=1)
        from collections import Counter
        counts = dict(Counter(result["kinds"]))
        emit("Ablation: backend failure under load (crash t=5 s, "
             "recover t=11 s)\n"
             f"  detected down at t={result['down_at']:.2f}s; "
             f"event counts={counts}\n"
             f"  re-replicated={result['re_replications']} documents, "
             f"single-copy lost={result['lost']}\n"
             f"  client errors={result['errors']}, overall throughput "
             f"{result['throughput']:.1f} req/s")
        # detection happened within a couple of monitor rounds
        assert CRASH_AT <= result["down_at"] <= CRASH_AT + 2.5
        # the node came back and was marked up again
        assert "up" in result["kinds"]
        # replicated (critical) content was re-protected on survivors
        assert result["re_replications"] > 0
        # partition-without-replication loses single-copy documents --
        # the §1.2 trade-off made visible
        assert result["lost"] > 0
        # but the cluster kept serving: errors (failed requests for the
        # victim's single-copy content during its 6 s outage) stay a small
        # fraction of the traffic
        completed = result["summary"]["completed"]
        assert completed > 7 * result["errors"]
