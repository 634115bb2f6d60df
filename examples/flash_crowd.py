"""Flash crowd: two defence layers against a sudden demand spike, live.

Act 1 -- §3.3 auto-replication dissolving a hot spot.  A handful of
documents suddenly dominate the request stream, overloading the nodes
that hold them.  The distributor's load accountant (l_i = (load_CPU +
load_Disk) x processing_time, L_j per §3.3) flags the imbalance; the
controller ships CopyAgents to underutilized nodes; the URL table picks
up the new replicas and the distributor spreads the load.

Act 2 -- overload control riding out a 4x client burst.  Replication
takes seconds; a flash crowd arrives in milliseconds.  The distributor's
admission control sheds the excess with clean 503 + Retry-After responses
while a concurrent disk slowdown trips that node's circuit breaker, and
both heal before the episode ends.

Run:  python examples/flash_crowd.py
"""

import statistics

from repro.core import AutoReplicator, LoadAccountant
from repro.experiments import ExperimentConfig, build_deployment
from repro.workload import WORKLOAD_A, WorkloadSpec

FLASH = WorkloadSpec(
    name="flash-crowd",
    catalog_mix=WORKLOAD_A.catalog_mix,
    request_mix=WORKLOAD_A.request_mix,
    zipf_alpha=1.4,           # extreme skew: a flash crowd on a few pages
    n_objects=2000,
)


def imbalance(servers):
    served = [s.meter.completions for s in servers.values()]
    mean = statistics.mean(served)
    return statistics.pstdev(served) / mean if mean else 0.0


def run(auto: bool):
    config = ExperimentConfig(scheme="partition-ca", workload=FLASH,
                              duration=14.0, warmup=3.0, seed=42)
    deployment = build_deployment(config)
    accountant = LoadAccountant(
        {n: s.spec.weight for n, s in deployment.servers.items()})
    deployment.frontend.on_response = accountant.record
    replicator = None
    if auto:
        controller, _ = deployment.management_plane()
        replicator = AutoReplicator(
            deployment.sim, accountant, deployment.url_table, controller,
            interval=1.5, threshold=0.30, max_actions_per_interval=3)
        replicator.start()
    summary = deployment.run(50)
    return deployment, summary, replicator


def main():
    dep_off, sum_off, _ = run(auto=False)
    dep_on, sum_on, replicator = run(auto=True)

    print("Flash crowd on a partitioned cluster (50 WebBench clients):\n")
    print(f"  without auto-replication: {sum_off['throughput_rps']:7.1f} "
          f"req/s, load imbalance CV = {imbalance(dep_off.servers):.2f}")
    print(f"  with    auto-replication: {sum_on['throughput_rps']:7.1f} "
          f"req/s, load imbalance CV = {imbalance(dep_on.servers):.2f}")
    print(f"\nRebalancing actions taken ({len(replicator.history)}):")
    for action in replicator.history[:12]:
        print(f"  t={action.at:5.2f}s {action.kind:9s} {action.path} "
              f"-> {action.node}")
    if len(replicator.history) > 12:
        print(f"  ... and {len(replicator.history) - 12} more")
    assert imbalance(dep_on.servers) < imbalance(dep_off.servers)
    print("\nOK: the hot spot was dissolved by automatic replication")

    overload_act()


def overload_act():
    """Act 2: shedding + circuit breakers under a 4x burst + slow disk."""
    from repro.experiments.chaos import run_overload_episode

    print("\nFlash crowd, act 2: a 4x client burst with a concurrent disk "
          "slowdown,\nthis time absorbed by the overload-control layer:\n")
    result = run_overload_episode(seed=1)
    print(f"  completed {result.completed} requests "
          f"({result.goodput:.0f} req/s goodput)")
    print(f"  shed {result.shed} excess requests with a clean "
          f"503 + Retry-After")
    print(f"  {result.timeouts} backend timeouts tripped "
          f"{result.breaker_opened} circuit breaker(s); "
          f"{result.breaker_reclosed} re-closed after probing")
    print(f"  admission window never exceeded: peak inflight "
          f"{result.admission_peak_inflight}/"
          f"{result.config.max_inflight}, peak queue "
          f"{result.admission_peak_queue}/{result.config.max_queue}")
    assert result.survived, result.failure_summary()
    assert result.shed > 0 and result.breaker_opened > 0
    assert result.breakers_all_closed
    print("\nOK: the burst was shed cleanly and every breaker re-closed")


if __name__ == "__main__":
    main()
